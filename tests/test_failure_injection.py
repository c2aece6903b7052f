"""Failure injection: every defence layer actually fires.

§3.1: *"If the SRH has been altered by the BPF program, a quick
verification is performed to ensure that it is still valid ... otherwise
it is dropped."*  These tests force each failure mode and check the
system degrades exactly as designed: drops with counters, never crashes.
"""

import pytest

from repro.ebpf import ArrayMap, HashMap, PerfEventArrayMap, Program
from repro.lab import Network
from repro.net import (
    EndBPF,
    SEG6LOCAL_HELPERS,
    make_srv6_udp_packet,
    make_udp_packet,
    pton,
)

SEG = "fc00:e::100"


def fresh_lab(**node_kwargs):
    """A one-router network built through the declarative builder."""
    net = Network()
    net.add_node("R", addr="fc00:e::1", devices=("eth0", "eth1"), **node_kwargs)
    net.config("R", "route add fc00:2::/64 via fc00:2::1 dev eth1")
    return net


def fresh_router():
    return fresh_lab()["R"]


def srv6_pkt():
    return make_srv6_udp_packet("fc00:1::1", [SEG, "fc00:2::2"], 1, 2, b"x" * 32)


def run_through(node, asm, pkt):
    prog = Program(asm, allowed_helpers=SEG6LOCAL_HELPERS)
    action = EndBPF(prog)
    node.add_route(f"{SEG}/128", encap=action)
    node.receive(pkt, node.devices["eth0"])
    buf = node.devices["eth1"].tx_buffer
    return (buf.pop() if buf else None), action


CORRUPT_TLV = """
    r6 = r1
    r1 = r6
    r2 = 80
    r3 = 8
    call lwt_seg6_adjust_srh
    if r0 != 0 goto out
    *(u8 *)(r10 - 8) = 10
    *(u8 *)(r10 - 7) = 200     ; TLV claims 200 bytes in an 8-byte area
    *(u32 *)(r10 - 6) = 0
    *(u16 *)(r10 - 2) = 0
    r1 = r6
    r2 = 80
    r3 = r10
    r3 += -8
    r4 = 8
    call lwt_seg6_store_bytes
out:
    r0 = 0
    exit
"""


def test_corrupted_tlv_area_dropped_by_post_run_validation():
    node = fresh_router()
    out, action = run_through(node, CORRUPT_TLV, srv6_pkt())
    assert out is None
    assert node.counters.dropped == 1
    assert action.stats["drop"] == 1


def test_helper_runtime_error_drops_packet_not_process():
    # lwt_seg6_action needs a node-side routing context; a program that
    # triggers a helper fault must only cost the packet.
    asm = """
    r6 = r1
    *(u32 *)(r10 - 4) = 254
    r1 = r6
    r2 = 7                     ; END_DT6 on a packet with no inner IPv6
    r3 = r10
    r3 += -4
    r4 = 4
    call lwt_seg6_action
    if r0 != 0 goto drop
    r0 = 7
    exit
    drop:
    r0 = 2
    exit
    """
    node = fresh_router()
    out, action = run_through(node, asm, srv6_pkt())  # UDP inner, not IPv6
    assert out is None  # helper returned -EINVAL, program chose to drop
    # Router is still healthy: next packet forwards fine.
    node.receive(srv6_pkt(), node.devices["eth0"])
    # (The End.BPF route now exists; the second packet goes through it too
    # and is dropped the same way — send a plain packet instead.)
    node.receive(make_udp_packet("fc00:1::1", "fc00:2::9", 1, 2, b"y"), node.devices["eth0"])
    assert node.devices["eth1"].tx_buffer


def test_perf_ring_overflow_counts_drops_and_keeps_datapath_alive():
    events = PerfEventArrayMap("tiny")
    ring = events.ring(0)
    ring.capacity = 4
    asm_maps = {"ev": events}
    asm = """
    r6 = r1
    *(u64 *)(r10 - 8) = 7
    r1 = r6
    r2 = ev ll
    w3 = -1
    r4 = r10
    r4 += -8
    r5 = 8
    call perf_event_output
    r0 = 0
    exit
    """
    node = fresh_router()
    prog = Program(asm, maps=asm_maps, allowed_helpers=SEG6LOCAL_HELPERS)
    node.add_route(f"{SEG}/128", encap=EndBPF(prog))
    for _ in range(10):
        node.receive(srv6_pkt(), node.devices["eth0"])
    assert len(node.devices["eth1"].tx_buffer) == 10  # all still forwarded
    assert ring.pushed == 4
    assert ring.dropped == 6


def test_hash_map_exhaustion_visible_to_program():
    hmap = HashMap("small", key_size=4, value_size=4, max_entries=2)
    # Program inserts a per-packet-mark key; returns the helper's error code
    # in the packet mark via the context.
    asm = """
    r6 = r1
    r2 = *(u32 *)(r6 + 0)      ; use packet length as a pseudo-unique key
    r3 = *(u32 *)(r6 + 8)      ; mark = attempt number (set by the test)
    *(u32 *)(r10 - 4) = r3
    *(u32 *)(r10 - 12) = 1
    r1 = small ll
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -12
    r4 = 0
    call map_update_elem
    if r0 == 0 goto ok
    r2 = 99
    *(u32 *)(r6 + 8) = r2      ; flag the failure in the mark
    ok:
    r0 = 0
    exit
    """
    node = fresh_router()
    prog = Program(asm, maps={"small": hmap}, allowed_helpers=SEG6LOCAL_HELPERS)
    node.add_route(f"{SEG}/128", encap=EndBPF(prog))
    marks = []
    for i in range(4):
        pkt = srv6_pkt()
        pkt.mark = i + 1
        node.receive(pkt, node.devices["eth0"])
        marks.append(node.devices["eth1"].tx_buffer.pop().mark)
    # First two inserts fit; the rest hit the full map and flag 99.
    assert marks[0] != 99 and marks[1] != 99
    assert marks[2] == 99 and marks[3] == 99


def test_truncated_srh_dropped_before_program_runs():
    node = fresh_router()
    prog = Program("r0 = 0\nexit", allowed_helpers=SEG6LOCAL_HELPERS)
    action = EndBPF(prog)
    node.add_route(f"{SEG}/128", encap=action)
    pkt = srv6_pkt()
    pkt.data = pkt.data[:44]  # cut inside the SRH
    node.receive(pkt, node.devices["eth0"])
    assert node.counters.dropped == 1
    assert prog.stats.invocations == 0  # never reached the program


def test_seg6local_route_with_exhausted_segments_drops():
    node = fresh_router()
    prog = Program("r0 = 0\nexit", allowed_helpers=SEG6LOCAL_HELPERS)
    node.add_route(f"{SEG}/128", encap=EndBPF(prog))
    pkt = make_srv6_udp_packet("fc00:1::1", ["fc00:9::9", SEG], 1, 2, b"x")
    # Force segments_left to 0 while keeping DA = SEG.
    srh, off = pkt.srh()
    pkt.data[off + 3] = 0
    pkt.data[24:40] = pton(SEG)
    node.receive(pkt, node.devices["eth0"])
    assert node.counters.dropped == 1
    assert prog.stats.invocations == 0


def test_cpu_queue_overflow_drops_but_recovers():
    from repro.sim import CostModel

    net = fresh_lab(cpu=CostModel(forward_ns=1_000_000), cpu_queue_limit=5)
    node = net["R"]
    for _ in range(20):
        node.receive(make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x"), node.devices["eth0"])
    net.run()
    assert node.cpu.stats.dropped == 15
    assert len(node.devices["eth1"].tx_buffer) == 5
    # Recovery: a later packet sails through the drained queue.
    node.receive(make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"y"), node.devices["eth0"])
    net.run()
    assert len(node.devices["eth1"].tx_buffer) == 6


def test_monitoring_survives_lossy_path():
    """DM pipeline under 20 % netem loss: fewer samples, no corruption."""
    from repro.lab import build_setup1
    from repro.sim.scheduler import NS_PER_SEC
    from repro.usecases import deploy_owd_monitoring

    setup = build_setup1()
    net = setup.net
    handles = deploy_owd_monitoring(
        head=setup.s1,
        tail=setup.s2,
        controller_node=setup.s1,
        monitored_prefix="fc00:2::/64",
        dm_segment="fc00:2::dd",
        controller_addr="fc00:1::1",
        ratio=1,
        via="fc00:1::ff",
        dev="eth0",
    )
    net.config("R", "route add fc00:2::dd/128 via fc00:2::2 dev eth1")
    handles.daemon.start(net.scheduler, interval_ns=1_000_000)
    net.netem("R", "eth1", loss=0.2, seed=3)
    flow = net.trafgen("S1", dst="fc00:2::2", rate_bps=5e6, payload_size=100)
    flow.start(duration_ns=NS_PER_SEC // 10)
    with net.run(until_ns=NS_PER_SEC // 2):
        samples = handles.collector.samples
        assert 0 < len(samples) < flow.stats.sent
        assert all(s.delay_ns >= 0 for s in samples)
