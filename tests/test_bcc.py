"""The bcc-like user-space front-end."""

import pytest

from repro.ebpf import ArrayMap, PerfEventArrayMap
from repro.net import Node, make_srv6_udp_packet, pton
from repro.userspace.bcc import BPF

COUNT_AND_REPORT = """
    r6 = r1
    *(u32 *)(r10 - 4) = 0
    r1 = hits ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r1 = *(u64 *)(r0 + 0)
    r1 += 1
    *(u64 *)(r0 + 0) = r1
    *(u64 *)(r10 - 16) = r1
    r1 = r6
    r2 = events ll
    w3 = -1
    r4 = r10
    r4 += -16
    r5 = 8
    call perf_event_output
out:
    r0 = 0
    exit
"""


@pytest.fixture
def loaded():
    hits = ArrayMap("hits", value_size=8, max_entries=1)
    events = PerfEventArrayMap("events")
    b = BPF(text=COUNT_AND_REPORT, maps={"hits": hits, "events": events})
    return b, hits, events


def router():
    node = Node("R")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00:e::1")
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1")
    return node


def test_load_verifies(loaded):
    b, _hits, _events = loaded
    assert b.program.num_insns > 0


def test_attach_seg6local_and_run(loaded):
    b, hits, _events = loaded
    node = router()
    b.attach_seg6local(node, "fc00:e::100/128")
    pkt = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, b"x")
    node.receive(pkt, node.devices["eth0"])
    assert int.from_bytes(hits.lookup(b"\x00" * 4), "little") == 1


def test_map_access_by_name(loaded):
    b, hits, _events = loaded
    assert b["hits"] is hits


def test_perf_buffer_poll_dispatches(loaded):
    b, _hits, _events = loaded
    node = router()
    b.attach_seg6local(node, "fc00:e::100/128")
    seen = []
    b["events"].open_perf_buffer(lambda cpu, data: seen.append((cpu, data)))
    for _ in range(3):
        pkt = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, b"x")
        node.receive(pkt, node.devices["eth0"])
    count = b.perf_buffer_poll()
    assert count == 3
    assert [int.from_bytes(d, "little") for _c, d in seen] == [1, 2, 3]
    assert b.perf_buffer_poll() == 0  # drained


def test_lwt_program_type_restriction():
    with pytest.raises(ValueError, match="seg6local"):
        b = BPF(text="r0 = 0\nexit", prog_type=BPF.LWT)
        b.attach_seg6local(router(), "fc00:e::100/128")


def test_attach_lwt_out():
    b = BPF(text="r0 = 0\nexit", prog_type=BPF.LWT)
    node = router()
    lwt = b.attach_lwt_out(node, "fc00:3::/64", via="fc00:2::1", dev="eth1")
    from repro.net import make_udp_packet

    node.receive(make_udp_packet("fc00:1::1", "fc00:3::3", 1, 2, b"x"), node.devices["eth0"])
    assert lwt.stats["ok"] == 1


def test_seg6local_program_cannot_use_lwt_helpers():
    from repro.ebpf import VerifierError

    asm = """
    *(u64 *)(r10 - 8) = 0
    r2 = 0
    r3 = r10
    r3 += -8
    r4 = 8
    call lwt_push_encap
    r0 = 0
    exit
    """
    with pytest.raises(VerifierError):
        BPF(text=asm, prog_type=BPF.SEG6LOCAL)
