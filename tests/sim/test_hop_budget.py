"""Python-level calls per packet on the event path, counted, not timed.

``setup1_events`` pays the whole hop — trafgen tick, link, R's End.BPF,
link, S2's local delivery — once per packet, so every layer someone
adds to that path is a few more Python calls per packet.  The count
under ``sys.setprofile`` is exact and the same on every host; the
budget below sits just above what the fused dispatch function, the
straight-line wire, the single invocation path, the fact-gated arm, the
batch loop's inline seg6local action and the one handoff per hop left
(53.0; 61.0 while a link delivered through ``NetDev.process_batch``,
each event ran in a ``Scheduler._execute`` frame and each dispatch
flushed its egress in a ``Node._flush_egress`` frame; 62.0 while a
batch of one entered ``_run_pipeline`` for its End.BPF; 65.0 while
every program's arm reset everything; 69.0 while a scalar End.BPF went
through ``Program.run`` and ``JitProgram.run``; the per-packet context
object, stage methods and ``Packet.__len__`` frames before that read
100.0).

The invocation itself has its own budget: one scalar
``EndBPF.process`` is 6 calls — ``process``, the prologue, the pin,
``run_attached``, ``arm``, the translated function.  ``end.s`` calls no
helper and touches no context field, so the verifier's facts leave
``arm`` no region reset and ``run_attached`` no mark read-back (9 when
both ran for every program; 13 with the ``Program.run`` /
``JitProgram.run`` / ``HelperContext.rearm`` frames) — so the next
layer someone adds to it shows up as a number.  Two programs that call
helpers have one each: Tag++ 20 (19; 24 while the JIT called every
helper through ``Helper.__call__``, called ``_bswap`` for its two byte
swaps, and the §3.1 re-validation located the SRH twice more) and Add
TLV 28 (27; 31).

One packet of a 256-packet ``make_fig2_router`` batch has a budget per
Figure 2 variant.  A packet takes the previous packet's first route
when its destination and the main table's generation are unchanged, a
seg6local action runs inline in the batch loop, the route after the
action is looked up per packet, and the packet leaves through
``_transmit``:
- plain forwarding: 2.5 (2.02; 4.02 while each plain packet did its
  own lookup and entered ``_run_pipeline``);
- a static End: 5.5 (5.02; 5.03 in a seg6local group of its own;
  7.02 while only End.BPF was grouped and a static End took the
  pipeline alone, with two lookups per packet);
- End.T: 7.5 (7.02; 7.03 grouped; 11.02 alone in the pipeline, with
  two lookups and a ``Disposition`` built per packet);
- End.BPF: 9.5 (9.02; 9.03 grouped; 9.04 with ``pkt.dst`` and
  ``decrement_hop_limit`` per packet and the handler fetched per
  group).

Setup 2's hybrid-access path has three budgets of the same kind: one
WRR decision on the LWT hook (29: 28 calls; 39 while each helper call
went through ``Helper.__call__``'s slice to arity, an array-map lookup
took three frames and a fourth to map the value, and the encapsulation
went through ``push_outer_encap`` and a copy back; 40 with the mark
read-back of a program that never writes it; 45 before the single
invocation path; the SRH / IPv6 dataclass round trips and the generic
``Memory`` walk read 110), one ``End.DT6`` on its encapsulation (7; 25
with two parses and two packet copies), and one delivered packet of the
ledger-shaped Setup 2 (205: 203.5; 228.5 before the one handoff per
hop; 232.6 while every arrival entered ``_run_pipeline``; 259.5 while each TCP segment and ACK was built by
``make_tcp_packet`` and parsed from a copy; 280.1 before exact-arity
helper calls; 283.3; 285.2; 294.6; 445.7).

The TCP endpoints have one each, with ``node.send`` stubbed: an in-order
data segment through ``TcpReceiver._on_segment`` up to and including
its ACK's ``node.send`` (8: 7; 25 with a ``TcpHeader`` parse and the
ACK built by ``make_tcp_packet``), and a new ACK through
``TcpSender._on_segment`` up to and including the one new segment's
``node.send`` (20: 19; 37 likewise).
"""

from __future__ import annotations

import sys

import pytest

from repro.bench.harness import copy_batch, drive_batch, make_fig2_router
from repro.lab import build_setup1, build_setup2
from repro.net import (
    EndBPF, EndDT6, Node, Packet, TcpHeader, make_srv6_udp_packet, make_tcp_packet, make_udp_packet, pton,
)
from repro.net.tcp import FLAG_ACK
from repro.progs import add_tlv_prog, end_prog, tag_increment_prog
from repro.sim import NS_PER_MS, Scheduler, TcpReceiver, TcpSender
from repro.usecases import deploy_hybrid_access, install_wrr

CALLS_PER_PACKET_BUDGET = 54
CALLS_PER_SCALAR_END_BPF_BUDGET = 7
CALLS_PER_SCALAR_HELPER_PROGRAM_BUDGET = {"tag_increment": 20, "add_tlv": 28}
CALLS_PER_WRR_DECISION_BUDGET = 29
CALLS_PER_END_DT6_BUDGET = 8
CALLS_PER_SETUP2_PACKET_BUDGET = 205
CALLS_PER_TCP_DATA_SEGMENT_BUDGET = 8
CALLS_PER_TCP_NEW_ACK_BUDGET = 20
CALLS_PER_FIG2_PACKET_BUDGET = {"baseline_ipv6": 2.5, "end_static": 5.5, "end_t_static": 7.5, "end_bpf": 9.5}


def count_calls(fn, *args, **kwargs) -> int:
    """Python-level ``call`` events while ``fn(...)`` runs, ``fn``'s own frame included."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return calls


def test_setup1_hop_stays_within_its_call_budget():
    setup = build_setup1()
    net = setup.net
    net.attach("R", setup.FUNC_SEGMENT, EndBPF(end_prog()))
    flow = net.trafgen(
        "S1",
        path=[setup.FUNC_SEGMENT, setup.S2_ADDR],
        rate_bps=400e6,
        payload_size=64,
        burst=1,
        seed=1,
        src_port_spread=1000,
    )
    meter = net.sink("S2")
    flow.start(at_ns=0)
    net.run(until_ns=NS_PER_MS // 5)  # first tick compiles the template

    delivered = meter.packets
    calls = count_calls(net.run, until_ns=3 * NS_PER_MS)
    delivered = meter.packets - delivered

    assert delivered > 1000
    per_packet = calls / delivered
    assert per_packet <= CALLS_PER_PACKET_BUDGET, (
        f"{per_packet:.1f} Python-level calls per delivered Setup 1 packet "
        f"({calls} calls / {delivered} packets), budget {CALLS_PER_PACKET_BUDGET}"
    )


def test_wrr_decision_and_its_decap_stay_within_their_call_budgets():
    node = Node("A")
    node.add_address("fc00:aa::1")
    handle = install_wrr(node, "fc00:2::/64", "fc00:bb::d0", "fc00:bb::d1", 5, 3)
    template = make_udp_packet("fc00:1::1", "fc00:2::2", 40000, 5201, bytes(1000))

    def decide() -> Packet:
        pkt = Packet(template.data)
        assert handle.lwt.run_hook("lwt_out", pkt, node).action == "forward"
        return pkt

    decide()  # builds the handler's guest address space
    pkt = Packet(template.data)
    calls = count_calls(handle.lwt.run_hook, "lwt_out", pkt, node)
    assert len(pkt.data) == len(template.data) + 40 + 24  # outer header + one-segment SRH
    assert calls <= CALLS_PER_WRR_DECISION_BUDGET, (
        f"{calls} Python-level calls per WRR decision, budget {CALLS_PER_WRR_DECISION_BUDGET}"
    )

    action = EndDT6(table_id=254)
    action.process(decide(), node)
    encapsulated = decide()
    calls = count_calls(action.process, encapsulated, node)
    assert encapsulated.data == template.data
    assert calls <= CALLS_PER_END_DT6_BUDGET, (
        f"{calls} Python-level calls per End.DT6, budget {CALLS_PER_END_DT6_BUDGET}"
    )


def scalar_end_bpf_calls(program) -> tuple[int, Packet, EndBPF]:
    """Calls in one ``EndBPF.process`` of a 2-segment SRv6 packet, after a warm-up packet."""
    node = Node("R")
    action = EndBPF(program)
    template = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 40000, 5201, bytes(64))
    action.process(Packet(template.data), node)  # builds the handler's guest address space
    pkt = Packet(template.data)
    calls = count_calls(action.process, pkt, node)
    assert pkt.dst == pton("fc00:2::2") and action.stats["ok"] == 2
    return calls, pkt, action


def test_scalar_end_bpf_stays_within_its_call_budget():
    calls, _pkt, _action = scalar_end_bpf_calls(end_prog())
    assert calls <= CALLS_PER_SCALAR_END_BPF_BUDGET, (
        f"{calls} Python-level calls per scalar End.BPF, budget {CALLS_PER_SCALAR_END_BPF_BUDGET}"
    )


@pytest.mark.parametrize("name", sorted(CALLS_PER_SCALAR_HELPER_PROGRAM_BUDGET))
def test_scalar_helper_calling_end_bpf_stays_within_its_call_budget(name):
    make_program, grows = {"tag_increment": (tag_increment_prog, 0), "add_tlv": (add_tlv_prog, 8)}[name]
    calls, pkt, _action = scalar_end_bpf_calls(make_program())
    assert len(pkt.data) == 40 + 40 + 8 + 64 + grows  # IPv6, 2-segment SRH, UDP + payload, the TLV
    budget = CALLS_PER_SCALAR_HELPER_PROGRAM_BUDGET[name]
    assert calls <= budget, f"{calls} Python-level calls per scalar {name} End.BPF, budget {budget}"


@pytest.mark.parametrize("variant", sorted(CALLS_PER_FIG2_PACKET_BUDGET))
def test_fig2_batch_packet_stays_within_its_call_budget(variant):
    node, templates = make_fig2_router(variant)
    drive_batch(node, copy_batch(templates))  # builds the handler, fills the flow table
    pkts = copy_batch(templates)
    calls = count_calls(node.receive_batch, pkts, node.devices["eth0"])
    assert len(node.devices["eth1"].tx_buffer) == len(pkts)
    per_packet = calls / len(pkts)
    budget = CALLS_PER_FIG2_PACKET_BUDGET[variant]
    assert per_packet <= budget, (
        f"{per_packet:.2f} Python-level calls per {variant} packet in a "
        f"{len(pkts)}-packet batch, budget {budget}"
    )


def test_tcp_endpoints_stay_within_their_call_budgets():
    """One in-order data segment in, its ACK out; one new ACK in, one new segment out."""
    sent = []

    def send(pkt: Packet) -> None:
        sent.append(pkt)

    def segment(src, dst, ports, seq, ack, payload=b"") -> Packet:
        return make_tcp_packet(src, dst, TcpHeader(*ports, seq, ack, FLAG_ACK), payload)

    b = Node("B")
    b.send = send
    receiver = TcpReceiver(Scheduler(), b, "fc00::b", "fc00::a", 6000, 16000)
    data = [segment("fc00::a", "fc00::b", (16000, 6000), seq, 0, bytes(1400)) for seq in (0, 1400)]
    receiver._on_segment(data[0], b)  # the first ACK builds the image
    calls = count_calls(receiver._on_segment, data[1], b)
    assert receiver.rcv_nxt == 2800 and len(sent) == 2
    assert calls <= CALLS_PER_TCP_DATA_SEGMENT_BUDGET, (
        f"{calls} Python-level calls per in-order data segment and its ACK, "
        f"budget {CALLS_PER_TCP_DATA_SEGMENT_BUDGET}"
    )

    a = Node("A")
    a.send = send
    sender = TcpSender(Scheduler(), a, "fc00::a", "fc00::b", 16000, 6000)
    sender.start()  # the initial window: 10 segments
    sender.ssthresh = sender.cwnd  # congestion avoidance: each new ACK frees one segment
    acks = [segment("fc00::b", "fc00::a", (6000, 16000), ack, ack) for ack in (1400, 2800)]
    sender._on_segment(acks[0], a)  # takes the RTT sample
    calls = count_calls(sender._on_segment, acks[1], a)
    assert sender.snd_una == 2800 and len(sent) == 2 + 12
    assert calls <= CALLS_PER_TCP_NEW_ACK_BUDGET, (
        f"{calls} Python-level calls per new ACK and its new segment, "
        f"budget {CALLS_PER_TCP_NEW_ACK_BUDGET}"
    )


def test_setup2_delivered_packet_stays_within_its_call_budget():
    """The ledger's ``setup2_hybrid`` shape: WRR bond, TWD, two TCP + 10 Mb/s UDP."""
    setup = build_setup2(seed=1)
    deploy_hybrid_access(setup, weights=(5, 3), compensation=True)
    net = setup.net
    connections = [net.tcp("S1", "S2", port=5000 + i) for i in range(2)]
    flow = net.trafgen("S1", dst=setup.S2_ADDR, rate_bps=10e6, payload_size=1000, seed=1)
    meter = net.sink("S2")
    start = 300 * NS_PER_MS
    net.run(until_ns=start)  # only TWD probes fly: the compensation converges
    for sender, _receiver in connections:
        sender.start()
    flow.start(at_ns=start)
    net.run(until_ns=start + 50 * NS_PER_MS)

    def delivered() -> int:
        return meter.packets + sum(r.stats.segments_received for _s, r in connections)

    before = delivered()
    calls = count_calls(net.run, until_ns=start + 150 * NS_PER_MS)
    packets = delivered() - before

    assert packets > 300
    per_packet = calls / packets
    assert per_packet <= CALLS_PER_SETUP2_PACKET_BUDGET, (
        f"{per_packet:.1f} Python-level calls per delivered Setup 2 packet "
        f"({calls} calls / {packets} packets), budget {CALLS_PER_SETUP2_PACKET_BUDGET}"
    )
