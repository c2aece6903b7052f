"""Python-level calls per packet on the event path, counted, not timed.

``setup1_events`` pays the whole hop — trafgen tick, link, R's End.BPF,
link, S2's local delivery — once per packet, so every layer someone
adds to that path is a few more Python calls per packet.  The count
under ``sys.setprofile`` is exact and the same on every host; the
budget below sits just above what the fused dispatch function, the
straight-line wire and the single invocation path left (65.0; 69.0
while a scalar End.BPF went through ``Program.run`` and
``JitProgram.run``; the per-packet context object, stage methods and
``Packet.__len__`` frames before that read 100.0).

The invocation itself has its own budget: one scalar
``EndBPF.process`` is 9 calls — the prologue, the pin, ``run_attached``,
``arm`` and its two region resets, the translated function, the mark
read-back (13 with the ``Program.run`` / ``JitProgram.run`` /
``HelperContext.rearm`` frames) — so the next layer someone adds to it
shows up as a number.

Setup 2's hybrid-access path has three budgets of the same kind: one
WRR decision on the LWT hook (40 calls; 45 before the single invocation
path; the SRH / IPv6 dataclass round trips and the generic ``Memory``
walk read 110), one ``End.DT6`` on its encapsulation (7; 25 with two
parses and two packet copies), and one delivered packet of the
ledger-shaped Setup 2 (285.2; 294.6; 445.7).
"""

from __future__ import annotations

import sys

from repro.lab import build_setup1, build_setup2
from repro.net import EndBPF, EndDT6, Node, Packet, make_srv6_udp_packet, make_udp_packet, pton
from repro.progs import end_prog
from repro.sim import NS_PER_MS
from repro.usecases import deploy_hybrid_access, install_wrr

CALLS_PER_PACKET_BUDGET = 67
CALLS_PER_SCALAR_END_BPF_BUDGET = 10
CALLS_PER_WRR_DECISION_BUDGET = 41
CALLS_PER_END_DT6_BUDGET = 8
CALLS_PER_SETUP2_PACKET_BUDGET = 288


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


def test_scalar_end_bpf_stays_within_its_call_budget():
    node = Node("R")
    action = EndBPF(end_prog())
    template = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 40000, 5201, bytes(64))
    action.process(Packet(template.data), node)  # builds the handler's guest address space
    pkt = Packet(template.data)
    calls = count_calls(action.process, pkt, node)
    assert pkt.dst == pton("fc00:2::2") and action.stats["ok"] == 2
    assert calls <= CALLS_PER_SCALAR_END_BPF_BUDGET, (
        f"{calls} Python-level calls per scalar End.BPF, budget {CALLS_PER_SCALAR_END_BPF_BUDGET}"
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
