"""Python-level calls per delivered Setup 1 packet, counted, not timed.

``setup1_events`` pays the whole hop — trafgen tick, link, R's End.BPF,
link, S2's local delivery — once per packet, so every layer someone
adds to that path is a few more Python calls per packet.  The count
under ``sys.setprofile`` is exact and the same on every host; the
budget below sits just above what the fused dispatch function and the
straight-line wire left (71.0); the per-packet context object, stage
methods and ``Packet.__len__`` frames they replaced read 100.0.
"""

from __future__ import annotations

import sys

from repro.lab import build_setup1
from repro.net import EndBPF
from repro.progs import end_prog
from repro.sim import NS_PER_MS

CALLS_PER_PACKET_BUDGET = 75


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

    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    delivered = meter.packets
    sys.setprofile(count)
    try:
        net.run(until_ns=3 * NS_PER_MS)
    finally:
        sys.setprofile(None)
    delivered = meter.packets - delivered

    assert delivered > 1000
    per_packet = calls / delivered
    assert per_packet <= CALLS_PER_PACKET_BUDGET, (
        f"{per_packet:.1f} Python-level calls per delivered Setup 1 packet "
        f"({calls} calls / {delivered} packets), budget {CALLS_PER_PACKET_BUDGET}"
    )
