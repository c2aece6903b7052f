#!/usr/bin/env python3
"""Trace export: every packet's path through a failure, and under shards.

The FRR square with every flow traced: A sends 20 Mb/s to D, the A—B
link fails at 60 ms and comes back at 140 ms.  Each delivered packet
becomes a trace record whose span durations add up exactly to its
delay.  The records go to ``trace.jsonl`` and to ``trace.chrome.json``
(open it on ui.perfetto.dev to see the detour).

The same scenario, without the failure, then runs unsharded and across
two worker processes (``net.run(shards=2)``): the trace export and the
telemetry export must agree byte for byte.

Run:  python3 examples/trace_export.py   (writes ./trace.jsonl, ./trace.chrome.json)
"""

import json

from repro.lab import Network
from repro.sim.scheduler import NS_PER_MS
from repro.telemetry import RingSink

UNTIL_MS = 200


def build(failure: bool):
    """The traced square: (network, tracer, telemetry session)."""
    net = Network(seed=7)
    for name in ("A", "B", "C", "D"):
        net.add_node(name, addr=f"fc00:{name.lower()}::1")
    for a, b in (("A", "B"), ("B", "D"), ("A", "C"), ("C", "D")):
        net.add_link(a, b, rate_bps=1e9, delay_ns=2_000_000)
    net.ctrl(frr=True, hello_interval_ns=10 * NS_PER_MS,
             costs={("A", "eth0"): 5, ("B", "eth0"): 5, ("B", "eth1"): 5, ("D", "eth0"): 5})
    net.sink("D")
    tracer = net.trace(sample=1)
    net.trafgen("A", dst="fc00:d::1", rate_bps=20e6, payload_size=400).start(at_ns=0)
    session = net.telemetry(interval_ms=10, sink=RingSink(capacity=None))
    if failure:
        net.fail_link("A", "B", at_ns=60 * NS_PER_MS)
        net.recover_link("A", "B", at_ns=140 * NS_PER_MS)
    return net, tracer, session


def export() -> None:
    net, tracer, _session = build(failure=True)
    net.run(until_ms=UNTIL_MS)
    records = tracer.sorted_records()
    assert len(records) > 100, len(records)
    for rec in records:
        spans = sum(end - start for start, end, *_ in rec["spans"])
        assert spans == rec["delay_ns"] == sum(rec["attribution"].values())
    tracer.export("trace.jsonl")
    tracer.export_chrome("trace.chrome.json")
    with open("trace.jsonl") as stream:
        across = sum('"events"' in line for line in stream)
    assert across, "some trace must span the failure's control-plane events"
    with open("trace.chrome.json") as stream:
        assert json.load(stream)["traceEvents"]
    print(f"wrote trace.jsonl and trace.chrome.json: {len(records)} traces, "
          f"{across} across control-plane events; spans sum to each delay")


def sharded() -> None:
    exports = []
    for shards in (1, 2):
        net, tracer, session = build(failure=False)
        net.run(until_ms=UNTIL_MS, shards=shards)
        session.close()
        exports.append((tracer.jsonl_lines(), session.sink.lines()))
    (trace1, telemetry1), (trace2, telemetry2) = exports
    assert trace2 == trace1, "the sharded trace export differs from the unsharded one"
    assert telemetry2 == telemetry1, "the sharded telemetry export differs from the unsharded one"
    print(f"shards=1 and shards=2: {len(trace1)} trace lines and "
          f"{len(telemetry1)} telemetry lines, byte-identical")


def main() -> None:
    export()
    sharded()


if __name__ == "__main__":
    main()
