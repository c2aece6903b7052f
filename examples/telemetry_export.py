#!/usr/bin/env python3
"""Telemetry export: a failure and its fast reroute, streamed to JSONL.

The FRR square (``python -m repro.cli --setup square``) carries a 5 Mb/s
flow from A to D.  At 300 ms the A—B link fails and A's TI-LFA repair
takes over.  A telemetry session samples every 10 ms into
``telemetry.jsonl``: the control-bus events, drained perf records and a
metrics snapshot per tick, in one time-ordered stream.  With the seed
fixed the file is byte-identical from run to run.

Run:  python3 examples/telemetry_export.py      (writes ./telemetry.jsonl)
"""

import json
from collections import Counter

from repro.cli import build_network
from repro.sim.scheduler import NS_PER_MS
from repro.telemetry import FileSink

PATH = "telemetry.jsonl"


def main() -> None:
    net = build_network("square", seed=7, with_ctrl=True, frr=True)
    net.sink("D")
    flow = net.trafgen("A", dst="fc00:d::1", rate_bps=5e6)
    flow.start(at_ns=150 * NS_PER_MS, duration_ns=300 * NS_PER_MS)
    net.fail_link("A", "B", at_ns=300 * NS_PER_MS)
    session = net.telemetry(interval_ms=10, sink=FileSink(PATH))
    net.run(until_ms=500)
    session.close()
    fired = net.metrics.value("ctrl_events", kind="frr-fired", node="A")
    assert fired, "the A-B failure must fire A's fast reroute"
    with open(PATH) as stream:
        kinds = Counter(json.loads(line)["type"] for line in stream)
    print(f"wrote {PATH}: " + ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items())))
    print(f"frr-fired on A: {fired}")


if __name__ == "__main__":
    main()
