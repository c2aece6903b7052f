"""Convergence bench — the packet-loss window around a mid-run link failure.

Not a paper figure: it qualifies the ``repro.ctrl`` control plane on the
paper's Setup 2.  A constant-rate UDP flow runs S1 → S2 while the DSL
access link (the IGP-preferred path) fails mid-run:

* **igp_only** — the failure is detected by the hello dead-interval,
  flooded, and globally reconverged.  The loss window is the detection
  window (~dead interval).
* **frr** — TI-LFA backup routes are precomputed as seg6 encap segment
  lists and installed at carrier loss.  Only in-flight packets die; the
  loss window collapses to the flow's inter-packet gap.

The report asserts the FRR loss window is strictly smaller and writes
``BENCH_convergence.json`` (override with ``REPRO_BENCH_JSON``) so CI
can archive the trajectory next to the other ``BENCH_*.json`` files.
"""

import json
import os

import pytest

from repro.lab import SETUP2_IGP_COSTS, build_setup2
from repro.sim.scheduler import NS_PER_MS, NS_PER_SEC

RATE_BPS = 10e6
PAYLOAD = 1000
WIRE_BYTES = PAYLOAD + 48
FLOW_START_NS = 500 * NS_PER_MS
FAIL_NS = 900 * NS_PER_MS
FLOW_DURATION_NS = NS_PER_SEC

RESULTS: dict[str, dict] = {}


def run_failover(frr: bool) -> dict:
    setup = build_setup2()
    net = setup.net
    ctrl = net.ctrl(frr=frr, costs=SETUP2_IGP_COSTS)
    net.run(until_ms=500)
    assert ctrl.converged()
    arrivals: list[int] = []
    meter = net.sink("S2")
    net["S2"].bind(lambda pkt, node, _offset: arrivals.append(node.clock_ns()), proto=17, port=5201)
    flow = net.trafgen("S1", dst="fc00:2::2", rate_bps=RATE_BPS, payload_size=PAYLOAD)
    flow.start(at_ns=FLOW_START_NS, duration_ns=FLOW_DURATION_NS)
    net.fail_link("A", "R", dev="dsl", at_ns=FAIL_NS)
    net.run(until_ms=3500)
    # The loss window: the largest delivery gap opening after the failure.
    post = [t for t in arrivals if t > FAIL_NS - 50 * NS_PER_MS]
    gaps = [b - a for a, b in zip(post, post[1:])] or [0]
    return {
        "sent": flow.stats.sent,
        "delivered": meter.packets,
        "lost": flow.stats.sent - meter.packets,
        "loss_window_ms": round(max(gaps) / NS_PER_MS, 3),
        "dead_interval_ms": ctrl.dead_interval_ns / NS_PER_MS,
        "frr_fired": ctrl.bus.count("frr-fired"),
        "spf_runs": ctrl.bus.count("spf-run"),
        "adjacency_downs": ctrl.bus.count("adjacency-down"),
    }


@pytest.mark.parametrize("mode", ["igp_only", "frr"])
def test_convergence_point(benchmark, mode):
    result = benchmark.pedantic(run_failover, args=(mode == "frr",), rounds=1)
    RESULTS[mode] = result
    benchmark.extra_info.update(result)
    # Sanity per mode: traffic resumed after the failure in both cases.
    assert result["delivered"] > 0.6 * result["sent"]


def test_convergence_report(benchmark):
    if len(RESULTS) < 2:
        pytest.skip("points did not run")
    benchmark.pedantic(lambda: None, rounds=1)
    igp, frr = RESULTS["igp_only"], RESULTS["frr"]
    rate_pps = RATE_BPS / (8 * WIRE_BYTES)
    print("\n=== loss window around a mid-run DSL-link failure (Setup 2) ===")
    print(f"  flow: {RATE_BPS / 1e6:.0f} Mb/s, {rate_pps:.0f} pps; "
          f"dead interval {igp['dead_interval_ms']:.0f} ms")
    for name, result in (("igp_only", igp), ("frr", frr)):
        print(
            f"  {name:<9} lost {result['lost']:>4}/{result['sent']} pkts   "
            f"window {result['loss_window_ms']:8.3f} ms   "
            f"(frr fired {result['frr_fired']}x, {result['spf_runs']} SPF runs)"
        )
    # IGP-only loses ≈ one detection window of traffic...
    expected = igp["dead_interval_ms"] / 1e3 * rate_pps
    assert 0.5 * expected < igp["lost"] < 2.5 * expected
    # ... while FRR loses at most in-flight packets, and its window is
    # strictly smaller.
    assert frr["frr_fired"] >= 1
    assert frr["lost"] <= 3
    assert frr["loss_window_ms"] < igp["loss_window_ms"]
    benchmark.extra_info["igp_only"] = igp
    benchmark.extra_info["frr"] = frr
    out_path = os.environ.get("REPRO_BENCH_JSON", "BENCH_convergence.json")
    with open(out_path, "w") as fh:
        json.dump({"convergence": {"igp_only": igp, "frr": frr}}, fh, indent=2)
        fh.write("\n")
    print(f"  wrote {out_path}")
