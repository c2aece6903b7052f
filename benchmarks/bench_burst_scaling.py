"""Batch datapath throughput vs. concurrent flow count (1 → 70k).

Not a paper figure: this bench qualifies the batch-native datapath that
lets the reproduction approach the traffic scale the paper's testbed
reaches natively (§3.2 drives the router at 610 kpps line rate).  The
router under test is R from setup 1 running the End.BPF baseline
function, driven with the §3.2 trafgen workload spread over N concurrent
flows — each flow has its own source port *and* its own final segment,
so per-flow state (the node flow table) is genuinely stressed rather
than replaying one 5-tuple.

For every flow count the same packet stream is first pushed through one
``Node.receive()`` per packet and through one ``Node.receive_batch()``,
and the outputs are compared byte for byte (partition invariance at
sizes 1 and N — the contract `tests/test_batch_partition.py` pins in
full).  Then the batch path is timed, best of ROUNDS.

Acceptance is "no collapse", stated between two real paths instead of
against a reconstructed scalar strawman: batch pps at 10k flows is at
least 0.8x batch pps at 1 flow, and the 70 000-flow point — more flows
than the 32 768-entry flow table holds, so nearly every lookup misses,
inserts and evicts — keeps at least 0.4x (O(1) FIFO eviction and the
header-only End prologue measure ≈ 0.5–0.75x; the dict-scan eviction
they replaced read ≈ 0.17x).  The perf ledger's ``flow_churn`` workload
(``benchmarks/ledger``) tracks the same path with per-layer attribution.

Set ``REPRO_BENCH_FLOWS`` (comma-separated flow counts, e.g. ``1,1000``)
to shrink the sweep for CI smoke runs; each acceptance assertion applies
whenever its flow points ran.  The 1k-flow point additionally runs with
a live 10 ms telemetry sampler attached (simulated line-rate cadence)
and asserts the export costs under 5% of batch throughput, and A/B's
``repro.trace`` overhead against the untraced batch path.  Results —
pps, the ratios to the 1-flow point, the handler re-arm and translation
counters and the telemetry run's drop accounting — are written to
``BENCH_burst_scaling.json`` (override with ``REPRO_BENCH_JSON``).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.bench import copy_batch, make_router_net
from repro.ebpf.jit import handler_cache_stats
from repro.net import EndBPF, pton
from repro.progs import end_prog
from repro.sim.trafgen import batch_srv6_udp_flows

CHURN_FLOWS = 70_000  # more flows than the flow table holds: the miss path
_DEFAULT_FLOWS = (1, 10, 100, 1_000, 10_000, CHURN_FLOWS)
_ENV_FLOWS = tuple(
    int(f) for f in os.environ.get("REPRO_BENCH_FLOWS", "").replace(" ", "").split(",") if f
)
FLOW_COUNTS = _ENV_FLOWS or _DEFAULT_FLOWS
# "No collapse": batch pps at these flow counts, as a fraction of batch pps
# at 1 flow (every cache hitting), may not fall below the floor.
MIN_PPS_VS_1_FLOW = {10_000: 0.8, CHURN_FLOWS: 0.4}
BATCH = 2048
ROUNDS = 5
RESULTS: dict[tuple[int, str], float] = {}  # (flows, "batch" | "batch+telemetry") -> pps
V2_COUNTERS: dict[int, dict] = {}  # flows -> handler re-arms / translation counters of the batch rounds
TELEMETRY_INFO: dict = {}  # the 1k-flow telemetry-enabled run's export accounting
# Telemetry overhead gate: a 10 ms streaming sampler may not cost the
# batch datapath more than this fraction of its throughput.
MAX_TELEMETRY_OVERHEAD = 0.05

FUNC_SEGMENT = "fc00:e::100"
TELEMETRY_FLOWS = 1_000  # the acceptance anchor gets the telemetry-enabled run


def make_end_bpf_router():
    """R with the §3.2 End.BPF baseline function on the test segment."""
    net, node = make_router_net()
    node.add_route(f"{FUNC_SEGMENT}/128", encap=EndBPF(end_prog()))
    return net, node


def _run_counters() -> dict:
    """Handler re-arms (process-wide)."""
    return {"handler_hits": handler_cache_stats()["handler_hits"]}


def make_templates(flows: int):
    return batch_srv6_udp_flows(
        "fc00:1::1", FUNC_SEGMENT, "fc00:2", flows, max(BATCH, flows)
    )


def measure_batch(node, templates) -> float:
    """Best-of-ROUNDS pps of the batch-native datapath."""
    count = len(templates)
    dev = node.devices["eth0"]
    out = node.devices["eth1"].tx_buffer
    best = float("inf")
    for _ in range(ROUNDS):
        pkts = copy_batch(templates)
        start = time.perf_counter()
        node.receive_batch(pkts, dev)
        elapsed = time.perf_counter() - start
        assert len(out) == count, "packets were dropped"
        out.clear()
        best = min(best, elapsed)
    return count / best


# The paper's §3.2 line rate: converts a batch into simulated wall-clock,
# which sets how often a 10 ms sampler would really fire (one 2048-packet
# batch ≈ 3.4 ms of line-rate traffic → a sample every ~3 batches).
LINE_RATE_PPS = 610_000
TELEMETRY_ROUNDS = 12
TELEMETRY_INTERVAL_NS = 10_000_000

# Tracing overhead gates (repro.trace): armed-but-dormant must be free
# (every hot path pays one slot load + is-None check, nothing else), and
# head-sampling one packet in 64 must stay under 5%.  CI smoke loosens
# both slightly for shared-runner noise.
TRACING_FLOWS = 1_000
TRACE_SAMPLE_EVERY = 64
TRACING_ROUNDS = 12
TRACING_REPS = 4
MAX_TRACING_DISABLED_OVERHEAD = float(os.environ.get("REPRO_TRACE_DISABLED_MAX", "0.01"))
MAX_TRACING_SAMPLED_OVERHEAD = float(os.environ.get("REPRO_TRACE_SAMPLED_MAX", "0.05"))
TRACING_INFO: dict = {}


def measure_batch_tracing(node, templates) -> dict:
    """Median paired-rotation overheads of the batch path A/B'd against itself.

    Three populations over the same router: *plain* (no tracer
    anywhere), *disabled* (a tracer armed on the node but no packet
    carrying a context — the dormant cost every untraced run pays) and
    *sampled* (1-in-64 packets admitted inside the timed region, spans
    recorded through the whole pipeline).  All three run back to back
    within each rotation, and each rotation yields overhead *ratios*
    (disabled/plain, sampled/plain) — under drifting host load (the
    dominant noise here) numerator and denominator of a rotation scale
    together, so per-rotation ratios stay honest where cross-run minima
    would not.  The reported overhead is the median ratio; the *gated*
    overhead is the per-rotation **floor** (minimum).  A preemption
    landing in either half of a rotation moves that rotation's ratio in
    one direction only, so over TRACING_ROUNDS rotations the floor is a
    robust lower bound on the true multiplicative overhead: it cannot
    flake upward from noise, while any structural regression (per-packet
    work added to the armed-but-dormant path) raises every rotation's
    ratio, floor included.
    """
    from statistics import median

    from repro.trace import Tracer

    import gc

    count = len(templates)
    dev = node.devices["eth0"]
    out = node.devices["eth1"].tx_buffer
    tracer = Tracer(sample=0)
    traced_per_round = len(range(0, count, TRACE_SAMPLE_EVERY))
    ratios = {"disabled": [], "sampled": []}
    best = {"plain": float("inf"), "sampled": float("inf")}

    def timed_round(mode: str) -> float:
        # A single batch is only a few ms of work — too short for a
        # stable reading — so each timed region drives TRACING_REPS
        # pre-copied batches back to back, with the GC collected
        # *outside* the region and kept off while the clock runs.
        batches = [copy_batch(templates) for _ in range(TRACING_REPS)]
        node.tracer = tracer if mode != "plain" else None
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            if mode == "sampled":
                admit = tracer.admit
                for pkts in batches:
                    for i in range(0, count, TRACE_SAMPLE_EVERY):
                        admit(pkts[i], "S", 0)
                    node.receive_batch(pkts, dev)
            else:
                for pkts in batches:
                    node.receive_batch(pkts, dev)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        assert len(out) == count * TRACING_REPS, "packets were dropped"
        if mode == "sampled":
            traced = [p for p in out if p.tctx is not None]
            assert len(traced) == traced_per_round * TRACING_REPS
            assert all(len(p.tctx) >= 2 for p in traced)  # emit + pipeline spans
        out.clear()
        return elapsed

    for mode in ("plain", "disabled", "sampled"):  # warmup: cold caches
        timed_round(mode)
    for _ in range(TRACING_ROUNDS):
        plain = timed_round("plain")
        disabled = timed_round("disabled")
        sampled = timed_round("sampled")
        ratios["disabled"].append(disabled / plain)
        ratios["sampled"].append(sampled / plain)
        best["plain"] = min(best["plain"], plain)
        best["sampled"] = min(best["sampled"], sampled)
    node.tracer = None
    return {
        "disabled_overhead_pct": round((median(ratios["disabled"]) - 1) * 100, 2),
        "sampled_overhead_pct": round((median(ratios["sampled"]) - 1) * 100, 2),
        "disabled_overhead_floor_pct": round((min(ratios["disabled"]) - 1) * 100, 2),
        "sampled_overhead_floor_pct": round((min(ratios["sampled"]) - 1) * 100, 2),
        "sample_every": TRACE_SAMPLE_EVERY,
        "traced_per_round": traced_per_round,
        "plain_pps": round(count * TRACING_REPS / best["plain"], 1),
        "sampled_pps": round(count * TRACING_REPS / best["sampled"], 1),
    }


def measure_batch_telemetry(net, node, templates) -> tuple[float, float, object]:
    """(pps, overhead, session) of the batch path with a live 10 ms sampler.

    Runs plain and sampler-armed rounds *alternating*, so thermal drift,
    GC pauses and cache state hit both populations equally; the sampler
    fires inside the timed region whenever the simulated line-rate clock
    crosses a 10 ms boundary — the cadence ``net.telemetry()`` would
    deliver on a scheduler-driven run.  Totals (not best-of) are
    compared: overhead is the extra wall-clock fraction the sampled
    rounds paid over the plain ones.
    """
    count = len(templates)
    dev = node.devices["eth0"]
    out = node.devices["eth1"].tx_buffer
    session = net.telemetry(interval_ns=TELEMETRY_INTERVAL_NS)
    sim_batch_ns = int(count * 1e9 / LINE_RATE_PPS)
    sim_ns, due_ns = 0, TELEMETRY_INTERVAL_NS
    t_plain = t_sampled = 0.0
    for round_idx in range(2 * TELEMETRY_ROUNDS):
        sampled = round_idx % 2 == 1
        pkts = copy_batch(templates)
        start = time.perf_counter()
        node.receive_batch(pkts, dev)
        if sampled:
            sim_ns += sim_batch_ns
            if sim_ns >= due_ns:
                session.sample()
                due_ns += TELEMETRY_INTERVAL_NS
        elapsed = time.perf_counter() - start
        assert len(out) == count, "packets were dropped"
        out.clear()
        if sampled:
            t_sampled += elapsed
        else:
            t_plain += elapsed
    session.close(final_sample=False)
    pps = count * TELEMETRY_ROUNDS / t_sampled
    overhead = (t_sampled - t_plain) / t_plain
    return pps, overhead, session


@pytest.mark.parametrize("flows", FLOW_COUNTS)
def test_batch_scaling_point(flows):
    templates = make_templates(flows)

    # Partition-invariance gate: whole-batch entry must forward the exact
    # same bytes in the exact same order as per-packet entry before its
    # timing means anything.
    _, packet_node = make_end_bpf_router()
    batch_net, batch_node = make_end_bpf_router()
    for pkt in copy_batch(templates):
        packet_node.receive(pkt, packet_node.devices["eth0"])
    batch_node.receive_batch(copy_batch(templates), batch_node.devices["eth0"])
    packet_out = [bytes(p.data) for p in packet_node.devices["eth1"].tx_buffer]
    batch_out = [bytes(p.data) for p in batch_node.devices["eth1"].tx_buffer]
    assert packet_out == batch_out, f"batch path diverged at {flows} flows"
    packet_node.devices["eth1"].tx_buffer.clear()
    batch_node.devices["eth1"].tx_buffer.clear()

    before = _run_counters()
    RESULTS[(flows, "batch")] = measure_batch(batch_node, templates)
    after = _run_counters()
    if flows == TELEMETRY_FLOWS:
        # The same datapath with a live export stream attached: the
        # telemetry acceptance (overhead bounded) is asserted in the
        # report test.
        pps, overhead, session = measure_batch_telemetry(
            batch_net, batch_node, templates
        )
        RESULTS[(flows, "batch+telemetry")] = pps
        TELEMETRY_INFO.update(
            {
                "overhead_pct": round(overhead * 100, 2),
                "samples": session.samples,
                "lines": len(session.sink),
                "drops": {
                    "sink": session.sink.dropped,
                    "rings": 0,  # no perf maps installed on this router
                },
            }
        )
    if flows == TRACING_FLOWS:
        TRACING_INFO.update(measure_batch_tracing(batch_node, templates))
    # The batch rounds' counts, plus what the End.BPF program's translation
    # specialised (counted once, on the program).
    jitp = batch_node.main_table().lookup(pton(FUNC_SEGMENT)).encap.program._jit
    V2_COUNTERS[flows] = {
        **{key: after[key] - before[key] for key in after},
        "v2_region_loads": jitp.region_loads,
        "v2_region_stores": jitp.region_stores,
    }


def test_batch_scaling_report():
    if len(V2_COUNTERS) < len(FLOW_COUNTS):
        pytest.skip("batch scaling points did not run")
    anchor = RESULTS.get((1, "batch"))
    vs_1_flow = (
        {flows: RESULTS[(flows, "batch")] / anchor for flows in FLOW_COUNTS} if anchor else {}
    )
    print("\n=== Batch datapath scaling (packets/sec of wall-clock) ===")
    print(f"  {'flows':>7} {'batch kpps':>11} {'vs 1 flow':>10}")
    for flows in FLOW_COUNTS:
        ratio = f"{vs_1_flow[flows]:>9.2f}x" if anchor else f"{'-':>10}"
        print(f"  {flows:>7} {RESULTS[(flows, 'batch')] / 1e3:>11.1f} {ratio}")

    telemetry = None
    if (TELEMETRY_FLOWS, "batch+telemetry") in RESULTS:
        sampled = RESULTS[(TELEMETRY_FLOWS, "batch+telemetry")]
        telemetry = {"flows": TELEMETRY_FLOWS, "pps": round(sampled, 1), **TELEMETRY_INFO}
        print(
            f"  telemetry-enabled batch at {TELEMETRY_FLOWS} flows: "
            f"{sampled / 1e3:.1f} kpps (overhead {telemetry['overhead_pct']}%, "
            f"{telemetry['samples']} samples exported)"
        )

    tracing = dict(TRACING_INFO) if TRACING_INFO else None
    if tracing is not None:
        print(
            f"  tracing at {TRACING_FLOWS} flows: dormant "
            f"{tracing['disabled_overhead_pct']:+.2f}%, 1-in-{TRACE_SAMPLE_EVERY} "
            f"sampled {tracing['sampled_overhead_pct']:+.2f}% "
            f"({tracing['sampled_pps'] / 1e3:.1f} kpps)"
        )

    out = {
        "burst_scaling": {
            "pps": {
                f"{flows}/{mode}": round(pps, 1)
                for (flows, mode), pps in sorted(RESULTS.items())
            },
            "vs_1_flow": {str(flows): round(r, 3) for flows, r in vs_1_flow.items()},
            "v2_counters": {str(f): c for f, c in sorted(V2_COUNTERS.items())},
            "telemetry": telemetry,
            "tracing": tracing,
        }
    }
    out_path = os.environ.get("REPRO_BENCH_JSON", "BENCH_burst_scaling.json")
    with open(out_path, "w") as fh:
        json.dump(out, fh, indent=2)
    print(f"  written to {out_path}")

    # Acceptance: throughput does not collapse as flows outgrow the
    # per-flow state — neither at 10k flows (everything still cached)
    # nor past the flow table's capacity (the miss/insert/evict path).
    for flows, floor in MIN_PPS_VS_1_FLOW.items():
        if flows in vs_1_flow:
            assert vs_1_flow[flows] >= floor, (
                f"batch pps at {flows} flows is {vs_1_flow[flows]:.2f}x the "
                f"1-flow figure (floor {floor}x)"
            )

    # Telemetry acceptance: a live 10 ms export stream sheds under
    # MAX_TELEMETRY_OVERHEAD of the plain batch throughput.
    if telemetry is not None:
        assert telemetry["overhead_pct"] < MAX_TELEMETRY_OVERHEAD * 100, (
            f"telemetry sampler costs {telemetry['overhead_pct']}% of batch "
            f"throughput (budget {MAX_TELEMETRY_OVERHEAD * 100:.0f}%)"
        )

    # Tracing acceptance: an armed-but-dormant tracer is free (the hot
    # paths pay one slot load + is-None check, shared with the untraced
    # build), and head-sampling 1-in-64 packets stays within budget.
    # The gate reads the per-rotation ratio *floor* — a lower bound on
    # the true overhead that host-load noise can only push down, never
    # up, so the tight budgets hold without flaking on shared hosts
    # (see measure_batch_tracing; the printed median is the estimate).
    if tracing is not None:
        assert tracing["disabled_overhead_floor_pct"] < MAX_TRACING_DISABLED_OVERHEAD * 100, (
            f"dormant tracing costs {tracing['disabled_overhead_floor_pct']}% "
            f"even in the quietest rotation "
            f"(budget {MAX_TRACING_DISABLED_OVERHEAD * 100:.1f}%)"
        )
        assert tracing["sampled_overhead_floor_pct"] < MAX_TRACING_SAMPLED_OVERHEAD * 100, (
            f"1-in-{TRACE_SAMPLE_EVERY} traced sampling costs "
            f"{tracing['sampled_overhead_floor_pct']}% even in the quietest "
            f"rotation (budget {MAX_TRACING_SAMPLED_OVERHEAD * 100:.0f}%)"
        )
