"""Shard scaling — delivered throughput capacity vs. worker count.

Not a paper figure: this bench qualifies the conservative parallel
engine (``net.run(shards=K)``) on a parameterised multi-region
topology — ``REGIONS`` chains of ``REGION_SIZE`` nodes joined by
high-delay inter-region trunks, one local flow per region plus light
cross-region traffic so every round really exchanges handoffs.

The container this bench grew up in has **one** CPU, so wall-clock
cannot show a parallel win; what sharding buys there is *capacity*:

    pps_capacity = total delivered packets / max(per-shard busy seconds)

``busy_s`` is each worker's wall clock spent injecting handoffs,
executing its grant and packing its outbox (``ShardRunResult.busy_s``);
the max over shards is the critical-path time an adequately provisioned
host would take, so the capacity ratio against shards=1 is the speed-up
the partition actually exposes (perfect balance on R regions ≈ R, minus
handoff/round overhead).  Wall-clock per run is recorded alongside so a
multi-core host can read the real-time ratio from the same artifact.

Before any timing counts, the delivered-packet totals and per-meter
delay lists of every shard count are byte-compared — a run that breaks
the determinism contract has no throughput worth reporting (the full
gate lives in ``tests/shard/test_determinism.py``).

Acceptance (capacity ratio over shards=1): ≥ 1.7x at 2 shards and
≥ 3x at 4 — override with ``REPRO_SHARD_MIN_SPEEDUP_2`` / ``_4`` (CI
smoke lowers the 2-shard floor to absorb shared-runner noise).  Set
``REPRO_SHARD_COUNTS`` (e.g. ``1,2``) to shrink the sweep.  Results —
capacity, wall clock, per-shard busy seconds, rounds, and the
per-event memory note of a heap entry — are written to
``BENCH_shard_scaling.json`` (override with ``REPRO_BENCH_JSON``).
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

from repro.lab import Network
from repro.sim.scheduler import NS_PER_MS

_ENV_COUNTS = tuple(
    int(c)
    for c in os.environ.get("REPRO_SHARD_COUNTS", "").replace(" ", "").split(",")
    if c
)
SHARD_COUNTS = _ENV_COUNTS or (1, 2, 4)
MIN_SPEEDUP = {
    2: float(os.environ.get("REPRO_SHARD_MIN_SPEEDUP_2", "1.7")),
    4: float(os.environ.get("REPRO_SHARD_MIN_SPEEDUP_4", "3.0")),
}

REGIONS = 4
REGION_SIZE = 4
INTRA_DELAY_NS = 50_000  # cheap links: contracted inside shards
TRUNK_DELAY_NS = 5 * NS_PER_MS  # expensive links: the cut, 5 ms lookahead
UNTIL_NS = int(os.environ.get("REPRO_SHARD_UNTIL_MS", "1000")) * NS_PER_MS
ROUNDS = int(os.environ.get("REPRO_SHARD_ROUNDS", "2"))  # best-of timing rounds
LOCAL_RATE_BPS = 40e6
CROSS_RATE_BPS = 2e6

RESULTS: dict[int, dict] = {}  # shards -> measured point
OBSERVED: dict[int, tuple] = {}  # shards -> (delivered totals, delay lists)


def node_name(region: int, i: int) -> str:
    return f"R{region}N{i}"


def node_addr(region: int, i: int) -> str:
    return f"fc00:{region + 1}:{i + 1}::1"


def make_regions(seed: int = 3) -> Network:
    """``REGIONS`` chained regions with local sinks and cross trunks."""
    net = Network(seed=seed)
    for region in range(REGIONS):
        for i in range(REGION_SIZE):
            net.add_node(node_name(region, i), addr=node_addr(region, i))
        for i in range(REGION_SIZE - 1):
            net.add_link(
                node_name(region, i),
                node_name(region, i + 1),
                rate_bps=1e9,
                delay_ns=INTRA_DELAY_NS,
            )
    for region in range(REGIONS - 1):
        net.add_link(
            node_name(region, 0),
            node_name(region + 1, 0),
            rate_bps=1e9,
            delay_ns=TRUNK_DELAY_NS,
        )
    net.ctrl(hello_interval_ns=10 * NS_PER_MS)
    last = REGION_SIZE - 1
    for region in range(REGIONS):
        net.sink(node_name(region, last))
        local = net.trafgen(
            node_name(region, 1),
            dst=node_addr(region, last),
            rate_bps=LOCAL_RATE_BPS,
            payload_size=600,
        )
        local.start(at_ns=0)
        cross = net.trafgen(
            node_name(region, 2),
            dst=node_addr((region + 1) % REGIONS, last),
            rate_bps=CROSS_RATE_BPS,
            payload_size=600,
        )
        cross.start(at_ns=0)
    return net


def run_once(shards: int) -> dict:
    net = make_regions()
    start = time.perf_counter()
    cpu_start = time.process_time()
    result = net.run(until_ns=UNTIL_NS, shards=shards)
    cpu_s = time.process_time() - cpu_start
    wall_s = time.perf_counter() - start
    # busy_s is CPU time (the workers measure process_time): on the
    # one-CPU host this bench grew up in, sibling shards timeshare, so
    # wall time per worker would count preemption as work.
    busy_s = list(result.busy_s) if shards > 1 else [cpu_s]
    delivered = sum(meter.packets for meter in net.meters)
    observed = (
        tuple(meter.packets for meter in net.meters),
        tuple(tuple(meter.delays_ns) for meter in net.meters),
    )
    return {
        "delivered": delivered,
        "events": int(result),
        "wall_s": round(wall_s, 4),
        "busy_s": [round(b, 4) for b in busy_s],
        "rounds": result.rounds if shards > 1 else 0,
        "pps_capacity": round(delivered / max(busy_s), 1),
        "_observed": observed,
    }


def run_point(shards: int) -> dict:
    """Best-of-``ROUNDS`` capacity; every round must observe identical
    deliveries (sharding is deterministic, so timing rounds are free
    re-checks of the contract)."""
    best = None
    for _ in range(ROUNDS):
        point = run_once(shards)
        if best is None:
            best = point
        else:
            assert point["_observed"] == best["_observed"], (
                f"shards={shards} rounds disagreed with each other"
            )
            if point["pps_capacity"] > best["pps_capacity"]:
                best = point
    OBSERVED[shards] = best.pop("_observed")
    return best


def event_memory_note() -> dict:
    """Bytes per queued event: the heap entry that is its own handle (a
    plain list), against the slotted handle plus key tuple it replaced,
    measured here."""

    class SlottedEvent:  # the nine-field handle, queued in a 5-tuple
        __slots__ = (
            "time_ns", "stream", "phase", "seq", "callback", "args", "cancelled", "daemon", "owner",
        )

    entry = Network().scheduler.schedule_at(0, print)
    entry_bytes = sys.getsizeof(entry) + sys.getsizeof(entry[4])
    replaced_bytes = sys.getsizeof(SlottedEvent()) + sys.getsizeof((0, 0, 0, 0, None))
    return {
        "entry_bytes": entry_bytes,
        "replaced_bytes": replaced_bytes,
        "saving_pct": round(100 * (1 - entry_bytes / replaced_bytes), 1),
    }


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_shard_scaling_point(shards):
    RESULTS[shards] = run_point(shards)
    assert RESULTS[shards]["delivered"] > 0, "scenario must deliver traffic"


def test_shard_scaling_report():
    if len(RESULTS) < len(SHARD_COUNTS):
        pytest.skip("shard scaling points did not run")

    # Determinism cross-check: every shard count saw the same deliveries.
    if 1 in OBSERVED:
        for shards, observed in sorted(OBSERVED.items()):
            assert observed == OBSERVED[1], (
                f"shards={shards} diverged from the unsharded run"
            )

    print("\n=== Shard scaling (capacity = delivered / max shard-busy) ===")
    print(f"  {'shards':>6} {'delivered':>9} {'wall s':>8} {'max busy s':>10} "
          f"{'kpps cap':>9} {'speed-up':>9}")
    base = RESULTS.get(1)
    speedup: dict[str, float] = {}
    for shards in sorted(RESULTS):
        point = RESULTS[shards]
        ratio = point["pps_capacity"] / base["pps_capacity"] if base else float("nan")
        if base and shards > 1:
            speedup[str(shards)] = round(ratio, 2)
        print(
            f"  {shards:>6} {point['delivered']:>9} {point['wall_s']:>8.3f} "
            f"{max(point['busy_s']):>10.3f} {point['pps_capacity'] / 1e3:>9.1f} "
            f"{ratio:>8.2f}x"
        )

    memory = event_memory_note()
    print(
        f"  heap entry: {memory['entry_bytes']} B/event vs "
        f"{memory['replaced_bytes']} B as a slotted handle in a key tuple "
        f"({memory['saving_pct']}% saved)"
    )

    out = {
        "shard_scaling": {
            "topology": {
                "regions": REGIONS,
                "region_size": REGION_SIZE,
                "trunk_delay_ms": TRUNK_DELAY_NS // NS_PER_MS,
                "until_ms": UNTIL_NS // NS_PER_MS,
            },
            "points": {str(s): RESULTS[s] for s in sorted(RESULTS)},
            "speedup_capacity": speedup,
            "event_memory": memory,
        }
    }
    out_path = os.environ.get("REPRO_BENCH_JSON", "BENCH_shard_scaling.json")
    with open(out_path, "w") as fh:
        json.dump(out, fh, indent=2)
    print(f"  written to {out_path}")

    # Acceptance: the partition must expose real parallel capacity.
    for shards, floor in MIN_SPEEDUP.items():
        if str(shards) in speedup:
            assert speedup[str(shards)] >= floor, (
                f"capacity speed-up at {shards} shards is only "
                f"{speedup[str(shards)]}x (floor {floor}x)"
            )
