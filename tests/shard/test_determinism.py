"""The sharding determinism gate: shards=1,2,4 must agree byte for byte.

Each scenario is built identically, run unsharded and sharded, and
compared on every observable surface: delivered packets and their
sampled delays, the full metrics snapshot, per-node counters, link
stats, control-bus totals, and the canonical telemetry export.  The
telemetry comparison canonicalises the unsharded stream through the
same merge code path (a single-stream merge is the identity on values;
it only re-sorts same-tick records into the canonical ``(t, line)``
order) and then requires equality with the sharded session's sink,
line for line.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.lab import Network
from repro.lab.setups import SETUP2_IGP_COSTS, Setup2Topo
from repro.shard import ShardingError
from repro.shard.merge import classify_samples, merge_telemetry
from repro.sim.scheduler import NS_PER_MS
from repro.telemetry.sink import RingSink


def build_square(seed: int = 7) -> Network:
    """The FRR square with a mid-run failure and recovery."""
    net = Network(seed=seed)
    for name in ("A", "B", "C", "D"):
        net.add_node(name, addr=f"fc00:{name.lower()}::1")
    net.add_link("A", "B", rate_bps=1e9, delay_ns=2_000_000)
    net.add_link("B", "D", rate_bps=1e9, delay_ns=2_000_000)
    net.add_link("A", "C", rate_bps=1e9, delay_ns=2_000_000)
    net.add_link("C", "D", rate_bps=1e9, delay_ns=2_000_000)
    net.ctrl(
        frr=True,
        hello_interval_ns=10 * NS_PER_MS,
        costs={("A", "eth0"): 5, ("B", "eth0"): 5, ("B", "eth1"): 5, ("D", "eth0"): 5},
    )
    flow = net.trafgen("A", dst="fc00:d::1", rate_bps=20e6, payload_size=400)
    net.sink("D")
    flow.start(at_ns=0)
    net.fail_link("A", "B", at_ns=60 * NS_PER_MS)
    net.recover_link("A", "B", at_ns=140 * NS_PER_MS)
    net.telemetry(interval_ms=25, sink=RingSink(capacity=None))
    return net


def build_square_traced(seed: int = 7) -> Network:
    """The FRR square with causal tracing armed on every flow.

    Flow ids are per network, so the trace streams of separately built
    reference/candidate networks are comparable byte for byte.
    """
    net = Network(seed=seed)
    for name in ("A", "B", "C", "D"):
        net.add_node(name, addr=f"fc00:{name.lower()}::1")
    net.add_link("A", "B", rate_bps=1e9, delay_ns=2_000_000)
    net.add_link("B", "D", rate_bps=1e9, delay_ns=2_000_000)
    net.add_link("A", "C", rate_bps=1e9, delay_ns=2_000_000)
    net.add_link("C", "D", rate_bps=1e9, delay_ns=2_000_000)
    net.ctrl(
        frr=True,
        hello_interval_ns=10 * NS_PER_MS,
        costs={("A", "eth0"): 5, ("B", "eth0"): 5, ("B", "eth1"): 5, ("D", "eth0"): 5},
    )
    net.trace(sample=1)
    flow = net.trafgen("A", dst="fc00:d::1", rate_bps=20e6, payload_size=400)
    net.sink("D")
    flow.start(at_ns=0)
    net.fail_link("A", "B", at_ns=60 * NS_PER_MS)
    net.recover_link("A", "B", at_ns=140 * NS_PER_MS)
    net.telemetry(interval_ms=25, sink=RingSink(capacity=None))
    return net


def build_setup2(seed: int = 11) -> Network:
    """The paper's hybrid-access testbed with shaped (jittered) links."""
    net = Setup2Topo(seed=seed).net
    net.ctrl(hello_interval_ns=10 * NS_PER_MS, costs=SETUP2_IGP_COSTS)
    flow = net.trafgen("S1", dst="fc00:2::2", rate_bps=10e6, payload_size=600)
    net.sink("S2")
    flow.start(at_ns=0)
    net.telemetry(interval_ms=20, sink=RingSink(capacity=None))
    return net


SQUARE_UNTIL = 200 * NS_PER_MS
SETUP2_UNTIL = 60 * NS_PER_MS


def observe(net: Network, canonical: bool) -> dict:
    """Every surface the determinism contract covers, as comparables."""
    session = net._telemetry
    session.close()
    lines = session.sink.lines()
    if canonical:
        lines = merge_telemetry(
            [lines],
            baseline={},
            kinds=classify_samples(net.metrics.collect()),
            owner=lambda _name: 0,
        )
    return {
        "metrics": net.metrics.as_dict(),
        "telemetry": lines,
        "nodes": {name: asdict(node.counters) for name, node in net.nodes.items()},
        "links": [
            (asdict(link.a_to_b.stats), asdict(link.b_to_a.stats))
            for link in net.links
        ],
        "meters": [
            (m.packets, m.payload_bytes, m.first_ns, m.last_ns, m.out_of_order,
             m.delay_count, m.delay_sum_ns, tuple(m.delays_ns))
            for m in net.meters
        ],
        "flows": [(f.stats.sent, f.stats.bytes_sent) for f in net.flows],
        "bus": dict(net._ctrl.bus.counts) if net._ctrl is not None else {},
    }


def run_scenario(build, until_ns: int, shards: int) -> dict:
    net = build()
    result = net.run(until_ns=until_ns, shards=shards)
    observed = observe(net, canonical=(shards == 1))
    observed["now_ns"] = net.scheduler.now_ns
    if shards > 1:
        assert result.shards == shards
        assert result.rounds > 0
        assert sorted(result.assignment) == sorted(net.nodes)
    return observed


def assert_identical(reference: dict, candidate: dict) -> None:
    assert candidate["now_ns"] == reference["now_ns"]
    assert candidate["nodes"] == reference["nodes"]
    assert candidate["links"] == reference["links"]
    assert candidate["meters"] == reference["meters"]
    assert candidate["flows"] == reference["flows"]
    assert candidate["bus"] == reference["bus"]
    assert candidate["metrics"] == reference["metrics"]
    assert candidate["telemetry"] == reference["telemetry"]


@pytest.mark.parametrize("shards", [2, 4])
def test_square_with_failure_is_byte_identical(shards):
    reference = run_scenario(build_square, SQUARE_UNTIL, 1)
    assert reference["meters"][0][0] > 0, "scenario must deliver traffic"
    candidate = run_scenario(build_square, SQUARE_UNTIL, shards)
    assert_identical(reference, candidate)


@pytest.mark.parametrize("shards", [2, 4])
def test_setup2_is_byte_identical(shards):
    reference = run_scenario(build_setup2, SETUP2_UNTIL, 1)
    assert reference["meters"][0][0] > 0, "scenario must deliver traffic"
    candidate = run_scenario(build_setup2, SETUP2_UNTIL, shards)
    assert_identical(reference, candidate)


def run_traced(shards: int) -> dict:
    net = build_square_traced()
    net.run(until_ns=SQUARE_UNTIL, shards=shards)
    observed = observe(net, canonical=(shards == 1))
    observed["now_ns"] = net.scheduler.now_ns
    tracer = net._tracer
    observed["trace"] = tracer.jsonl_lines()
    observed["trace_chrome"] = tracer.chrome_trace()
    observed["trace_started"] = tracer.started
    observed["exemplars"] = [tuple(m.delay_exemplars) for m in net.meters]
    for rec in tracer.records:
        assert sum(rec["attribution"].values()) == rec["delay_ns"]
    return observed


@pytest.mark.parametrize("shards", [2, 4])
def test_traced_square_trace_stream_is_byte_identical(shards):
    """The tentpole gate: the canonical trace export (and everything
    else) survives sharding byte for byte, through a mid-run failure
    with FRR and a recovery."""
    reference = run_traced(1)
    assert len(reference["trace"]) > 100, "scenario must deliver traced traffic"
    assert any("events" in line for line in reference["trace"]), (
        "some trace must span a control-plane event"
    )
    assert any(x is not None for x in reference["exemplars"][0])
    candidate = run_traced(shards)
    assert_identical(reference, candidate)
    assert candidate["trace"] == reference["trace"]
    assert candidate["trace_chrome"] == reference["trace_chrome"]
    assert candidate["trace_started"] == reference["trace_started"]
    assert candidate["exemplars"] == reference["exemplars"]


def test_sharded_run_is_terminal_and_validated():
    net = build_square()
    with pytest.raises(ShardingError, match="until_ns"):
        net.run(shards=2)
    with pytest.raises(ShardingError, match="max_events"):
        net.run(until_ns=SQUARE_UNTIL, max_events=10, shards=2)
    net.run(until_ns=SQUARE_UNTIL, shards=2)
    with pytest.raises(RuntimeError, match="fresh Network"):
        net.run(until_ns=2 * SQUARE_UNTIL)


def test_sharded_run_requires_fresh_network():
    net = build_square()
    net.run(until_ns=10 * NS_PER_MS)
    with pytest.raises(ShardingError, match="fresh"):
        net.run(until_ns=SQUARE_UNTIL, shards=2)
