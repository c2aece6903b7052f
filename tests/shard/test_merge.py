"""Registry merge semantics and the merged post-run read path.

The coordinator reassembles the parent's metrics from per-shard
snapshots with :meth:`MetricsRegistry.merge` (static fold-in) and
:func:`repro.shard.merge.merge_samples` (ownership rules).  These tests
pin the algebra — counters sum, gauges follow their owner, per-shard
views get a ``shard`` label — and prove the merged registry serves the
normal read paths (``collect``/``value``/``repro.cli counters``)
exactly like a live one.
"""

from __future__ import annotations

import io

from repro.cli import NetCli
from repro.shard.merge import merge_samples
from repro.sim.scheduler import NS_PER_MS
from repro.telemetry.metrics import MetricsRegistry, Sample

from test_determinism import SQUARE_UNTIL, build_square


def _registry(counts: dict[str, int]):
    """A registry whose one collector reports ``counts``, one node each."""
    samples = [Sample(name, (("node", name[-1].upper()),), value) for name, value in counts.items()]
    reg = MetricsRegistry()
    reg.register(lambda: samples)
    return reg


def test_merge_sums_counters_across_registries():
    """Two worker registries merged equal the unsharded whole."""
    whole = _registry({"pkts_a": 5, "pkts_b": 7})
    worker0 = _registry({"pkts_a": 5, "pkts_b": 0})
    worker1 = _registry({"pkts_a": 0, "pkts_b": 7})
    merged = MetricsRegistry().merge(worker0).merge(worker1)
    assert merged.as_dict() == whole.as_dict()
    assert merged.value("pkts_a", node="A") == 5


def test_merge_gauge_overwrites_instead_of_summing():
    merged = MetricsRegistry()
    merged.merge([Sample("depth", (("node", "A"),), 3, "gauge")])
    merged.merge([Sample("depth", (("node", "A"),), 9, "gauge")])
    assert merged.value("depth", node="A") == 9


def test_merge_extra_labels_builds_per_shard_view():
    view = MetricsRegistry()
    for shard, reg in enumerate(
        (_registry({"pkts_a": 5}), _registry({"pkts_a": 11}))
    ):
        view.merge(reg, extra_labels={"shard": shard})
    assert view.value("pkts_a", node="A", shard=0) == 5
    assert view.value("pkts_a", node="A", shard=1) == 11
    # No unlabelled aggregate leaks into the per-shard view.
    assert view.value("pkts_a", node="A") is None


def test_merge_samples_ownership_rules():
    """Counters sum deltas over baseline; node gauges follow the owner."""
    baseline = [
        Sample("boot_pkts", (("node", "A"),), 2, "counter"),
        Sample("queue_depth", (("node", "A"),), 0, "gauge"),
        Sample("queue_depth", (("node", "B"),), 0, "gauge"),
    ]
    workers = [
        [  # shard 0 owns A: real A values, stale replica of B
            Sample("boot_pkts", (("node", "A"),), 10, "counter"),
            Sample("queue_depth", (("node", "A"),), 4, "gauge"),
            Sample("queue_depth", (("node", "B"),), 99, "gauge"),
        ],
        [  # shard 1 owns B
            Sample("boot_pkts", (("node", "A"),), 2, "counter"),
            Sample("queue_depth", (("node", "A"),), 77, "gauge"),
            Sample("queue_depth", (("node", "B"),), 6, "gauge"),
        ],
    ]
    owner = {"A": 0, "B": 1}.get
    merged = {s.render(): s.value for s in merge_samples(baseline, workers, owner)}
    assert merged["boot_pkts{node=A}"] == 10  # 2 + (10-2) + (2-2)
    assert merged["queue_depth{node=A}"] == 4  # owner shard 0, not 77
    assert merged["queue_depth{node=B}"] == 6  # owner shard 1, not 99


def test_sharded_run_registry_equals_unsharded_and_serves_cli():
    """End to end: the merged post-run registry is the unsharded one."""
    reference = build_square()
    reference.run(until_ns=SQUARE_UNTIL)
    net = build_square()
    net.run(until_ns=SQUARE_UNTIL, shards=2)
    assert net.metrics.as_dict() == reference.metrics.as_dict()

    # The per-shard view carries the shard label; deliveries happen only
    # at run time (zero pre-fork baseline), so the labelled values sum
    # to the whole and the non-owner replicas contribute nothing.
    delivered = reference.metrics.value("node_delivered_local", node="D")
    by_shard = net.shard_metrics.query("node_delivered_local", "node=D")
    assert all("shard=" in key for key in by_shard)
    assert delivered == sum(by_shard.values()) > 0

    # `repro.cli counters` reads the merged registry like a live run.
    out = io.StringIO()
    NetCli(net, out=out).script(["counters D"])
    text = out.getvalue()
    assert f"{'node_delivered_local{node=D}':<60} {delivered}" in text
