"""The labelled metrics registry: one read path for every counter.

The paper's own use cases are observability functions — End.DM pushes
timestamp pairs over perf rings (§4.1), End.OAMP answers live FIB
queries (§4.3) — and the simulation grew matching counters organically:
:class:`~repro.net.node.NodeCounters`, per-device ``DevStats``,
per-direction ``LinkStats``, ``CpuStats``, the JIT handler-cache stats,
the control bus log.  This module makes one :class:`MetricsRegistry`
the *single source* for reading all of them.

Metrics arrive through *collectors* (:meth:`MetricsRegistry.register`):
a callable returning :class:`Sample` tuples, invoked at
:meth:`~MetricsRegistry.collect` time.  The datapath keeps its
plain-attribute increments (the hot path pays nothing for
observability) and the collector snapshots them on demand — the pull
model Prometheus client libraries use.  :meth:`~MetricsRegistry.merge`
folds in another registry's snapshot; it is how a sharded run's
registries are assembled.

Labels follow the issue's ``(node, device, sid, hook)`` axes; a sample
renders as ``name{key=value,...}`` with keys sorted, so a collected
snapshot is deterministically ordered and byte-stable across runs.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple


class Sample(NamedTuple):
    """One collected measurement: a metric name, its labels, a value."""

    name: str
    labels: tuple  # sorted ((key, value), ...) pairs
    value: "int | float"
    kind: str = "counter"  # counter | gauge

    def render(self) -> str:
        """``name{key=value,...}`` (or the bare name when unlabelled)."""
        if not self.labels:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.name}{{{inner}}}"


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Registered collectors plus merged samples, snapshotted on demand.

    ``collect()`` is the one read path: it walks the merged samples and
    every registered collector, and returns samples sorted by
    ``(name, labels)`` — a deterministic ordering that the telemetry
    export stream and the determinism tests rely on.
    """

    def __init__(self):
        self._collectors: list[Callable[[], Iterable[Sample]]] = []
        # Static samples folded in by merge(): (name, labels) -> Sample.
        self._static: dict[tuple, Sample] = {}

    # -- merging -------------------------------------------------------------
    def merge(self, other, extra_labels: dict | None = None) -> "MetricsRegistry":
        """Fold another registry's snapshot (or an iterable of samples) in.

        Each incoming sample lands as a *static* sample under its
        ``(name, labels + extra_labels)`` key: counters **sum** with an
        existing value at the same key, gauges **overwrite**.  The shard
        coordinator uses this to build the post-run registries — one
        per-shard view labelled with
        ``extra_labels={"shard": k}``, and the aggregate view from the
        ownership-merged sample set — so ``collect()``/``value()``/
        ``query()`` (and ``repro.cli counters``) read a merged run
        exactly like a live one.  Returns ``self`` for chaining.
        """
        samples = other.collect() if hasattr(other, "collect") else other
        extra = _label_key(extra_labels or {})
        for sample in samples:
            labels = tuple(sorted(sample.labels + extra)) if extra else sample.labels
            key = (sample.name, labels)
            existing = self._static.get(key)
            if existing is not None and sample.kind != "gauge":
                value = existing.value + sample.value
            else:
                value = sample.value
            self._static[key] = Sample(sample.name, labels, value, sample.kind)
        return self

    # -- collectors ---------------------------------------------------------
    def register(self, collector: Callable[[], Iterable[Sample]]) -> None:
        """Adopt a collector: called at every collect() for its samples.

        Collectors enumerate their world dynamically (a network collector
        walks ``net.nodes`` at call time), so components added after
        registration are picked up without re-registration.
        """
        self._collectors.append(collector)

    # -- reading -------------------------------------------------------------
    def collect(self) -> list[Sample]:
        """Every sample, sorted by (name, labels) — the one read path."""
        out: list[Sample] = list(self._static.values())
        for collector in self._collectors:
            out.extend(collector())
        out.sort(key=lambda s: (s.name, s.labels))
        return out

    def as_dict(self) -> dict:
        """The snapshot as ``{rendered_name: value}`` (insertion = sorted)."""
        return {sample.render(): sample.value for sample in self.collect()}

    def value(self, name: str, default=None, **labels):
        """The current value of one metric (None/default when absent)."""
        want = _label_key(labels)
        for sample in self.collect():
            if sample.name == name and sample.labels == want:
                return sample.value
        return default

    def query(self, *needles: str) -> dict:
        """Samples whose rendered name contains every given substring."""
        out = {}
        for sample in self.collect():
            rendered = sample.render()
            if all(needle in rendered for needle in needles):
                out[rendered] = sample.value
        return out
