"""Merging per-shard results back into one network-wide view.

Every worker runs a *complete replica* of the network (fork semantics)
but only drives its own nodes, so each counter accrues in exactly one
worker and the merge is mostly arithmetic over the workers' final
snapshots.  The rules, applied per ``(name, labels)`` sample key:

* **counters / histograms** — fork-baseline plus the sum of every
  worker's delta.  Non-owning replicas never move a counter, so this
  reconstructs exactly the unsharded value (cross-shard link directions
  compose naturally: the sender shard accrues ``link_sent``, the
  receiver shard ``link_delivered``, each shard its own drops);
* **node-labelled gauges** (``link_up``, ``*_queue_depth``,
  ``flow_table_entries``, ``igp_*``) — taken from the worker owning the
  labelled node.  Gauges snapshot object state, and replicated scripted
  events (a ``fail_link`` runs in every worker) move the same gauge in
  every replica — summing deltas would double-count them;
* **unlabelled gauges** (``perf_depth``) — delta-summed like counters;
  their writers are disjoint per shard.

The telemetry merge applies the same per-key rules to every periodic
``sample`` record (tick by tick, using the same fork baseline), unions
the per-tick ``event``/``perf`` records sorted by ``(t, line)``, and
re-emits them as JSONL.  An unsharded sampler emits each tick's records
in that same ``(t, line)`` order, so the merged export is the unsharded
run's, line for line.
"""

from __future__ import annotations

import json

from ..telemetry.metrics import Sample
from ..telemetry.sink import encode

SampleTuple = "tuple[str, tuple, int | float, str]"  # (name, labels, value, kind)


def merge_samples(baseline, worker_samples, owner) -> list[Sample]:
    """Merge workers' final registry snapshots into one sample list.

    ``baseline`` is the parent's pre-fork snapshot (sample tuples),
    ``worker_samples`` one snapshot per worker, ``owner`` maps a node
    name to the index of the worker driving it.
    """
    base = {(name, labels): value for name, labels, value, _ in baseline}
    tables: list[dict] = []
    kinds: dict[tuple, str] = {}
    for samples in worker_samples:
        table = {}
        for name, labels, value, kind in samples:
            key = (name, labels)
            table[key] = value
            kinds[key] = kind
        tables.append(table)
    merged = []
    for key in sorted(kinds):
        value = _merge_value(key, kinds[key], base.get(key, 0), tables, owner)
        merged.append(Sample(key[0], key[1], value, kinds[key]))
    return merged


def _merge_value(key, kind, base, tables, owner):
    if kind == "gauge":
        node = dict(key[1]).get("node")
        if node is not None:
            shard = owner(node)
            if shard is not None:
                return tables[shard].get(key, base)
    return base + sum(table.get(key, base) - base for table in tables)


def classify_samples(samples) -> dict:
    """``rendered_key -> (kind, node_label)`` for the telemetry merge."""
    out = {}
    for name, labels, value, kind in samples:
        rendered = Sample(name, labels, value, kind).render()
        out[rendered] = (kind, dict(labels).get("node"))
    return out


def merge_telemetry(streams, *, baseline, kinds, owner) -> list[str]:
    """Merge per-worker telemetry JSONL streams into one stream.

    ``streams`` is one list of JSONL lines per worker; ``baseline`` the
    parent's pre-fork ``as_dict()`` snapshot; ``kinds`` a
    :func:`classify_samples` map; ``owner`` as in :func:`merge_samples`.
    Workers tick in lockstep (the sampler rides each shard's scheduler
    with the same interval), so tick ``k``'s records merge across
    workers and its ``sample`` snapshots merge field by field.
    """
    ticks = [_split_ticks(lines) for lines in streams]
    tick_counts = {len(t) for t in ticks}
    if len(tick_counts) > 1:
        raise ValueError(
            f"worker telemetry streams disagree on tick count: {sorted(tick_counts)}"
        )
    out: list[str] = []
    for k in range(tick_counts.pop() if tick_counts else 0):
        groups = [t[k] for t in ticks]
        records: list[tuple[int, str]] = []
        for tick_records, _ in groups:
            records.extend(tick_records)
        records.sort()
        out.extend(line for _, line in records)
        out.append(_merge_tick_samples([s for _, s in groups], baseline, kinds, owner))
    return out


def _split_ticks(lines):
    """Group a stream into (records, sample) pairs, one per sampler tick."""
    ticks = []
    records: list[tuple[int, str]] = []
    for line in lines:
        record = json.loads(line)
        if record.get("type") == "sample":
            ticks.append((records, record))
            records = []
        else:
            records.append((record.get("t", 0), line))
    if records:
        raise ValueError("telemetry stream ends with records after the last sample")
    return ticks


def _merge_tick_samples(samples, baseline, kinds, owner) -> str:
    heads = {(s.get("t"), s.get("seq")) for s in samples}
    if len(heads) > 1:
        raise ValueError(f"worker sample records disagree: {sorted(heads)}")
    keys: set[str] = set()
    for sample in samples:
        keys.update(sample["metrics"])
    metrics = {}
    for key in keys:
        kind, node = kinds.get(key, ("counter", None))
        tables = [sample["metrics"] for sample in samples]
        base = baseline.get(key, 0)
        if kind == "gauge" and node is not None:
            shard = owner(node)
            value = tables[shard].get(key, base) if shard is not None else base
        else:
            value = base + sum(table.get(key, base) - base for table in tables)
        metrics[key] = value
    merged = {
        "type": "sample",
        "t": samples[0].get("t"),
        "seq": samples[0].get("seq"),
        "metrics": dict(sorted(metrics.items())),
        "drops": {
            "sink": sum(s.get("drops", {}).get("sink", 0) for s in samples),
            "rings": sum(s.get("drops", {}).get("rings", 0) for s in samples),
        },
    }
    return encode(merged)


def merge_trace_records(per_shard_records) -> list:
    """Stitch per-shard trace records into the canonical export order.

    Every trace finalises on exactly one worker (the shard owning the
    delivering node), so the merge is a concatenation re-sorted by the
    same ``(t1, flow, seq)`` key :meth:`repro.trace.Tracer.sorted_records`
    uses — the merged stream is byte-identical to an in-process run's.
    """
    records = [rec for records in per_shard_records for rec in (records or [])]
    records.sort(key=lambda r: (r["t1"], r["flow"], r["seq"]))
    return records
