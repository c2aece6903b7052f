"""Shared plumbing of the perf ledger: spans, sample statistics, the
simulated-statistics digest, the environment block and the GC guard.

Everything here measures from *outside* the system under test: a span
wraps one call from a benchmark file into a public function of a layer;
nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parents[2]


# --- spans ---------------------------------------------------------------------


class Spans:
    """In-memory span log: ``(name, start_ns, end_ns, parent, workload)``.

    ``timed`` is the one way the ledger times a call: it always returns
    the call's duration, and additionally keeps a span when tracing is
    enabled — so the traced and the untraced run execute the same
    benchmark code and differ only in what they remember.  ``group``
    opens a parent span; a group's self time is its duration minus its
    children's (:meth:`self_ns`).
    """

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.rows: list[tuple[str, int, int, int]] = []
        self._stack = [-1]

    def timed(self, name: str, fn, *args):
        """Run ``fn(*args)``; return ``(duration_ns, result)``."""
        start = perf_counter_ns()
        result = fn(*args)
        end = perf_counter_ns()
        if self.enabled:
            self.rows.append((name, start, end, self._stack[-1]))
        return end - start, result

    @contextmanager
    def group(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.rows)
        self.rows.append((name, perf_counter_ns(), 0, self._stack[-1]))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _end, parent = self.rows[index]
            self.rows[index] = (name, start, perf_counter_ns(), parent)

    def self_ns(self) -> dict[str, int]:
        """Per span name: total duration minus the children's durations."""
        child_ns = [0] * len(self.rows)
        for _name, start, end, parent in self.rows:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, int] = {}
        for (name, start, end, _parent), children in zip(self.rows, child_ns):
            out[name] = out.get(name, 0) + (end - start) - children
        return out

    def jsonl_lines(self) -> list[str]:
        workload = self.workload
        return [
            json.dumps(
                {
                    "id": index,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent if parent >= 0 else None,
                    "workload": workload,
                }
            )
            for index, (name, start, end, parent) in enumerate(self.rows)
        ]


@contextmanager
def gc_quiesced():
    """Collect, then keep the collector off for a timed region."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# --- sample statistics -----------------------------------------------------------


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def undisturbed(results) -> tuple:
    """(ns, packets) per slice position, host interference removed.

    Interference from the host only ever adds time — on the boxes this
    runs on, in bursts that can cover most of a minute — but some
    instants of every run are clean.  Repeats do identical work slice by
    slice, so the minimum over the repeats is what each slice costs when
    nothing interferes; a change to the code moves it as much as any
    other statistic, a noisy neighbour does not.
    """
    best_ns = [min(ns) for ns in zip(*(r.slice_ns for r in results))]
    return best_ns, results[0].slice_pkts


def summarise(values, unit: str) -> dict:
    """One metric's ledger entry: the median plus what it was a median of."""
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "n": len(values), "q1": q1, "q3": q3}


def scalar(value, unit: str) -> dict:
    return {"value": value, "unit": unit, "n": 1, "q1": value, "q3": value}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# --- simulated statistics ----------------------------------------------------------


def sim_digest(net, connections=()) -> str:
    """sha256 over everything the simulation *computed*.

    Per-meter packet counts and delay lists, TCP byte and segment
    counters, node and link counters: a change that only makes the
    simulator faster must leave this string unchanged.
    """
    state = {
        "meters": [
            [m.name, m.packets, m.payload_bytes, m.out_of_order, m.delay_sum_ns, m.delays_ns]
            for m in net.meters
        ],
        "tcp": [
            [asdict(snd.stats), asdict(rcv.stats), rcv.delivered_bytes]
            for snd, rcv in connections
        ],
        "nodes": {name: asdict(net[name].counters) for name in sorted(net.nodes)},
        "links": [[asdict(l.a_to_b.stats), asdict(l.b_to_a.stats)] for l in net.links],
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


# --- environment ---------------------------------------------------------------------


def _commit() -> str:
    """HEAD's hash read from ``.git`` directly (no subprocess; the driver's
    checkout is not a repository, which reads as ``unknown``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_block(seed: int, sizes) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
        "seed": seed,
        "sizes": sizes,
        "argv": list(sys.argv),
    }
