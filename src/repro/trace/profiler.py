"""A scheduler-level self-profiler: host wall-clock per callback kind.

Every event callback runs from ``Scheduler.run``, the scheduler's one
event loop.  A started profiler is that scheduler's ``profiler``, and the
loop hands it each callback to time; a network that never profiles pays
one ``None`` test per event, and a profiled run one ``perf_counter_ns``
pair per event.

Costs are attributed to the callback's ``__qualname__`` — e.g.
``NetemQdisc._dequeue``, ``LinkEndpoint._deliver_batch``,
``UdpFlow._tick`` — which maps one-to-one onto the simulator's
subsystems.  ``collapsed()`` renders the table as collapsed-stack lines
(``scheduler;<category> <µs>``) that flamegraph.pl or speedscope eat
directly, to guide future perf PRs at the category that actually burns
the host CPU.
"""

from __future__ import annotations

from time import perf_counter_ns


class SelfProfiler:
    """Attribute host wall-clock to event-callback categories."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.categories: dict = {}  # qualname -> [count, total_ns]
        self.active = False

    def start(self) -> "SelfProfiler":
        if not self.active:
            self.scheduler.profiler = self
            self.active = True
        return self

    def stop(self) -> "SelfProfiler":
        if self.active:
            self.scheduler.profiler = None
            self.active = False
        return self

    def call(self, callback, args: tuple) -> None:
        """Run one event's callback (the scheduler has set its clock) and
        charge the host time to the callback's qualname."""
        t0 = perf_counter_ns()
        callback(*args)
        dt = perf_counter_ns() - t0
        key = getattr(callback, "__qualname__", None) or repr(callback)
        entry = self.categories.get(key)
        if entry is None:
            self.categories[key] = [1, dt]
        else:
            entry[0] += 1
            entry[1] += dt

    @property
    def total_ns(self) -> int:
        return sum(entry[1] for entry in self.categories.values())

    @property
    def events(self) -> int:
        return sum(entry[0] for entry in self.categories.values())

    def report(self) -> list:
        """``(category, count, total_ns)`` rows, hottest first."""
        rows = [
            (category, entry[0], entry[1])
            for category, entry in self.categories.items()
        ]
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows

    def collapsed(self) -> list:
        """Collapsed-stack lines (flamegraph.pl / speedscope input).

        Sample weights are microseconds; categories under 1 µs total
        round up to 1 so they stay visible.
        """
        return [
            f"scheduler;{category} {max(1, total_ns // 1000)}"
            for category, _count, total_ns in self.report()
        ]

    def write_collapsed(self, path) -> int:
        lines = self.collapsed()
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        return len(lines)
