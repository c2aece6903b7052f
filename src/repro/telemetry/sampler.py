"""Periodic samplers: registry snapshots, ring drains, bus bridging.

A :class:`TelemetrySession` is what ``net.telemetry(interval_ms=...)``
returns.  It arms one recurring :meth:`~repro.sim.scheduler.Scheduler.every`
timer; each firing

1. drains every installed perf event ring (the §4.1 kernel→user channel)
   and flushes the control-bus events buffered since the last tick,
   merged into **one time-ordered stream** of ``perf``/``event`` records;
2. snapshots the :class:`~repro.telemetry.metrics.MetricsRegistry` into
   a ``sample`` record carrying every counter plus the export's own
   drop accounting (lossy sinks and rings count what they shed, they
   never block the datapath).

Because the sampler rides the simulation scheduler, a seeded run
(``Network(seed=N)``) exports a byte-identical JSONL stream every time:
timestamps, ordering and drop counts included.
"""

from __future__ import annotations

from .instrument import perf_maps
from .metrics import MetricsRegistry
from .sink import RingSink, encode


class TelemetrySession:
    """A live export stream over a running network.

    Created via :meth:`repro.lab.network.Network.telemetry`; drive the
    simulation as usual and read the sink (or call :meth:`sample` for an
    immediate out-of-band snapshot — what the CLI's ``sample`` command
    and the benchmark overhead gate do).
    """

    def __init__(
        self,
        net,
        registry: MetricsRegistry,
        interval_ns: int,
        sink=None,
        rings: dict | None = None,
    ):
        self.net = net
        self.registry = registry
        self.interval_ns = int(interval_ns)
        self.sink = sink if sink is not None else RingSink()
        self.samples = 0
        self.closed = False
        self._explicit_rings = dict(rings or {})
        self._pending_events: list = []
        self.timer = net.scheduler.every(self.interval_ns, self.sample)
        self._bus = None
        ctrl = net._ctrl
        if ctrl is not None:
            self._bus = ctrl.bus
            ctrl.bus.subscribe("*", self._on_event)

    # -- event + ring intake ---------------------------------------------------
    def _on_event(self, event) -> None:
        if not self.closed:
            self._pending_events.append(event)

    def rings(self) -> dict:
        """Installed perf event arrays (discovered) plus explicit ones."""
        found = perf_maps(self.net)
        found.update(self._explicit_rings)
        return dict(sorted(found.items()))

    # -- the sampler tick ------------------------------------------------------
    def sample(self) -> int:
        """Emit buffered events + drained rings + one registry snapshot.

        Returns the number of JSONL lines offered to the sink.  The
        ``perf`` and ``event`` records are emitted in ``(time_ns, line)``
        order, the order :func:`repro.shard.merge.merge_telemetry` gives
        the workers' records: a sharded run's export is then this one's,
        line for line, even where records share an instant.
        """
        if self.closed:
            return 0
        rings = self.rings()
        entries: list[tuple[int, str]] = []
        for event in self._pending_events:
            record = {
                "type": "event",
                "t": event.time_ns,
                "node": event.node,
                "kind": event.kind,
                "detail": event.detail,
            }
            entries.append((event.time_ns, encode(record)))
        self._pending_events.clear()
        ring_dropped = 0
        for name, pmap in rings.items():
            for cpu in range(pmap.max_entries):
                ring = pmap.ring(cpu)
                ring_dropped += ring.dropped
                for record in ring.drain_records():
                    line = encode(
                        {
                            "type": "perf",
                            "t": record.time_ns,
                            "ring": name,
                            "cpu": cpu,
                            "data": record.data.hex(),
                        }
                    )
                    entries.append((record.time_ns, line))
        entries.sort()
        emit = self.sink.emit
        for _, line in entries:
            emit(line)
        snapshot = {
            "type": "sample",
            "t": self.net.scheduler.now_ns,
            "seq": self.samples,
            "metrics": self.registry.as_dict(),
            "drops": {"sink": self.sink.dropped, "rings": ring_dropped},
        }
        self.samples += 1
        emit(encode(snapshot))
        return len(entries) + 1

    # -- lifecycle -------------------------------------------------------------
    def close(self, final_sample: bool = True) -> None:
        """Stop the recurring sampler (optionally after one last snapshot)."""
        if self.closed:
            return
        self.timer.cancel()
        if final_sample:
            self.sample()
        self.closed = True
        close = getattr(self.sink, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "TelemetrySession":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
