"""Perf-event ring buffers: the kernel→user-space event channel.

§2.1 of the paper: *"if information needs to be pushed asynchronously to
user space, perf events can be used ... events collected in the ring
buffer can then be retrieved in user space."*  End.DM (§4.1) uses exactly
this to hand timestamp pairs to its Python daemon.

:class:`PerfRing` models one per-CPU ring: bounded, lossy under pressure
(it counts drops, as the kernel does), drained by whoever polls it — the
§4 daemons on their tick, the telemetry bridge on its sample.
Records carry the simulated push timestamp, so a telemetry bridge can
merge several rings into one time-ordered export stream.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

DEFAULT_RING_CAPACITY = 4096


class PerfRecord(NamedTuple):
    """One ring entry: the raw bytes plus the simulated push instant."""

    time_ns: int
    data: bytes


class PerfRing:
    """A bounded FIFO of raw event records for one CPU."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._queue: deque[PerfRecord] = deque()
        self.pushed = 0
        self.dropped = 0

    def push(self, record: bytes, time_ns: int = 0) -> bool:
        """Append a record; returns False (and counts a drop) when full.

        ``time_ns`` stamps the record with the push instant (the eBPF
        ``perf_event_output`` helper passes the program clock); pollers
        that only want bytes ignore it.
        """
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            return False
        self._queue.append(PerfRecord(time_ns, bytes(record)))
        self.pushed += 1
        return True

    def drain(self, max_records: int | None = None) -> list[bytes]:
        """Remove and return up to ``max_records`` records (all if None)."""
        return [record.data for record in self.drain_records(max_records)]

    def drain_records(self, max_records: int | None = None) -> list[PerfRecord]:
        """Like :meth:`drain`, keeping the timestamps (telemetry bridge)."""
        out: list[PerfRecord] = []
        while self._queue and (max_records is None or len(out) < max_records):
            out.append(self._queue.popleft())
        return out

    def __len__(self) -> int:
        return len(self._queue)
