"""Discrete-event scheduler: the simulated lab's clock and event loop.

Event ordering is **keyed**, not globally sequenced: every event carries
``(time_ns, stream, phase, seq)`` and the heap orders by that tuple.  A
*stream* is an ordering domain — stream 0 is the root (build-time and
scripted scheduling), and each link endpoint allocates its own stream
(:meth:`Scheduler.new_stream`).  Events scheduled while another event
executes inherit the executing event's stream (phase 1, per-stream
counter); link deliveries carry explicit keys (phase 0, the sender's
per-endpoint send counter).

An event is its own heap entry and its own handle: a plain list
``[time_ns, stream, phase, seq, unordered, callback, args, owner]``.
``heapq`` compares entries as lists, in C, so the leading key is the one
definition of order.  Keys are unique by construction; a duplicate would
fall through to ``unordered`` — a fresh ``object()`` per event — and
raise ``TypeError`` rather than order by callback.  ``owner`` is the
scheduler while the event waits in its heap, the :class:`Timer` for a
timer firing (a daemon: it is not pending work), and None once the event
ran or was cancelled (:meth:`Scheduler.cancel`).  A cancelled event keeps
its heap slot, its callback None, until the run loop pops it.

The point of keys is the sharded engine (:mod:`repro.shard`): because a
key names an event's causal origin rather than its global creation
order, the same simulation partitioned across K schedulers executes
every per-shard event subsequence in exactly the order the unsharded
run would — the bit-reproducibility contract across shard counts.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

NS_PER_SEC = 1_000_000_000
NS_PER_MS = 1_000_000
NS_PER_US = 1_000


class Timer:
    """Handle for a recurring timer (see :meth:`Scheduler.every`).

    ``cancel()`` stops the recurrence; the currently scheduled firing is
    cancelled too, so a cancelled timer never runs again.
    """

    __slots__ = ("scheduler", "interval_ns", "callback", "args", "fires", "_event")

    def __init__(self, scheduler: "Scheduler", interval_ns: int, callback: Callable, args: tuple):
        self.scheduler = scheduler
        self.interval_ns = max(1, int(interval_ns))
        self.callback = callback
        self.args = args
        self.fires = 0
        self._event: list | None = None

    @property
    def active(self) -> bool:
        return self._event is not None

    def cancel(self) -> None:
        if self._event is not None:
            self.scheduler.cancel(self._event)
            self._event = None

    def _arm(self) -> None:
        """Schedule the next firing, owned by this timer (a daemon event)."""
        scheduler = self.scheduler
        self._event = event = scheduler.schedule(self.interval_ns, self._fire)
        event[7] = self
        scheduler._daemons += 1

    def _fire(self) -> None:
        # The firing that runs this is no longer queued.  Re-arm before
        # running the callback: a callback that raises does not silently
        # kill the recurrence, and a callback that calls cancel() cancels
        # the already-scheduled next firing.
        self.scheduler._daemons -= 1
        self._arm()
        self.fires += 1
        self.callback(*self.args)


class Scheduler:
    """A heap-based event loop with nanosecond resolution."""

    def __init__(self):
        self.now_ns = 0
        self._heap: list[list] = []
        self.events_run = 0
        self.events_coalesced = 0  # heap events saved by batch delivery
        self._cancelled = 0  # cancelled events still sitting in the heap
        self._daemons = 0  # live timer firings in the heap (not work)
        # Keyed ordering state: the stream of the currently executing
        # event (0 = root, i.e. outside any event) and one derived-event
        # counter per allocated stream.
        self._stream = 0
        self._stream_seqs: list[int] = [0]
        # An armed repro.trace.SelfProfiler: run() hands it each callback.
        self.profiler = None

    # -- ordering streams ----------------------------------------------------
    def new_stream(self) -> int:
        """Allocate an ordering stream (one per link endpoint).

        Streams are allocated at build time in construction order, so a
        topology built identically always numbers its streams
        identically — the property the sharded engine's cross-scheduler
        event keys rest on.
        """
        stream = len(self._stream_seqs)
        self._stream_seqs.append(0)
        return stream

    # -- scheduling ----------------------------------------------------------
    def schedule(self, delay_ns: int, callback: Callable, *args) -> list:
        """Run ``callback(*args)`` after ``delay_ns`` simulated nanoseconds."""
        return self.schedule_at(self.now_ns + max(0, int(delay_ns)), callback, *args)

    def schedule_at(self, time_ns: int, callback: Callable, *args) -> list:
        """Schedule in the executing event's stream (phase 1, derived)."""
        stream = self._stream
        seqs = self._stream_seqs
        seq = seqs[stream]
        seqs[stream] = seq + 1
        time_ns = int(time_ns)
        if time_ns < self.now_ns:
            raise ValueError(f"cannot schedule in the past ({time_ns} < {self.now_ns})")
        event = [time_ns, stream, 1, seq, object(), callback, args, self]
        heappush(self._heap, event)
        return event

    def schedule_keyed(
        self, time_ns: int, stream: int, seq: int, callback: Callable, *args
    ) -> list:
        """Schedule with an explicit ``(stream, seq)`` key (phase 0).

        Link endpoints use this for wire events: the key is derived from
        the *sender's* per-endpoint state, so a delivery lands at the
        same position in the total order whether it is scheduled on the
        sender's own scheduler (in-process) or re-keyed onto a remote
        shard's scheduler (cross-shard handoff).
        """
        time_ns = int(time_ns)
        if time_ns < self.now_ns:
            raise ValueError(f"cannot schedule in the past ({time_ns} < {self.now_ns})")
        event = [time_ns, stream, 0, seq, object(), callback, args, self]
        heappush(self._heap, event)
        return event

    def cancel(self, event: list) -> None:
        """Unschedule ``event``, a handle a ``schedule*`` call returned: its
        callback never runs.  A no-op once it ran or was cancelled."""
        owner = event[7]
        event[5] = None
        if owner is not None:
            event[7] = None
            if owner is not self:  # a timer's firing: a daemon, not work
                self._daemons -= 1
            self._cancelled += 1

    def every(self, interval_ns: int, callback: Callable, *args) -> Timer:
        """Run ``callback(*args)`` every ``interval_ns``, starting one
        interval from now.  Returns a :class:`Timer` handle; ``cancel()``
        stops the recurrence.  This is what periodic protocol machinery
        (IGP hellos, dead-interval scans) should use instead of
        hand-rolled reschedule loops.

        Timer firings are **daemon** events — like daemon threads, they
        keep running while anything else does, but a horizon-less
        ``run()`` returns once only timers remain, so an armed control
        plane cannot wedge ``net.run()`` forever.
        """
        timer = Timer(self, interval_ns, callback, args)
        timer._arm()
        return timer

    def schedule_batch(self, time_ns: int, callback: Callable, items: list, *args) -> list:
        """One heap event delivering a whole batch (``callback(items, *args)``).

        The batch equivalent of N ``schedule_at`` calls at the same
        instant: heap churn is paid once per batch instead of once per
        packet, which is what lets 10k-flow simulations stay event-bound
        rather than heap-bound.  ``events_coalesced`` counts the events
        saved, so benchmarks can report the amortisation; a link endpoint
        counts its own keyed batches there.
        """
        if len(items) > 1:
            self.events_coalesced += len(items) - 1
        return self.schedule_at(time_ns, callback, items, *args)

    # -- execution -------------------------------------------------------------
    def run(self, until_ns: int | None = None, max_events: int | None = None) -> int:
        """Process events until the horizon / event budget / empty heap.

        Returns the number of events executed.  This is the scheduler's
        one event loop; :meth:`run_until_grant` runs it to the instant
        before its horizon.  A :attr:`profiler` armed before the run
        times each callback.  ``events_run`` is counted once per run.
        """
        heap = self._heap
        profiler = self.profiler
        horizon = until_ns if until_ns is not None else float("inf")
        executed = 0
        budget_hit = False
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    budget_hit = True
                    break
                if until_ns is None and len(heap) == self._cancelled + self._daemons:
                    break  # only daemon timers (and corpses) remain
                event = heappop(heap)
                time_ns, stream, _phase, _seq, _unordered, callback, args, owner = event
                if time_ns > horizon:
                    heappush(heap, event)  # the first event past the horizon
                    break
                if owner is None:
                    self._cancelled -= 1
                    continue
                event[7] = None
                self.now_ns = time_ns
                self._stream = stream
                if profiler is None:
                    callback(*args)
                else:
                    profiler.call(callback, args)
                executed += 1
        finally:
            self.events_run += executed
            self._stream = 0
        # Fast-forward to the horizon — unless the event budget cut the
        # run short with pre-horizon events still queued, in which case
        # jumping the clock would make those events run in the past.
        if until_ns is not None and not budget_hit and self.now_ns < until_ns:
            self.now_ns = until_ns
        return executed

    def run_until_grant(self, horizon_ns: int) -> int:
        """Execute every event *strictly before* ``horizon_ns``, then
        advance the clock to the horizon.

        The sharded engine's execution primitive: a shard granted
        ``horizon_ns`` by the coordinator may safely run everything
        below it (no cross-shard arrival can land earlier), and must
        stop *at* it — events at or past the horizon might still be
        preempted by a not-yet-received handoff.  The exclusive bound is
        what makes rounds composable: the next round's injections all
        carry ``arrival >= horizon``, which the post-advance clock
        accepts.  Event times are integers, so this is :meth:`run` to
        ``horizon_ns - 1``.
        """
        executed = self.run(until_ns=horizon_ns - 1)
        if self.now_ns < horizon_ns:
            self.now_ns = horizon_ns
        return executed

    def events_of(self, owner) -> list[list]:
        """The live events whose callback is a method of ``owner`` — an
        O(heap) scan, for rare state changes such as a link going down."""
        return [
            event
            for event in self._heap
            if event[7] is not None and getattr(event[5], "__self__", None) is owner
        ]

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events in the heap — O(1), not a scan."""
        return len(self._heap) - self._cancelled
