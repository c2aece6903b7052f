"""Discrete-event scheduler: the simulated lab's clock and event loop.

Event ordering is **keyed**, not globally sequenced: every event carries
``(time_ns, stream, phase, seq)`` and the heap orders by that tuple.  A
*stream* is an ordering domain — stream 0 is the root (build-time and
scripted scheduling), and each link endpoint allocates its own stream
(:meth:`Scheduler.new_stream`).  Events scheduled while another event
executes inherit the executing event's stream (phase 1, per-stream
counter); link deliveries carry explicit keys (phase 0, the sender's
per-endpoint send counter).

The point of keys is the sharded engine (:mod:`repro.shard`): because a
key names an event's causal origin rather than its global creation
order, the same simulation partitioned across K schedulers executes
every per-shard event subsequence in exactly the order the unsharded
run would — the bit-reproducibility contract across shard counts.
"""

from __future__ import annotations

import heapq
from typing import Callable

NS_PER_SEC = 1_000_000_000
NS_PER_MS = 1_000_000
NS_PER_US = 1_000


class Event:
    """One scheduled callback, ordered by ``(time_ns, stream, phase, seq)``.

    Events define no comparison: the heap holds ``(time_ns, stream,
    phase, seq, event)`` tuples, so ``heapq`` orders them in C and that
    tuple is the one definition of order.  Keys are unique by
    construction; a duplicate would fall through to comparing the
    events and raise ``TypeError`` rather than order arbitrarily.

    ``__slots__`` matters here: a busy run allocates millions of events,
    and slots cut per-event memory roughly in half versus a dataclass
    with ``__dict__`` (measured in ``BENCH_shard_scaling.json``).
    """

    __slots__ = (
        "time_ns",
        "stream",
        "phase",
        "seq",
        "callback",
        "args",
        "cancelled",
        "daemon",
        "owner",
    )

    def __init__(
        self,
        time_ns: int,
        stream: int,
        phase: int,
        seq: int,
        callback: Callable,
        args: tuple = (),
        daemon: bool = False,
        owner: "Scheduler | None" = None,
    ):
        self.time_ns = time_ns
        self.stream = stream
        self.phase = phase
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # Daemon events (recurring-timer firings) don't count as pending
        # work: a horizon-less run() returns once only daemons remain.
        self.daemon = daemon
        # Owning scheduler while the event sits in the heap, so cancellation
        # can be accounted without a scan; detached (None) once popped, so a
        # late cancel() of an already-executed event is a no-op.
        self.owner = owner

    def __repr__(self) -> str:
        return (
            f"<Event t={self.time_ns} key=({self.stream},{self.phase},{self.seq}) "
            f"{getattr(self.callback, '__qualname__', self.callback)}>"
        )

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self.owner is not None:
                self.owner._cancelled += 1
                if not self.daemon:
                    self.owner._work -= 1
                self.owner = None


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
        self._event: Event | None = None

    @property
    def active(self) -> bool:
        return self._event is not None

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        # Re-arm before running the callback: a callback that raises does
        # not silently kill the recurrence, and a callback that calls
        # cancel() cancels the already-scheduled next firing.
        self._event = self.scheduler._schedule_timer(self.interval_ns, self._fire)
        self.fires += 1
        self.callback(*self.args)


class Scheduler:
    """A heap-based event loop with nanosecond resolution."""

    def __init__(self):
        self.now_ns = 0
        self._heap: list[tuple[int, int, int, int, Event]] = []
        self.events_run = 0
        self.events_coalesced = 0  # heap events saved by schedule_batch
        self._cancelled = 0  # cancelled events still sitting in the heap
        self._work = 0  # live non-daemon events in the heap
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
    def schedule(self, delay_ns: int, callback: Callable, *args) -> Event:
        """Run ``callback(*args)`` after ``delay_ns`` simulated nanoseconds."""
        return self.schedule_at(self.now_ns + max(0, int(delay_ns)), callback, *args)

    def schedule_at(self, time_ns: int, callback: Callable, *args) -> Event:
        """Schedule in the executing event's stream (phase 1, derived)."""
        stream = self._stream
        seqs = self._stream_seqs
        seq = seqs[stream]
        seqs[stream] = seq + 1
        return self._push(int(time_ns), stream, 1, seq, callback, args)

    def schedule_keyed(
        self, time_ns: int, stream: int, seq: int, callback: Callable, *args
    ) -> Event:
        """Schedule with an explicit ``(stream, seq)`` key (phase 0).

        Link endpoints use this for wire events: the key is derived from
        the *sender's* per-endpoint state, so a delivery lands at the
        same position in the total order whether it is scheduled on the
        sender's own scheduler (in-process) or re-keyed onto a remote
        shard's scheduler (cross-shard handoff).
        """
        return self._push(int(time_ns), stream, 0, seq, callback, args)

    def _push(
        self, time_ns: int, stream: int, phase: int, seq: int, callback, args
    ) -> Event:
        if time_ns < self.now_ns:
            raise ValueError(f"cannot schedule in the past ({time_ns} < {self.now_ns})")
        event = Event(time_ns, stream, phase, seq, callback, args, owner=self)
        self._work += 1
        heapq.heappush(self._heap, (time_ns, stream, phase, seq, event))
        return event

    def _schedule_timer(self, delay_ns: int, callback: Callable) -> Event:
        """A daemon event: a timer firing that doesn't count as work."""
        event = self.schedule(delay_ns, callback)
        event.daemon = True
        self._work -= 1
        return event

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
        timer._event = self._schedule_timer(timer.interval_ns, timer._fire)
        return timer

    def schedule_batch(
        self, time_ns: int, callback: Callable, items: list, *args, key=None
    ) -> Event:
        """One heap event delivering a whole batch (``callback(items, *args)``).

        The batch equivalent of N ``schedule_at`` calls at the same
        instant: heap churn is paid once per batch instead of once per
        packet, which is what lets 10k-flow simulations stay event-bound
        rather than heap-bound.  ``events_coalesced`` counts the events
        saved, so benchmarks can report the amortisation.  ``key`` is an
        explicit ``(stream, seq)`` pair (see :meth:`schedule_keyed`).
        """
        self.events_coalesced += max(0, len(items) - 1)
        if key is not None:
            return self._push(int(time_ns), key[0], 0, key[1], callback, (items, *args))
        return self.schedule_at(time_ns, callback, items, *args)

    # -- execution -------------------------------------------------------------
    def run(self, until_ns: int | None = None, max_events: int | None = None) -> int:
        """Process events until the horizon / event budget / empty heap.

        Returns the number of events executed.  This is the scheduler's
        one event loop; :meth:`run_until_grant` runs it to the instant
        before its horizon.  An armed :attr:`profiler` times each
        callback.
        """
        heap = self._heap
        executed = 0
        budget_hit = False
        while heap:
            if max_events is not None and executed >= max_events:
                budget_hit = True
                break
            if until_ns is None and self._work == 0:
                break  # only daemon timers (and corpses) remain
            if until_ns is not None and heap[0][0] > until_ns:
                break
            event = heapq.heappop(heap)[4]
            if event.cancelled:
                self._cancelled -= 1
                continue
            event.owner = None
            if not event.daemon:
                self._work -= 1
            self.now_ns = event.time_ns
            self._stream = event.stream
            if self.profiler is None:
                event.callback(*event.args)
            else:
                self.profiler.call(event.callback, event.args)
            executed += 1
            self.events_run += 1
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

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events in the heap — O(1), not a scan."""
        return len(self._heap) - self._cancelled

    def now_fn(self) -> Callable[[], int]:
        """A clock callable suitable for ``Node(clock_ns=...)``."""
        return lambda: self.now_ns
