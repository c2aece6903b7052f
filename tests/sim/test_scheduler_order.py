"""Event order against a sorted-list model of the scheduler.

The model below keeps the scheduler's ``(time_ns, stream, phase, seq)``
keys in a plain list and always takes the smallest, so any disagreement
in order is the heap's.  It also keeps cancelled entries in place until
they reach the front, as the heap does, so the accounting —
``pending``, ``pending - _daemons``, ``_cancelled`` and ``events_run`` — is checked
after every kind of stop, including cancels issued from inside a
running callback, cancels of events that already ran, and timers.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Scheduler

STREAMS = 4
END_NS = 100
MAX_OPS = 30

ops = st.lists(
    st.tuples(
        st.sampled_from(["at", "keyed", "batch", "batch_keyed"]),
        st.integers(0, 60),  # time_ns
        st.integers(1, STREAMS),  # stream (keyed kinds)
        st.integers(0, 20),  # seq (keyed kinds)
        st.booleans(),  # cancelled before the run
        st.none() | st.integers(0, 15),  # delay of a follow-up it schedules
        # A handle its callback cancels when it runs: an op (pending, run
        # already, cancelled already, or itself) or a timer.
        st.none() | st.integers(0, MAX_OPS + 1),
    ),
    max_size=MAX_OPS,
    unique_by=lambda op: (op[2], op[3]),
)
timers = st.lists(
    st.tuples(st.integers(1, 25), st.booleans()),  # interval, cancelled before the run
    max_size=2,
)
stops = st.one_of(
    st.tuples(st.just("run"), st.none()),
    st.tuples(st.just("budget"), st.integers(0, 40)),
    st.tuples(st.just("until"), st.integers(0, 80)),
    st.tuples(st.just("grant"), st.integers(0, 80)),
)


class Model:
    """Queued entries ``[key, label, timer_interval, follow_up_delay, target]``;
    a cancelled entry stays queued, dead, until it reaches the front."""

    def __init__(self, handles):
        self.queue = []
        self.dead = set()  # keys of cancelled entries still queued
        self.seqs = defaultdict(int)
        self.now = 0
        self.events_run = 0
        self.handles = handles  # target number -> the label its entries carry

    def derived(self, time_ns, stream):
        seq = self.seqs[stream]
        self.seqs[stream] += 1
        return (time_ns, stream, 1, seq)

    def live(self):
        return [entry for entry in self.queue if entry[0] not in self.dead]

    def work(self):
        return sum(1 for entry in self.live() if not entry[2])

    def cancel(self, target):
        """No-op unless the handle's entry is queued and live."""
        label = self.handles.get(target)
        for entry in self.live():
            if entry[1] == label:
                self.dead.add(entry[0])

    def run(self, until=None, strict=False, budget=None):
        out = []
        while self.queue:
            if budget is not None and len(out) >= budget:
                return out
            if until is None and not self.work():
                break
            entry = min(self.queue)
            key, label, interval, delay, target = entry
            if until is not None and (key[0] >= until if strict else key[0] > until):
                break
            self.queue.remove(entry)
            if key in self.dead:
                self.dead.discard(key)
                continue
            self.now = key[0]
            out.append(label)
            self.events_run += 1
            if interval:
                self.queue.append(
                    [self.derived(key[0] + interval, key[1]), label, interval, None, None]
                )
            if delay is not None:
                self.queue.append(
                    [self.derived(key[0] + delay, key[1]), (label, "child"), 0, None, None]
                )
            if target is not None:
                self.cancel(target)
        if until is not None:
            self.now = max(self.now, until)
        return out


def load(ops, timers):
    """Push the same events into a Scheduler and a Model."""
    sched, log = Scheduler(), []
    for _ in range(STREAMS):
        sched.new_stream()
    # Targets 0..len(ops)-1 are the ops, the next ones the timers; a
    # target past both names nothing and its cancel is skipped.
    handles = {}
    model = Model({n: n for n in range(len(ops))})
    model.handles.update({len(ops) + n: ("timer", n) for n in range(len(timers))})

    def fire(label, delay=None, target=None):
        log.append(label)
        if delay is not None:
            sched.schedule(delay, fire, (label, "child"))
        if target in handles:
            handles[target].cancel()

    def fire_batch(items, label, delay, target):
        assert items == [label, label]
        fire(label, delay, target)

    coalesced = 0
    for label, (kind, time_ns, stream, seq, cancel, delay, target) in enumerate(ops):
        if kind == "at":
            event = sched.schedule_at(time_ns, fire, label, delay, target)
        elif kind == "keyed":
            event = sched.schedule_keyed(time_ns, stream, seq, fire, label, delay, target)
        else:
            key = (stream, seq) if kind == "batch_keyed" else None
            event = sched.schedule_batch(
                time_ns, fire_batch, [label, label], label, delay, target, key=key
            )
            coalesced += 1
        handles[label] = event
        if kind in ("keyed", "batch_keyed"):
            want = (time_ns, stream, 0, seq)
        else:
            want = model.derived(time_ns, 0)
        assert (event.time_ns, event.stream, event.phase, event.seq) == want
        model.queue.append([want, label, 0, delay, target])
        if cancel:
            event.cancel()
            event.cancel()  # idempotent: accounted once
            assert event.cancelled
            model.cancel(label)
    for number, (interval, cancel) in enumerate(timers):
        label = ("timer", number)
        timer = handles[len(ops) + number] = sched.every(interval, fire, label)
        model.queue.append([model.derived(interval, 0), label, interval, None, None])
        if cancel:
            timer.cancel()
            assert not timer.active
            model.cancel(len(ops) + number)
    assert sched.events_coalesced == coalesced
    return sched, model, log


def agree(sched, model):
    assert sched.pending == len(model.live())
    assert sched.pending - sched._daemons == model.work()
    assert sched._cancelled == len(model.dead)
    assert sched.events_run == model.events_run
    assert sched.now_ns == model.now


@settings(max_examples=300, deadline=None)
@given(ops=ops, timers=timers, stop=stops)
def test_events_execute_in_key_order_and_stop_where_the_model_stops(ops, timers, stop):
    sched, model, log = load(ops, timers)
    agree(sched, model)
    mode, arg = stop
    if mode == "run":
        executed, want = sched.run(), model.run()
    elif mode == "budget":
        executed, want = sched.run(max_events=arg), model.run(budget=arg)
    elif mode == "until":
        executed, want = sched.run(until_ns=arg), model.run(until=arg)
    else:
        executed, want = sched.run_until_grant(arg), model.run(until=arg, strict=True)
    assert log == want
    assert executed == len(want)
    agree(sched, model)
    # Whatever the first call left queued still runs, in order, afterwards.
    del log[:]
    rest = model.run(until=END_NS)
    assert sched.run(until_ns=END_NS) == len(rest)
    assert log == rest
    agree(sched, model)
    assert sched._cancelled == 0  # every cancelled corpse has been popped


def test_a_cancel_after_the_event_ran_is_a_no_op():
    sched = Scheduler()
    ran = []
    event = sched.schedule_at(5, ran.append, "first")
    later = sched.schedule_at(9, ran.append, "second")
    assert sched.run(until_ns=6) == 1 and ran == ["first"]
    event.cancel()
    assert (sched.pending, sched._daemons, sched._cancelled) == (1, 0, 0)
    later.cancel()
    assert (sched.pending, sched._daemons, sched._cancelled) == (0, 0, 1)
    assert sched.run() == 0 and ran == ["first"] and sched.events_run == 1


def test_duplicate_key_raises_instead_of_ordering_arbitrarily():
    sched = Scheduler()
    stream = sched.new_stream()
    ran = []
    with pytest.raises(TypeError):
        sched.schedule_keyed(10, stream, 7, ran.append, "first")
        sched.schedule_keyed(10, stream, 7, ran.append, "second")
        sched.run()
    assert ran == []
