"""Event order against a sorted-list model of the scheduler.

The heap orders ``(time_ns, stream, phase, seq, event)`` tuples; the
model below keeps the same keys in a plain list and always takes the
smallest, so any disagreement is the heap's.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Scheduler

STREAMS = 4
END_NS = 100

ops = st.lists(
    st.tuples(
        st.sampled_from(["at", "keyed", "batch", "batch_keyed"]),
        st.integers(0, 60),  # time_ns
        st.integers(1, STREAMS),  # stream (keyed kinds)
        st.integers(0, 20),  # seq (keyed kinds)
        st.booleans(),  # cancelled before the run
        st.none() | st.integers(0, 15),  # delay of a follow-up it schedules
    ),
    max_size=30,
    unique_by=lambda op: (op[2], op[3]),
)
stops = st.one_of(
    st.tuples(st.just("run"), st.none()),
    st.tuples(st.just("budget"), st.integers(0, 40)),
    st.tuples(st.just("until"), st.integers(0, 80)),
    st.tuples(st.just("grant"), st.integers(0, 80)),
)


class Model:
    """Live entries ``(key, label, timer_interval, follow_up_delay)``."""

    def __init__(self):
        self.queue = []
        self.seqs = defaultdict(int)
        self.now = 0

    def derived(self, time_ns, stream):
        seq = self.seqs[stream]
        self.seqs[stream] += 1
        return (time_ns, stream, 1, seq)

    def work(self):
        return sum(1 for _key, _label, interval, _delay in self.queue if not interval)

    def run(self, until=None, strict=False, budget=None):
        out = []
        while self.queue:
            if budget is not None and len(out) >= budget:
                return out
            if until is None and not self.work():
                break
            entry = min(self.queue)
            key, label, interval, delay = entry
            if until is not None and (key[0] >= until if strict else key[0] > until):
                break
            self.queue.remove(entry)
            self.now = key[0]
            out.append(label)
            if interval:
                self.queue.append(
                    (self.derived(key[0] + interval, key[1]), label, interval, None)
                )
            if delay is not None:
                self.queue.append(
                    (self.derived(key[0] + delay, key[1]), (label, "child"), 0, None)
                )
        if until is not None:
            self.now = max(self.now, until)
        return out


def load(ops, timers):
    """Push the same events into a Scheduler and a Model."""
    sched, model, log = Scheduler(), Model(), []
    for _ in range(STREAMS):
        sched.new_stream()

    def fire(label, delay=None):
        log.append(label)
        if delay is not None:
            sched.schedule(delay, fire, (label, "child"))

    def fire_batch(items, label, delay):
        assert items == [label, label]
        fire(label, delay)

    coalesced = 0
    for label, (kind, time_ns, stream, seq, cancel, delay) in enumerate(ops):
        if kind == "at":
            event = sched.schedule_at(time_ns, fire, label, delay)
        elif kind == "keyed":
            event = sched.schedule_keyed(time_ns, stream, seq, fire, label, delay)
        else:
            key = (stream, seq) if kind == "batch_keyed" else None
            event = sched.schedule_batch(
                time_ns, fire_batch, [label, label], label, delay, key=key
            )
            coalesced += 1
        if kind in ("keyed", "batch_keyed"):
            want = (time_ns, stream, 0, seq)
        else:
            want = model.derived(time_ns, 0)
        assert (event.time_ns, event.stream, event.phase, event.seq) == want
        if cancel:
            event.cancel()
            event.cancel()  # idempotent: accounted once
        else:
            model.queue.append((want, label, 0, delay))
    for number, interval in enumerate(timers):
        label = ("timer", number)
        sched.every(interval, fire, label)
        model.queue.append((model.derived(interval, 0), label, interval, None))
    assert sched.events_coalesced == coalesced
    return sched, model, log


def agree(sched, model):
    assert sched.pending == len(model.queue)
    assert sched._work == model.work()
    assert sched.now_ns == model.now


@settings(max_examples=200, deadline=None)
@given(ops=ops, timers=st.lists(st.integers(1, 25), max_size=2), stop=stops)
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
    assert executed == len(want) == sched.events_run
    agree(sched, model)
    # Whatever the first call left queued still runs, in order, afterwards.
    del log[:]
    rest = model.run(until=END_NS)
    assert sched.run(until_ns=END_NS) == len(rest)
    assert log == rest
    agree(sched, model)
    assert sched._cancelled == 0  # every cancelled corpse has been popped


def test_duplicate_key_raises_instead_of_ordering_arbitrarily():
    sched = Scheduler()
    stream = sched.new_stream()
    ran = []
    with pytest.raises(TypeError):
        sched.schedule_keyed(10, stream, 7, ran.append, "first")
        sched.schedule_keyed(10, stream, 7, ran.append, "second")
        sched.run()
    assert ran == []
