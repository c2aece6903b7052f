"""The scheduler self-profiler: attribution, overhead contract, output."""

from __future__ import annotations

from repro.sim import Scheduler
from repro.sim.scheduler import NS_PER_MS
from repro.trace import SelfProfiler

from test_tracer import build_chain


def _noop():
    pass


def test_profiler_attributes_by_qualname():
    sched = Scheduler()
    prof = SelfProfiler(sched)
    sched.schedule(10, _noop)
    prof.start()
    prof.start()  # idempotent
    sched.schedule(20, _noop)
    sched.run()
    prof.stop()
    assert prof.events == 2
    assert prof.total_ns > 0
    ((category, count, total_ns),) = prof.report()
    assert category == "_noop"
    assert count == 2 and total_ns == prof.total_ns
    # The simulation clock still advanced under the shadow _execute.
    assert sched.now_ns == 20


def test_profiler_sees_only_its_scheduler_and_only_while_started():
    sched, other = Scheduler(), Scheduler()
    prof = SelfProfiler(sched).start()
    for scheduler in (sched, other):
        scheduler.schedule(5, _noop)
        scheduler.run()
    assert prof.events == 1  # the other scheduler is not profiled
    prof.stop()
    prof.stop()  # idempotent
    sched.schedule(5, _noop)
    assert sched.run() == 1
    assert prof.events == 1  # a stopped profiler records nothing
    assert sched.now_ns == other.now_ns + 5


def test_collapsed_stack_output(tmp_path):
    sched = Scheduler()
    prof = SelfProfiler(sched).start()
    for i in range(5):
        sched.schedule(i, _noop)
    sched.run()
    prof.stop()
    lines = prof.collapsed()
    assert lines
    for line in lines:
        stack, weight = line.rsplit(" ", 1)
        assert stack.startswith("scheduler;")
        assert int(weight) >= 1
    path = tmp_path / "profile.collapsed"
    assert prof.write_collapsed(path) == len(lines)
    assert path.read_text().splitlines() == lines


def test_profiler_categories_map_to_subsystems():
    net, tracer, _flow, _meter = build_chain()
    # build_chain armed the tracer without profiling; attach by hand the
    # way net.trace(profile=True) does, then run.
    profiler = SelfProfiler(net.scheduler).start()
    tracer.profiler = profiler
    net.run(until_ns=5 * NS_PER_MS)
    profiler.stop()
    assert profiler.events > 0
    categories = {category for category, _count, _ns in profiler.report()}
    assert any("tick" in c or "deliver" in c or "dequeue" in c for c in categories)


def test_network_trace_profile_flag():
    from repro.lab import Network

    net = Network(seed=3)
    net.add_node("A", addr="fc00:a::1")
    net.add_node("B", addr="fc00:b::1")
    net.add_link("A", "B")
    net.config("A", "route add fc00:b::/64 via fc00:b::1 dev eth0")
    tracer = net.trace(profile=True)
    flow = net.trafgen("A", dst="fc00:b::1", rate_bps=10e6, payload_size=200)
    net.sink("B")
    flow.start(at_ns=0)
    net.run(until_ns=5 * NS_PER_MS)
    assert tracer.profiler is not None
    tracer.profiler.stop()
    assert tracer.profiler.events > 0
    assert tracer.records
