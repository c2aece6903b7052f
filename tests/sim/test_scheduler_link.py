"""Discrete-event scheduler and links."""

import pytest

from repro.net import Node, make_udp_packet
from repro.sim import Link, Scheduler
from repro.sim.scheduler import NS_PER_MS, NS_PER_SEC


def test_events_run_in_time_order():
    sched = Scheduler()
    order = []
    sched.schedule(300, order.append, "c")
    sched.schedule(100, order.append, "a")
    sched.schedule(200, order.append, "b")
    sched.run()
    assert order == ["a", "b", "c"]


def test_ties_run_in_fifo_order():
    sched = Scheduler()
    order = []
    sched.schedule(100, order.append, 1)
    sched.schedule(100, order.append, 2)
    sched.run()
    assert order == [1, 2]


def test_clock_advances_to_event_time():
    sched = Scheduler()
    seen = []
    sched.schedule(500, lambda: seen.append(sched.now_ns))
    sched.run()
    assert seen == [500]


def test_run_until_horizon():
    sched = Scheduler()
    seen = []
    sched.schedule(100, seen.append, 1)
    sched.schedule(900, seen.append, 2)
    sched.run(until_ns=500)
    assert seen == [1]
    assert sched.now_ns == 500
    sched.run()
    assert seen == [1, 2]


def test_cancelled_event_skipped():
    sched = Scheduler()
    seen = []
    event = sched.schedule(100, seen.append, 1)
    sched.cancel(event)
    sched.run()
    assert seen == []


def test_cannot_schedule_in_past():
    sched = Scheduler()
    sched.schedule(100, lambda: None)
    sched.run()
    with pytest.raises(ValueError):
        sched.schedule_at(50, lambda: None)


def test_chained_scheduling():
    sched = Scheduler()
    ticks = []

    def tick():
        ticks.append(sched.now_ns)
        if len(ticks) < 3:
            sched.schedule(10, tick)

    sched.schedule(0, tick)
    sched.run()
    assert ticks == [0, 10, 20]


def test_max_events_budget():
    sched = Scheduler()

    def forever():
        sched.schedule(1, forever)

    sched.schedule(0, forever)
    executed = sched.run(max_events=50)
    assert executed == 50


def test_every_fires_at_fixed_interval():
    sched = Scheduler()
    ticks = []
    sched.every(100, lambda: ticks.append(sched.now_ns))
    sched.run(until_ns=550)
    assert ticks == [100, 200, 300, 400, 500]


@pytest.mark.parametrize("interval_ns", [0, -100, 0.5])
def test_every_refuses_an_interval_under_one_ns(interval_ns):
    sched = Scheduler()
    with pytest.raises(ValueError):
        sched.every(interval_ns, lambda: None)
    assert sched.pending == 0 and sched._daemons == 0


def test_every_cancel_stops_recurrence():
    sched = Scheduler()
    ticks = []
    timer = sched.every(100, lambda: ticks.append(sched.now_ns))
    sched.run(until_ns=250)
    assert timer.active and timer.fires == 2
    timer.cancel()
    assert not timer.active
    sched.run()
    assert ticks == [100, 200]


def test_every_callback_can_cancel_itself():
    sched = Scheduler()
    ticks = []
    timer = sched.every(100, lambda: (ticks.append(sched.now_ns), timer.cancel()))
    sched.run(until_ns=1000)
    assert ticks == [100]


def test_timers_are_daemons_horizonless_run_returns():
    """Armed recurring timers alone don't wedge a horizon-less run():
    like daemon threads, they run while real work remains and are
    abandoned once only they are left on the heap."""
    sched = Scheduler()
    ticks, work = [], []
    sched.every(100, lambda: ticks.append(sched.now_ns))
    sched.schedule(350, work.append, "done")
    sched.run()  # returns — does not spin on the timer forever
    assert work == ["done"]
    assert ticks == [100, 200, 300]  # timers ran while work was pending
    sched.run()  # nothing but the timer left: returns immediately
    assert ticks == [100, 200, 300]


def test_every_passes_args():
    sched = Scheduler()
    seen = []
    sched.every(50, seen.append, "x")
    sched.run(until_ns=120)
    assert seen == ["x", "x"]


def test_pending_is_constant_time_and_correct():
    sched = Scheduler()
    events = [sched.schedule(100 + i, lambda: None) for i in range(100)]
    assert sched.pending == 100
    for event in events[:40]:
        sched.cancel(event)
    assert sched.pending == 60
    sched.cancel(events[0])  # double-cancel must not double-count
    assert sched.pending == 60
    sched.run()
    assert sched.pending == 0


def test_event_budget_break_does_not_fast_forward_past_queued_events():
    """max_events cutting a horizoned run short must not jump the clock
    past events still queued before the horizon (time would regress)."""
    sched = Scheduler()
    times = []
    sched.schedule(100, lambda: times.append(sched.now_ns))
    sched.schedule(200, lambda: times.append(sched.now_ns))
    sched.run(until_ns=1000, max_events=1)
    assert sched.now_ns == 100  # not 1000: an event at 200 is still queued
    sched.run(until_ns=1000)
    assert times == [100, 200]
    assert sched.now_ns == 1000  # clean finish does fast-forward


def test_cancelling_an_executed_event_does_not_corrupt_pending():
    """Stale-handle cancels (OAM timeouts, TCP RTO re-arms cancel events
    that already fired) must not skew the pending accounting."""
    sched = Scheduler()
    stale = sched.schedule(10, lambda: None)
    sched.run()
    sched.cancel(stale)
    sched.cancel(stale)
    assert sched.pending == 0
    follow = sched.schedule(10, lambda: None)
    assert sched.pending == 1  # not 0: the late cancel was a no-op
    sched.cancel(follow)
    assert sched.pending == 0
    assert sched.run() == 0


# --- links -------------------------------------------------------------------


def two_nodes():
    sched = Scheduler()
    clock = lambda: sched.now_ns  # noqa: E731
    a, b = Node("A", clock_ns=clock), Node("B", clock_ns=clock)
    a.add_device("eth0")
    b.add_device("eth0")
    a.add_address("fc00::a")
    b.add_address("fc00::b")
    a.add_route("fc00::b/128", via="fc00::b", dev="eth0")
    b.add_route("fc00::a/128", via="fc00::a", dev="eth0")
    return sched, a, b


def test_link_delivers_after_delay():
    sched, a, b = two_nodes()
    Link(sched, a.devices["eth0"], b.devices["eth0"], rate_bps=1e9, delay_ns=1 * NS_PER_MS)
    seen = []
    b.bind(lambda pkt, node, _offset: seen.append(sched.now_ns), proto=17, port=5)
    a.send(make_udp_packet("fc00::a", "fc00::b", 1, 5, b"x" * 100))
    sched.run()
    assert len(seen) == 1
    # 148 bytes at 1 Gb/s = 1184 ns serialisation + 1 ms propagation.
    assert seen[0] == 1 * NS_PER_MS + int(148 * 8)


def test_link_delivery_accounts_the_receiving_device():
    """The link hands its batch to the peer node on the peer device: the
    device's ``ip -s link`` rx counters and each packet's ``input_dev``."""
    sched, a, b = two_nodes()
    b.add_device("eth1")
    link = Link(sched, a.devices["eth0"], b.devices["eth0"], rate_bps=1e9, delay_ns=100)
    seen = []
    b.bind(lambda pkt, node, _offset: seen.append(pkt.input_dev), proto=17, port=5)
    pkts = [make_udp_packet("fc00::a", "fc00::b", 1, 5, b"x" * size) for size in (10, 20, 30)]
    a.send_batch(pkts)
    sched.run()
    stats = b.devices["eth0"].stats
    assert seen == ["eth0"] * 3
    assert stats.rx_packets == link.a_to_b.stats.delivered == 3
    assert stats.rx_bytes == sum(len(pkt.data) for pkt in pkts)
    assert b.devices["eth1"].stats.rx_packets == 0 and b.counters.rx == 3


def test_link_serialisation_spaces_packets():
    sched, a, b = two_nodes()
    Link(sched, a.devices["eth0"], b.devices["eth0"], rate_bps=1e6, delay_ns=0)
    times = []
    b.bind(lambda pkt, node, _offset: times.append(sched.now_ns), proto=17, port=5)
    for _ in range(3):
        a.send(make_udp_packet("fc00::a", "fc00::b", 1, 5, b"x" * 77))
    sched.run()
    assert len(times) == 3
    gap = times[1] - times[0]
    assert gap == times[2] - times[1]
    assert gap == int(125 * 8 * NS_PER_SEC / 1e6)  # 125 wire bytes at 1 Mb/s


def test_link_queue_limit_drops():
    sched, a, b = two_nodes()
    link = Link(
        sched, a.devices["eth0"], b.devices["eth0"], rate_bps=1e3, delay_ns=0, queue_limit=5
    )
    for _ in range(10):
        a.send(make_udp_packet("fc00::a", "fc00::b", 1, 5, b""))
    sched.run()
    assert link.a_to_b.stats.dropped == 5
    assert link.a_to_b.stats.delivered == 5


def test_link_down_drops_in_flight_and_new_sends():
    sched, a, b = two_nodes()
    link = Link(sched, a.devices["eth0"], b.devices["eth0"], rate_bps=1e9, delay_ns=1 * NS_PER_MS)
    seen = []
    b.bind(lambda pkt, node, _offset: seen.append(sched.now_ns), proto=17, port=5)
    a.send(make_udp_packet("fc00::a", "fc00::b", 1, 5, b"x" * 100))
    # The packet is serialised and propagating; kill the link under it.
    sched.run(until_ns=NS_PER_MS // 2)
    assert link.up
    link.set_down()
    assert not link.up
    a.send(make_udp_packet("fc00::a", "fc00::b", 1, 5, b"y" * 100))
    sched.run()
    assert seen == []  # neither the in-flight nor the new packet arrived
    assert link.a_to_b.stats.dropped == 2
    assert link.a_to_b.queue_depth == 0


def test_link_down_clears_serialisation_backlog():
    """Packets dropped at set_down() release their tx reservations: the
    first post-recovery send must not wait out a phantom backlog."""
    sched, a, b = two_nodes()
    # 8 kb/s: each 100-byte payload (~148 wire bytes) holds the line for
    # ~148 ms, so 5 queued packets reserve ~740 ms of serialisation.
    link = Link(sched, a.devices["eth0"], b.devices["eth0"], rate_bps=8e3, delay_ns=1000)
    arrivals = []
    b.bind(lambda pkt, node, _offset: arrivals.append(sched.now_ns), proto=17, port=5)
    for _ in range(5):
        a.send(make_udp_packet("fc00::a", "fc00::b", 1, 5, b"x" * 100))
    sched.run(until_ns=NS_PER_MS)
    link.set_down()
    link.set_up()
    a.send(make_udp_packet("fc00::a", "fc00::b", 1, 5, b"y" * 100))
    sched.run()
    # The new packet serialises from 'now', not after the dead backlog.
    assert len(arrivals) == 1
    assert arrivals[0] < 200 * NS_PER_MS


def test_link_recovery_resumes_delivery_and_notifies_watchers():
    sched, a, b = two_nodes()
    link = Link(sched, a.devices["eth0"], b.devices["eth0"], rate_bps=1e9, delay_ns=100)
    transitions = []
    link.watchers.append(lambda lnk, up: transitions.append((sched.now_ns, up)))
    seen = []
    b.bind(lambda pkt, node, _offset: seen.append(1), proto=17, port=5)
    link.set_down()
    link.set_down()  # idempotent: watchers fire once
    a.send(make_udp_packet("fc00::a", "fc00::b", 1, 5, b""))
    sched.run()
    assert seen == []
    link.set_up()
    a.send(make_udp_packet("fc00::a", "fc00::b", 1, 5, b""))
    sched.run()
    assert seen == [1]
    assert [up for _t, up in transitions] == [False, True]


def test_link_is_bidirectional():
    sched, a, b = two_nodes()
    Link(sched, a.devices["eth0"], b.devices["eth0"], rate_bps=1e9, delay_ns=100)
    seen = []
    a.bind(lambda pkt, node, _offset: seen.append("a"), proto=17, port=5)
    b.bind(lambda pkt, node, _offset: seen.append("b"), proto=17, port=5)
    a.send(make_udp_packet("fc00::a", "fc00::b", 1, 5, b""))
    b.send(make_udp_packet("fc00::b", "fc00::a", 1, 5, b""))
    sched.run()
    assert sorted(seen) == ["a", "b"]


def test_a_handle_cancels_before_its_run_once_and_never_after():
    """Cancel before the run, twice, and after the run: each dead entry is
    accounted once, and a late cancel leaves a live neighbour alone."""
    sched = Scheduler()
    seen = []
    early = sched.schedule(10, seen.append, "early")
    dead = sched.schedule(20, seen.append, "dead")
    late = sched.schedule(30, seen.append, "late")
    sched.cancel(dead)
    sched.cancel(dead)
    assert (sched.pending, sched._cancelled) == (2, 1)
    assert sched.run(until_ns=15) == 1 and seen == ["early"]
    sched.cancel(early)  # it ran: a no-op
    assert (sched.pending, sched._cancelled) == (1, 1)
    assert sched.run() == 1 and seen == ["early", "late"]
    sched.cancel(late)
    sched.cancel(dead)
    assert (sched.pending, sched._cancelled, sched.events_run) == (0, 0, 2)


def test_a_cancelled_timer_firing_is_neither_pending_work_nor_a_daemon():
    """Cancelling the entry a timer armed (not the timer) accounts it as a
    daemon gone: ``pending`` and ``_daemons`` both drop by one, once."""
    sched = Scheduler()
    ticks, work = [], []
    timer = sched.every(100, ticks.append, "tick")
    sched.schedule(350, work.append, "done")
    assert (sched.pending, sched._daemons) == (2, 1)
    firing = timer._event
    sched.cancel(firing)
    sched.cancel(firing)
    assert (sched.pending, sched._daemons, sched._cancelled) == (1, 0, 1)
    timer.cancel()  # its armed firing is the dead one: a no-op
    assert (sched.pending, sched._daemons, sched._cancelled) == (1, 0, 1)
    sched.run()
    assert ticks == [] and work == ["done"]
    assert (sched.pending, sched._daemons, sched._cancelled) == (0, 0, 0)


def test_a_timer_firing_rearms_as_one_daemon():
    sched = Scheduler()
    timer = sched.every(100, lambda: None)
    sched.run(until_ns=250)
    assert timer.fires == 2
    assert (sched.pending, sched._daemons, sched._cancelled) == (1, 1, 0)
    timer.cancel()
    assert (sched.pending, sched._daemons, sched._cancelled) == (0, 0, 1)


def test_events_of_finds_a_links_in_flight_batch_and_set_down_loses_it():
    sched, a, b = two_nodes()
    link = Link(sched, a.devices["eth0"], b.devices["eth0"], rate_bps=1e9, delay_ns=1 * NS_PER_MS)
    seen = []
    b.bind(lambda pkt, node, _offset: seen.append(pkt), proto=17, port=5)
    pkts = [make_udp_packet("fc00::a", "fc00::b", 1, 5, b"x" * size) for size in (10, 20)]
    a.send_batch(pkts)
    sched.run(until_ns=NS_PER_MS // 2)
    (in_flight,) = sched.events_of(link.a_to_b)
    assert in_flight[6][0] == pkts and in_flight[5] == link.a_to_b._deliver_batch
    assert sched.events_of(link.b_to_a) == []
    assert (sched.pending, link.a_to_b.queue_depth) == (1, 2)
    link.set_down()
    assert sched.events_of(link.a_to_b) == [] and sched.pending == 0
    assert (link.a_to_b.stats.dropped, link.a_to_b.queue_depth) == (2, 0)
    sched.run()
    assert seen == [] and link.a_to_b.stats.delivered == 0


def test_a_batch_overflowing_the_transmit_queue_loses_its_tail():
    """Room for three: a batch of five keeps its first three, in order, as
    one coalesced delivery, and drops the last two."""
    sched, a, b = two_nodes()
    link = Link(
        sched, a.devices["eth0"], b.devices["eth0"], rate_bps=1e9, delay_ns=100, queue_limit=4
    )
    seen = []
    b.bind(lambda pkt, node, _offset: seen.append(len(pkt.data)), proto=17, port=5)
    a.send(make_udp_packet("fc00::a", "fc00::b", 1, 5, b""))
    a.send_batch([make_udp_packet("fc00::a", "fc00::b", 1, 5, b"x" * size) for size in range(1, 6)])
    assert (link.a_to_b.queue_depth, link.a_to_b.stats.dropped) == (4, 2)
    assert sched.events_coalesced == 2
    sched.run()
    assert seen == [48, 49, 50, 51]
    assert (link.a_to_b.stats.sent, link.a_to_b.stats.delivered) == (4, 4)
    assert link.a_to_b.stats.bytes_sent == 48 + 49 + 50 + 51
