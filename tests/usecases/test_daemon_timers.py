"""The §4 daemons tick on ``Scheduler.every``: a started daemon never keeps a run going.

Timer firings are daemon events, so a horizon-less ``Scheduler.run()``
returns once only timers are left.  A daemon that re-scheduled itself with
plain events would run until the event budget below cut it off.
"""

import pytest

from repro.ebpf import PerfEventArrayMap
from repro.net import Node
from repro.sim import NetemQdisc, Scheduler
from repro.sim.scheduler import NS_PER_MS
from repro.usecases.delay import DmDaemon
from repro.usecases.hybrid import TwdDaemon
from repro.usecases.oam import OampDaemon

BUDGET = 5000


def started(name: str, scheduler: Scheduler):
    node = Node("A", clock_ns=lambda: scheduler.now_ns)
    node.add_address("fc00:aa::1")
    node.add_device("eth0")
    node.add_route("::/0", via="fc00:bb::1", dev="eth0")
    if name == "dm":
        daemon = DmDaemon(node, PerfEventArrayMap("dm_events"))
        daemon.start(scheduler, interval_ns=NS_PER_MS)
    elif name == "oamp":
        daemon = OampDaemon(node, PerfEventArrayMap("oamp_events"))
        daemon.start(scheduler)
    else:
        compensators = (NetemQdisc(scheduler, seed=1), NetemQdisc(scheduler, seed=2))
        daemon = TwdDaemon(
            node, scheduler, ("fc00:bb::dd0", "fc00:bb::dd1"), ("fc00:aa::d0", "fc00:aa::d1"), compensators
        )
        daemon.start()
    return daemon


@pytest.mark.parametrize("name", ["dm", "oamp", "twd"])
def test_a_horizon_less_run_returns_with_the_daemon_started(name):
    scheduler = Scheduler()
    daemon = started(name, scheduler)
    executed = scheduler.run(max_events=BUDGET)
    assert executed < BUDGET
    if name == "twd":  # the first probes leave at t = 0, the rest on the timer
        assert executed == 1 and scheduler.now_ns == 0
        assert len(daemon.node.devices["eth0"].tx_buffer) == 2  # one probe per link
    else:
        assert executed == 0

