"""The §4 daemons tick on ``Scheduler.every``: a started daemon never keeps a run going.

Timer firings are daemon events, so a horizon-less ``Scheduler.run()``
returns once only timers are left.  A daemon that re-scheduled itself with
plain events would run until the event budget below cut it off.
"""

import struct

import pytest

from repro.ebpf import PerfEventArrayMap
from repro.net import Node, pton
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



CONTROLLER, PROBER, TARGET = pton("fc00:c::1"), pton("fc00:a0::1"), pton("fc00:b0::1")
NEXTHOPS = [pton("fc00:d0::1"), pton("fc00:d0::2")]
RELAYS = {  # name: (daemon, its default source port, one event record, the reply's dst, dst port, payload)
    "dm": (DmDaemon, 8878, struct.pack("<QQ", 100, 250) + CONTROLLER + struct.pack(">HB5x", 8877, 1),
           CONTROLLER, 8877, struct.pack("<QQB", 100, 250, 1)),
    "oamp": (OampDaemon, 8891, struct.pack("<I", 2) + struct.pack(">H2x", 8892) + PROBER + TARGET + b"".join(NEXTHOPS) + bytes(32),
             PROBER, 8892, b"OAMP" + TARGET + struct.pack("<I", 2) + b"".join(NEXTHOPS)),
}


@pytest.mark.parametrize("name", sorted(RELAYS))
@pytest.mark.parametrize("src_port", [None, 7000])
def test_a_relay_daemon_answers_each_event_with_one_datagram(name, src_port):
    cls, default_port, record, dst, dst_port, payload = RELAYS[name]
    node = Node("A")
    node.add_address("fc00:aa::1")
    sent = []
    node.send = sent.append
    events = PerfEventArrayMap(f"{name}_events")
    daemon = cls(node, events) if src_port is None else cls(node, events, src_port=src_port)
    events.output(0, record)
    events.output(0, record)
    assert daemon.poll() == 2 and daemon.relayed == 2 and daemon.poll() == 0
    data = bytes(sent[0].data)
    assert data[8:24] == pton("fc00:aa::1") and data[24:40] == dst
    assert struct.unpack_from(">HH", data, 40) == (src_port or default_port, dst_port)
    assert data[48:] == payload and bytes(sent[1].data) == data
