"""TwdDaemon unit behaviour: probe format, EWMA, compensation control."""

import struct

import pytest

from repro.net import Node, Packet, SRH, pton
from repro.sim import NetemQdisc, Scheduler
from repro.sim.scheduler import NS_PER_MS
from repro.usecases.hybrid import TWD_PORT, TwdDaemon


@pytest.fixture
def daemon_env():
    sched = Scheduler()
    node = Node("A", clock_ns=lambda: sched.now_ns)
    node.add_device("dsl")
    node.add_device("lte")
    node.add_address("fc00:aa::1")
    node.add_route("fc00:bb::dd0/128", via="fc00:bb::1", dev="dsl")
    node.add_route("fc00:bb::dd1/128", via="fc00:bb::1", dev="lte")
    comp0 = NetemQdisc(sched, seed=1)
    comp1 = NetemQdisc(sched, seed=2)
    daemon = TwdDaemon(
        node,
        sched,
        ("fc00:bb::dd0", "fc00:bb::dd1"),
        ("fc00:aa::d0", "fc00:aa::d1"),
        (comp0, comp1),
        interval_ns=10 * NS_PER_MS,
    )
    sched.run(until_ns=1_000 * NS_PER_MS)  # synthetic TX times stay positive
    return sched, node, daemon, (comp0, comp1)


def test_probe_packet_structure(daemon_env):
    sched, node, daemon, _ = daemon_env
    daemon._send_probe(0)
    probe = node.devices["dsl"].tx_buffer.pop()
    assert probe.dst == pton("fc00:bb::dd0")
    srh, _off = probe.srh()
    assert srh.segments_left == 1
    assert srh.segments[0] == pton("fc00:aa::d0")  # same-link return
    by_type = {tlv.tlv_type: tlv for tlv in srh.tlvs}
    dm, ctrl = by_type[0x80], by_type[0x81]
    assert dm.value[8] == 1  # TWD kind
    assert ctrl.value[:16] == pton("fc00:aa::1")
    assert struct.unpack(">H", ctrl.value[16:18])[0] == TWD_PORT


def test_probe_on_link1_pins_link1(daemon_env):
    sched, node, daemon, _ = daemon_env
    daemon._send_probe(1)
    assert node.devices["lte"].tx_buffer
    assert not node.devices["dsl"].tx_buffer


def _return_probe(daemon, node, link, rtt_ns, sched):
    """Synthesise a returning probe with a given apparent RTT."""
    from repro.net import make_udp_packet

    tx = sched.now_ns - rtt_ns
    me = node.primary_address()
    inner = make_udp_packet(
        me, me, TWD_PORT, TWD_PORT, struct.pack("<BQ", link, tx)
    )
    daemon._on_probe_return(inner, node, 40)  # the UDP header follows IPv6's


def test_ewma_and_compensation(daemon_env):
    sched, node, daemon, comps = daemon_env
    # Real probes cross the compensating qdisc once per round trip, so
    # the synthetic RTT must include the correction currently in effect.
    for _ in range(10):
        _return_probe(daemon, node, 0, 30 * NS_PER_MS + comps[0].delay_ns, sched)
        _return_probe(daemon, node, 1, 5 * NS_PER_MS + comps[1].delay_ns, sched)
    assert daemon.compensated_link == 1
    # One-way compensation converges toward (30 - 5) / 2 = 12.5 ms.
    assert abs(daemon.applied_delay_ns - 12_500_000) < 2 * NS_PER_MS
    assert comps[1].delay_ns == daemon.applied_delay_ns
    assert comps[0].delay_ns == 0


def test_compensation_flips_when_links_swap(daemon_env):
    sched, node, daemon, comps = daemon_env
    for _ in range(10):
        _return_probe(daemon, node, 0, 5 * NS_PER_MS + comps[0].delay_ns, sched)
        _return_probe(daemon, node, 1, 30 * NS_PER_MS + comps[1].delay_ns, sched)
    assert daemon.compensated_link == 0
    assert comps[0].delay_ns > 0
    assert comps[1].delay_ns == 0


def test_equal_links_need_no_compensation(daemon_env):
    sched, node, daemon, comps = daemon_env
    for _ in range(10):
        _return_probe(daemon, node, 0, 10 * NS_PER_MS, sched)
        _return_probe(daemon, node, 1, 10 * NS_PER_MS, sched)
    assert daemon.applied_delay_ns < NS_PER_MS


def test_daemon_ignores_garbage_payloads(daemon_env):
    sched, node, daemon, _ = daemon_env
    from repro.net import make_udp_packet

    me = node.primary_address()
    daemon._on_probe_return(make_udp_packet(me, me, 1, TWD_PORT, b"xx"), node, 40)
    daemon._on_probe_return(
        make_udp_packet(me, me, 1, TWD_PORT, struct.pack("<BQ", 9, 0)), node, 40
    )
    assert daemon.samples == []


def test_base_rtt_subtraction_converges_not_oscillates(daemon_env):
    """The control loop subtracts its own correction, so repeated
    measurement rounds settle instead of ping-ponging."""
    sched, node, daemon, comps = daemon_env
    applied = []
    for _round in range(8):
        # The measured fast-link RTT includes the current compensation.
        _return_probe(daemon, node, 0, 30 * NS_PER_MS, sched)
        _return_probe(daemon, node, 1, 5 * NS_PER_MS + comps[1].delay_ns, sched)
        applied.append(daemon.applied_delay_ns)
    # Converged: the last two corrections are nearly identical.
    assert abs(applied[-1] - applied[-2]) < NS_PER_MS
    assert abs(applied[-1] - 12_500_000) < 3 * NS_PER_MS
