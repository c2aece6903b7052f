"""§4.1 delay monitoring: sampler, End.DM, daemon, collector."""

import pytest

from repro.lab import build_setup1
from repro.net import Node, make_udp_packet, ntop, pton
from repro.sim import FlowMeter, Link, Scheduler, UdpFlow
from repro.sim.scheduler import NS_PER_MS, NS_PER_SEC
from repro.usecases import (
    DelayCollector,
    DmDaemon,
    deploy_owd_monitoring,
    install_dm_sampler,
    install_end_dm,
)


@pytest.fixture
def monitored_setup():
    """Setup 1 with OWD monitoring S1 -> S2 and a 3 ms head link."""
    setup = build_setup1()
    for endpoint in (setup.links[0].a_to_b, setup.links[0].b_to_a):
        endpoint.delay_ns = 3 * NS_PER_MS
    handles = deploy_owd_monitoring(
        head=setup.s1,
        tail=setup.s2,
        controller_node=setup.s1,
        monitored_prefix="fc00:2::/64",
        dm_segment="fc00:2::dd",
        controller_addr="fc00:1::1",
        ratio=1,  # probe every packet (deterministic for tests)
        via="fc00:1::ff",
        dev="eth0",
    )
    setup.r.add_route("fc00:2::dd/128", via="fc00:2::2", dev="eth1")
    handles.daemon.start(setup.scheduler, interval_ns=NS_PER_MS)
    return setup, handles


def test_owd_pipeline_end_to_end(monitored_setup):
    setup, handles = monitored_setup
    meter = FlowMeter()
    setup.s2.bind(meter.on_packet, proto=17, port=5201)
    flow = UdpFlow(
        setup.scheduler, setup.s1, "fc00:1::1", "fc00:2::2", rate_bps=10e6, payload_size=200
    )
    flow.start(duration_ns=NS_PER_SEC // 10)
    setup.scheduler.run(until_ns=NS_PER_SEC // 2)

    # Every packet was probed; traffic still reached the sink intact.
    assert meter.packets == flow.stats.sent
    samples = handles.collector.samples
    assert len(samples) == flow.stats.sent
    # Measured one-way delay is at least the propagation delay and sane.
    mean = handles.collector.mean_delay_ns()
    assert 3 * NS_PER_MS <= mean < 5 * NS_PER_MS


def test_probing_ratio_subsamples(monitored_setup):
    setup, handles = monitored_setup
    handles.sampler.set_ratio(10)
    meter = FlowMeter()
    setup.s2.bind(meter.on_packet, proto=17, port=5201)
    flow = UdpFlow(
        setup.scheduler, setup.s1, "fc00:1::1", "fc00:2::2", rate_bps=20e6, payload_size=200
    )
    flow.start(duration_ns=NS_PER_SEC // 5)
    setup.scheduler.run(until_ns=NS_PER_SEC)
    sent = flow.stats.sent
    sampled = len(handles.collector.samples)
    assert sent // 20 < sampled < sent // 4  # ~1/10, loosely bounded
    assert meter.packets == sent  # probed or not, everything arrives


def test_ratio_zero_disables_sampling(monitored_setup):
    setup, handles = monitored_setup
    handles.sampler.set_ratio(0)
    flow = UdpFlow(
        setup.scheduler, setup.s1, "fc00:1::1", "fc00:2::2", rate_bps=10e6, payload_size=200
    )
    flow.start(duration_ns=NS_PER_SEC // 10)
    setup.scheduler.run(until_ns=NS_PER_SEC // 2)
    assert handles.collector.samples == []


def test_probe_decapsulation_preserves_payload(monitored_setup):
    setup, handles = monitored_setup
    payloads = []
    setup.s2.bind(lambda pkt, node, _offset: payloads.append(pkt.udp_payload()), proto=17, port=4242)
    pkt = make_udp_packet("fc00:1::1", "fc00:2::2", 9, 4242, b"precious-bytes")
    setup.s1.send(pkt)
    setup.scheduler.run(until_ns=NS_PER_SEC // 10)
    assert payloads == [b"precious-bytes"]


def test_dm_events_carry_controller_coordinates(monitored_setup):
    setup, handles = monitored_setup
    flow = UdpFlow(
        setup.scheduler, setup.s1, "fc00:1::1", "fc00:2::2", rate_bps=5e6, payload_size=100
    )
    flow.start(duration_ns=NS_PER_SEC // 20)
    setup.scheduler.run(until_ns=NS_PER_SEC // 4)
    assert handles.daemon.relayed > 0
    # All reports landed at the configured collector port.
    assert all(s.kind == 0 for s in handles.collector.samples)


def test_collector_ignores_short_datagrams():
    node = Node("C")
    node.add_device("eth0")
    node.add_address("fc00::c")
    collector = DelayCollector(node, port=8877)
    node.receive(make_udp_packet("fc00::1", "fc00::c", 1, 8877, b"xx"), node.devices["eth0"])
    assert collector.samples == []


def test_install_end_dm_returns_live_events_map():
    node = Node("T")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00::aaaa")
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1")
    events, action = install_end_dm(node, "fc00::ddd")
    assert action.kind == "End.BPF"
    assert events.ring(0).pushed == 0
