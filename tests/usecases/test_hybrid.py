"""§4.2 hybrid access: WRR aggregation, TWD daemon, delay compensation."""

import pytest

from repro.lab import HybridLinkSpec, Setup2, build_setup2
from repro.sim import FlowMeter, UdpFlow, make_connection, mbps
from repro.sim.scheduler import NS_PER_MS, NS_PER_SEC
from repro.usecases import deploy_hybrid_access


FAST_LINKS = (  # scaled-down shaping for quick tests
    HybridLinkSpec(50e6, 30 * NS_PER_MS, 5 * NS_PER_MS),
    HybridLinkSpec(30e6, 5 * NS_PER_MS, 2 * NS_PER_MS),
)


def run_udp_bond(weights=(5, 3), duration=0.5, rate=200e6, payload=1400):
    setup = build_setup2()
    hybrid = deploy_hybrid_access(setup, weights=weights)
    meter = FlowMeter()
    setup.s2.bind(meter.on_packet, proto=17, port=5201)
    flow = UdpFlow(
        setup.scheduler, setup.s1, "fc00:1::1", "fc00:2::2",
        rate_bps=rate, payload_size=payload,
    )
    flow.start(duration_ns=int(duration * NS_PER_SEC))
    setup.scheduler.run(until_ns=int((duration + 0.3) * NS_PER_SEC))
    return setup, hybrid, meter, flow


def test_udp_aggregates_both_links():
    _setup, _hybrid, meter, _flow = run_udp_bond()
    goodput = mbps(meter.goodput_bps())
    # Two bonded links (50 + 30 Mb/s) minus encap overhead: well above
    # what either single link could carry.
    assert 60 < goodput <= 80


def test_wrr_split_matches_weights():
    _setup, hybrid, _meter, _flow = run_udp_bond(weights=(5, 3))
    _c0, _c1, pkts0, pkts1 = hybrid.wrr_down.counters()
    assert pkts0 + pkts1 > 100
    ratio = pkts0 / pkts1
    assert 5 / 3 * 0.95 < ratio < 5 / 3 * 1.05


def test_wrr_equal_weights_split_evenly():
    _setup, hybrid, _meter, _flow = run_udp_bond(weights=(1, 1), duration=0.2)
    _c0, _c1, pkts0, pkts1 = hybrid.wrr_down.counters()
    assert abs(pkts0 - pkts1) <= 1


def test_wrr_reconfigurable_at_runtime():
    setup = build_setup2()
    hybrid = deploy_hybrid_access(setup, weights=(1, 1))
    hybrid.wrr_down.set_weights(9, 1)
    meter = FlowMeter()
    setup.s2.bind(meter.on_packet, proto=17, port=5201)
    flow = UdpFlow(
        setup.scheduler, setup.s1, "fc00:1::1", "fc00:2::2", rate_bps=50e6, payload_size=1000
    )
    flow.start(duration_ns=NS_PER_SEC // 5)
    setup.scheduler.run(until_ns=NS_PER_SEC // 2)
    _c0, _c1, pkts0, pkts1 = hybrid.wrr_down.counters()
    assert pkts0 > 5 * pkts1


def test_upstream_direction_also_bonded():
    setup = build_setup2()
    hybrid = deploy_hybrid_access(setup, weights=(5, 3))
    meter = FlowMeter()
    setup.s1.bind(meter.on_packet, proto=17, port=5201)
    flow = UdpFlow(
        setup.scheduler, setup.s2, "fc00:2::2", "fc00:1::1", rate_bps=100e6, payload_size=1200
    )
    flow.start(duration_ns=NS_PER_SEC // 4)
    setup.scheduler.run(until_ns=NS_PER_SEC // 2)
    assert meter.packets > 100
    _c0, _c1, pkts0, pkts1 = hybrid.wrr_up.counters()
    assert pkts0 > 0 and pkts1 > 0


def test_decap_removes_all_srv6_state():
    _setup, _hybrid, meter, _flow = run_udp_bond(duration=0.1)
    # The sink observes plain IPv6 (the meter saw UDP payloads; check one).
    assert meter.payload_bytes > 0


def test_twd_daemon_measures_link_rtts():
    setup = build_setup2()
    hybrid = deploy_hybrid_access(setup, weights=(5, 3), compensation=True)
    setup.scheduler.run(until_ns=2 * NS_PER_SEC)
    daemon = hybrid.daemon
    rtt0, rtt1 = daemon.rtt_ewma_ns
    assert rtt0 is not None and rtt1 is not None
    # Link 0 is the 30 ms-RTT link; link 1 the 5 ms one (plus compensation).
    assert 25 * NS_PER_MS < rtt0 < 40 * NS_PER_MS
    assert daemon.compensated_link == 1


def test_twd_compensation_converges_to_gap():
    setup = build_setup2()
    hybrid = deploy_hybrid_access(setup, weights=(5, 3), compensation=True)
    setup.scheduler.run(until_ns=3 * NS_PER_SEC)
    applied_ms = hybrid.daemon.applied_delay_ns / NS_PER_MS
    # One-way gap between 30 ms and 5 ms RTT paths is 12.5 ms.
    assert 9 < applied_ms < 16


def test_compensation_equalises_one_way_delays():
    setup = build_setup2()
    hybrid = deploy_hybrid_access(setup, weights=(5, 3), compensation=True)
    setup.scheduler.run(until_ns=2 * NS_PER_SEC)
    # Compensation delays the fast link's *downstream* direction only, so
    # the measured RTT gap converges to the (uncompensated) return-leg
    # gap, which equals the applied one-way delay.
    daemon = hybrid.daemon
    recent = daemon.samples[-8:]
    rtts = {0: [], 1: []}
    for link, rtt in recent:
        rtts[link].append(rtt)
    mean0 = sum(rtts[0]) / len(rtts[0])
    mean1 = sum(rtts[1]) / len(rtts[1])
    residual_gap = abs(mean0 - mean1)
    assert abs(residual_gap - daemon.applied_delay_ns) < 6 * NS_PER_MS


def test_tcp_collapses_without_compensation():
    setup = build_setup2()
    deploy_hybrid_access(setup, weights=(5, 3), compensation=False)
    sender, receiver = make_connection(
        setup.scheduler, setup.s1, setup.s2, "fc00:1::1", "fc00:2::2", 5000
    )
    sender.start()
    setup.scheduler.run(until_ns=4 * NS_PER_SEC)
    goodput = mbps(receiver.goodput_bps())
    assert goodput < 15  # the paper's "disaster" (3.8 Mb/s of 80)
    assert sender.stats.fast_retransmits > 3


def test_tcp_recovers_with_compensation():
    setup = build_setup2()
    deploy_hybrid_access(setup, weights=(5, 3), compensation=True)
    sender, receiver = make_connection(
        setup.scheduler, setup.s1, setup.s2, "fc00:1::1", "fc00:2::2", 5000
    )
    setup.scheduler.run(until_ns=NS_PER_SEC)  # daemon warm-up
    sender.start()
    setup.scheduler.run(until_ns=5 * NS_PER_SEC)
    goodput = mbps(receiver.goodput_bps())
    assert goodput > 35  # paper: 68 Mb/s after compensation


def test_compensated_beats_uncompensated_by_large_factor():
    def run(compensation):
        setup = build_setup2()
        deploy_hybrid_access(setup, weights=(5, 3), compensation=compensation)
        sender, receiver = make_connection(
            setup.scheduler, setup.s1, setup.s2, "fc00:1::1", "fc00:2::2", 5000
        )
        setup.scheduler.run(until_ns=NS_PER_SEC)
        sender.start()
        setup.scheduler.run(until_ns=4 * NS_PER_SEC)
        return receiver.goodput_bps()

    assert run(True) > 4 * run(False)
