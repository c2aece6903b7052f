"""Traffic generators and flow metering."""

from repro.lab import build_setup1
from repro.net import EndBPF, Node, make_udp_packet
from repro.progs import end_prog
from repro.sim import (
    FlowMeter,
    Link,
    Scheduler,
    Srv6UdpFlood,
    UdpFlow,
    batch_srv6_udp,
    batch_udp,
    mbps,
)
from repro.sim.scheduler import NS_PER_SEC


def wired_pair():
    sched = Scheduler()
    clock = lambda: sched.now_ns  # noqa: E731
    a, b = Node("A", clock_ns=clock), Node("B", clock_ns=clock)
    a.add_device("eth0")
    b.add_device("eth0")
    a.add_address("fc00::a")
    b.add_address("fc00::b")
    a.add_route("fc00::b/128", via="fc00::b", dev="eth0")
    b.add_route("fc00::a/128", via="fc00::a", dev="eth0")
    Link(sched, a.devices["eth0"], b.devices["eth0"], rate_bps=1e9, delay_ns=1000)
    return sched, a, b


def test_udp_flow_rate_accuracy():
    sched, a, b = wired_pair()
    meter = FlowMeter()
    b.bind(meter.on_packet, proto=17, port=5201)
    flow = UdpFlow(sched, a, "fc00::a", "fc00::b", rate_bps=10e6, payload_size=1000)
    flow.start(duration_ns=NS_PER_SEC)
    sched.run()
    # On-wire rate targeted at 10 Mb/s; payload goodput slightly below.
    assert 8e6 < meter.goodput_bps() < 10.5e6
    assert meter.packets == flow.stats.sent


def test_flow_meter_tracks_delay():
    sched, a, b = wired_pair()
    meter = FlowMeter()
    b.bind(meter.on_packet, proto=17, port=5201)
    flow = UdpFlow(sched, a, "fc00::a", "fc00::b", rate_bps=1e6, payload_size=100)
    flow.start(duration_ns=NS_PER_SEC // 10)
    sched.run()
    assert meter.mean_delay_ns() > 1000  # at least the propagation delay


def test_flow_meter_detects_out_of_order():
    meter = FlowMeter()
    node = Node("X", clock_ns=lambda: 0)
    for seq in (1, 2, 5, 3, 6):
        pkt = make_udp_packet("fc00::1", "fc00::2", 1, 2, b"abc")
        pkt.seq = seq
        meter.on_packet(pkt, node, 40)
    assert meter.out_of_order == 1


def test_flow_duration_defaults_to_first_last():
    meter = FlowMeter()
    times = iter([100, 200, 300])
    node = Node("X", clock_ns=lambda: next(times))
    for _ in range(3):
        meter.on_packet(make_udp_packet("fc00::1", "fc00::2", 1, 2, b"ab"), node, 40)
    assert meter.goodput_bps() == 6 * 8 * 1e9 / 200


def test_udp_flow_stop():
    sched, a, b = wired_pair()
    flow = UdpFlow(sched, a, "fc00::a", "fc00::b", rate_bps=10e6, payload_size=100)
    flow.start()
    sched.run(until_ns=NS_PER_SEC // 100)
    flow.stop()
    sent = flow.stats.sent
    sched.run(until_ns=NS_PER_SEC)
    assert flow.stats.sent == sent


def test_srv6_flood_builds_srh_packets():
    sched, a, b = wired_pair()
    a.add_route("fc00::51/128", via="fc00::b", dev="eth0")
    flood = Srv6UdpFlood(
        sched, a, "fc00::a", ["fc00::51", "fc00::b"], rate_bps=1e6, payload_size=64
    )
    flood.start(duration_ns=NS_PER_SEC // 100)
    sched.run()
    assert flood.stats.sent > 0


def test_batch_builders():
    plain = batch_udp("fc00::1", "fc00::2", 10, payload_size=64)
    assert len(plain) == 10
    assert all(p.udp_payload() == bytes(64) for p in plain)
    srv6 = batch_srv6_udp("fc00::1", ["fc00::a", "fc00::b"], 5, payload_size=64)
    assert all(p.srh() is not None for p in srv6)
    # Varying source ports -> flows spread over ECMP.
    assert len({p.l4()[1] for p in plain}) > 1


def test_mbps_helper():
    assert mbps(5_000_000) == 5.0


def setup1_flood(duration_ns: int):
    """A Setup 1 trafgen flood through End.BPF on R, started at t = 0."""
    setup = build_setup1()
    net = setup.net
    net.attach("R", setup.FUNC_SEGMENT, EndBPF(end_prog()))
    flow = net.trafgen(
        "S1", path=[setup.FUNC_SEGMENT, setup.S2_ADDR], rate_bps=400e6, payload_size=64, seed=1
    )
    meter = net.sink("S2")
    flow.start(at_ns=0, duration_ns=duration_ns)
    return net, flow, meter


def test_a_packet_sent_at_time_zero_is_delay_sampled():
    net, flow, meter = setup1_flood(10_000)  # ticks at 0, 2240, ... 8960 ns
    net.run()
    assert flow.stats.sent == meter.packets == 5
    assert meter.delay_count == 5
    assert len(meter.delays_ns) == 5 and min(meter.delays_ns) > 0


def test_an_unstamped_packet_is_not_delay_sampled():
    meter = FlowMeter()
    node = Node("X", clock_ns=lambda: 50)
    meter.on_packet(make_udp_packet("fc00::1", "fc00::2", 1, 2, b"ab"), node, 40)
    stamped = make_udp_packet("fc00::1", "fc00::2", 1, 2, b"ab")
    stamped.tx_tstamp_ns = 0
    meter.on_packet(stamped, node, 40)
    assert meter.packets == 2
    assert meter.delays_ns == [50]


def test_a_restarted_flow_runs_one_tick_chain():
    window = 50_000
    net, flow, meter = setup1_flood(window)
    net.run(until_ns=window)  # the last tick has armed the next one
    flow.stop()
    flow.start(duration_ns=window)  # within one interval of that tick
    net.run()
    due = 2 * -(-window // flow.interval_ns)  # one tick per interval, per window
    assert flow.stats.sent == meter.packets == due
