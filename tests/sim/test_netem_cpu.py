"""netem qdisc model and the CPU cost model."""

import pytest

from repro.net import NetDev, Node, make_udp_packet
from repro.sim import CostModel, CpuQueue, NetemQdisc, Scheduler
from repro.sim.scheduler import NS_PER_MS, NS_PER_SEC


def make_dev(sched):
    node = Node("N", clock_ns=lambda: sched.now_ns)
    return node.add_device("eth0")


def drain_times(sched, dev, count, qdisc, spacing_ns=0, size=100):
    """Enqueue ``count`` packets, return their emission times."""
    times = []
    original_wire = dev.wire

    def capture(pkts):
        times.extend(sched.now_ns for _pkt in pkts)

    dev.wire = capture
    for i in range(count):
        sched.schedule(i * spacing_ns, qdisc.enqueue, make_udp_packet(
            "fc00::1", "fc00::2", 1, 2, bytes(size)), dev)
    sched.run()
    dev.wire = original_wire
    return times


def test_fixed_delay():
    sched = Scheduler()
    dev = make_dev(sched)
    qdisc = NetemQdisc(sched, delay_ns=5 * NS_PER_MS)
    times = drain_times(sched, dev, 1, qdisc)
    assert times == [5 * NS_PER_MS]


def test_rate_limiting_paces_packets():
    sched = Scheduler()
    dev = make_dev(sched)
    qdisc = NetemQdisc(sched, rate_bps=1e6)
    times = drain_times(sched, dev, 3, qdisc, size=100)
    wire = 148  # 100 payload + 48 headers
    per_packet = int(wire * 8 * NS_PER_SEC / 1e6)
    assert times[1] - times[0] == per_packet
    assert times[2] - times[1] == per_packet


def test_jitter_varies_delay():
    sched = Scheduler()
    dev = make_dev(sched)
    qdisc = NetemQdisc(sched, delay_ns=10 * NS_PER_MS, jitter_ns=5 * NS_PER_MS, seed=3)
    times = drain_times(sched, dev, 20, qdisc, spacing_ns=20 * NS_PER_MS)
    deltas = {t - i * 20 * NS_PER_MS for i, t in enumerate(times)}
    assert len(deltas) > 5  # the hold times actually vary
    assert all(5 * NS_PER_MS <= d <= 15 * NS_PER_MS for d in deltas)


def test_ordered_mode_preserves_fifo():
    sched = Scheduler()
    dev = make_dev(sched)
    qdisc = NetemQdisc(
        sched, delay_ns=10 * NS_PER_MS, jitter_ns=9 * NS_PER_MS, seed=1, ordered=True
    )
    drain_times(sched, dev, 200, qdisc, spacing_ns=100_000)
    assert qdisc.stats.reordered == 0


def test_unordered_mode_reorders():
    sched = Scheduler()
    dev = make_dev(sched)
    qdisc = NetemQdisc(
        sched, delay_ns=10 * NS_PER_MS, jitter_ns=9 * NS_PER_MS, seed=1, ordered=False
    )
    drain_times(sched, dev, 200, qdisc, spacing_ns=100_000)
    assert qdisc.stats.reordered > 0


def test_loss_probability():
    sched = Scheduler()
    dev = make_dev(sched)
    qdisc = NetemQdisc(sched, loss=0.5, seed=5)
    times = drain_times(sched, dev, 400, qdisc)
    assert 120 < len(times) < 280
    assert qdisc.stats.lost == 400 - len(times)


def test_queue_limit():
    sched = Scheduler()
    dev = make_dev(sched)
    qdisc = NetemQdisc(sched, delay_ns=NS_PER_SEC, queue_limit=3)
    for _ in range(10):
        qdisc.enqueue(make_udp_packet("fc00::1", "fc00::2", 1, 2, b""), dev)
    assert qdisc.stats.lost == 7


def test_set_delay_reconfigures_live():
    sched = Scheduler()
    dev = make_dev(sched)
    qdisc = NetemQdisc(sched, delay_ns=NS_PER_MS)
    qdisc.set_delay(7 * NS_PER_MS)
    times = drain_times(sched, dev, 1, qdisc)
    assert times == [7 * NS_PER_MS]


# --- CPU model --------------------------------------------------------------------


def test_cpu_serialises_processing():
    sched = Scheduler()
    node = Node("M", clock_ns=lambda: sched.now_ns)
    model = CostModel(forward_ns=1000)
    cpu = CpuQueue(sched, model, node)
    done = []
    for _ in range(3):
        cpu.submit_batch(
            [make_udp_packet("fc00::1", "fc00::2", 1, 2, b"")],
            lambda batch: done.append(sched.now_ns),
        )
    sched.run()
    assert done == [1000, 2000, 3000]


def test_cpu_queue_limit_drops():
    sched = Scheduler()
    node = Node("M", clock_ns=lambda: sched.now_ns)
    cpu = CpuQueue(sched, CostModel(forward_ns=100), node, queue_limit=2)
    for _ in range(5):
        cpu.submit_batch([make_udp_packet("fc00::1", "fc00::2", 1, 2, b"")], lambda batch: None)
    sched.run()
    assert cpu.stats.dropped == 3
    assert cpu.stats.processed == 2


def test_cost_model_classifier():
    calls = []

    def classify(pkt, node):
        calls.append(pkt)
        return "bpf_interp"

    model = CostModel(forward_ns=1, bpf_interp_ns=999, classifier=classify)
    cost = model.cost_ns(make_udp_packet("fc00::1", "fc00::2", 1, 2, b""), None)
    assert cost == 999
    assert len(calls) == 1


def test_cost_model_refuses_an_unknown_class():
    """A class the model has no cost for is an error, not plain forwarding."""
    model = CostModel(classifier=lambda pkt, node: "bpf_interpreter")
    with pytest.raises(ValueError, match="bpf_interpreter"):
        model.cost_ns(make_udp_packet("fc00::1", "fc00::2", 1, 2, b""), None)


def test_cpu_utilisation():
    sched = Scheduler()
    node = Node("M", clock_ns=lambda: sched.now_ns)
    cpu = CpuQueue(sched, CostModel(forward_ns=500), node)
    for _ in range(4):
        cpu.submit_batch([make_udp_packet("fc00::1", "fc00::2", 1, 2, b"")], lambda batch: None)
    sched.run()
    assert cpu.stats.busy_ns / 4000 == 0.5


def test_cpu_batch_submission_charges_per_packet_completes_once():
    """A batch costs what N batches of one cost, but coalesces completion."""
    sched = Scheduler()
    node = Node("M", clock_ns=lambda: sched.now_ns)
    cpu = CpuQueue(sched, CostModel(forward_ns=1000), node)
    done = []
    pkts = [make_udp_packet("fc00::1", "fc00::2", 1, 2, b"") for _ in range(3)]
    cpu.submit_batch(pkts, lambda batch: done.append((sched.now_ns, len(batch))))
    events_before = sched.events_run
    sched.run()
    # The batch completes in one event at the last packet's finish time.
    assert done == [(3000, 3)]
    assert sched.events_run - events_before == 1
    assert cpu.stats.processed == 3
    assert cpu.stats.busy_ns == 3000


def test_cpu_batch_submission_overflow_drops_individually():
    sched = Scheduler()
    node = Node("M", clock_ns=lambda: sched.now_ns)
    cpu = CpuQueue(sched, CostModel(forward_ns=100), node, queue_limit=2)
    got = []
    pkts = [make_udp_packet("fc00::1", "fc00::2", 1, 2, b"") for _ in range(5)]
    cpu.submit_batch(pkts, lambda batch: got.extend(batch))
    sched.run()
    assert cpu.stats.dropped == 3
    assert cpu.stats.processed == 2
    assert len(got) == 2


def test_node_routes_through_cpu_queue():
    sched = Scheduler()
    node = Node("M", clock_ns=lambda: sched.now_ns)
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00::e")
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1")
    node.cpu = CpuQueue(sched, CostModel(forward_ns=777), node)
    node.receive(make_udp_packet("fc00::1", "fc00:2::2", 1, 2, b""), node.devices["eth0"])
    assert not node.devices["eth1"].tx_buffer  # not processed yet
    sched.run()
    assert len(node.devices["eth1"].tx_buffer) == 1
    assert sched.now_ns == 777


# --- device tx counters count what reached the wire ---------------------------------


def _netem_pair(**netem):
    """A -- B, a netem qdisc on A's egress, and 9 packets A sends to B."""
    from repro.lab import Network

    net = Network(seed=1)
    net.add_node("A", addr="fc00:a::1")
    net.add_node("B", addr="fc00:b::1")
    link = net.add_link("A", "B", rate_bps=1e9, delay_ns=1_000)
    net["A"].add_route("fc00:b::/64", via="fc00:b::1", dev="eth0")
    qdisc = net.netem("A", "eth0", **netem) if netem else None
    pkts = [make_udp_packet("fc00:a::1", "fc00:b::1", 1, 2, bytes(10 * i)) for i in range(9)]
    return net, link, qdisc, pkts


def test_a_packet_the_qdisc_drops_is_not_device_tx():
    """As ``ip -s link``: a netem drop is counted in the qdisc, not in the device's TX."""
    net, link, qdisc, pkts = _netem_pair(loss=1.0)
    net["A"].send_batch(pkts)
    net.run(until_ns=NS_PER_MS)
    stats = net["A"].devices["eth0"].stats
    assert (stats.tx_packets, stats.tx_bytes) == (0, 0)
    assert qdisc.stats.lost == 9 and link.a_to_b.stats.sent == 0
    assert net["A"].counters.tx == 9  # the node handed them to the device


def test_a_qdisc_device_counts_tx_at_release_and_a_plain_one_at_the_flush():
    net, link, qdisc, pkts = _netem_pair(delay_ns=NS_PER_MS)
    dev = net["A"].devices["eth0"]
    net["A"].send_batch(pkts[:4])
    assert dev.stats.tx_packets == 0  # held by netem
    net.run(until_ns=2 * NS_PER_MS)
    size = sum(len(p.data) for p in pkts[:4])
    assert (dev.stats.tx_packets, dev.stats.tx_bytes) == (4, size)
    assert link.a_to_b.stats.sent == 4

    dev.qdisc = None
    net["A"].send_batch(pkts[4:])
    size += sum(len(p.data) for p in pkts[4:])
    assert (dev.stats.tx_packets, dev.stats.tx_bytes) == (9, size)
    dev.transmit(make_udp_packet("fc00:a::1", "fc00:b::1", 1, 2, b"x"))
    assert (dev.stats.tx_packets, dev.stats.tx_bytes) == (10, size + 49)
