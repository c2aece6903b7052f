"""TCP model: transfer, congestion control, loss recovery, reordering."""

import pytest

from repro.net import IPV6_HEADER_LEN, PROTO_TCP, Node, TcpHeader, make_tcp_packet
from repro.net.checksum import verify_l4
from repro.net.tcp import FLAG_ACK, TCP_HEADER_LEN
from repro.sim import Link, NetemQdisc, Scheduler, TcpReceiver, TcpSender, make_connection, mbps
from repro.sim.scheduler import NS_PER_MS, NS_PER_SEC


def build_pipe(rate_bps=100e6, delay_ns=2 * NS_PER_MS, loss=0.0, seed=1):
    """Sender node A, receiver node B over a single shaped link."""
    sched = Scheduler()
    clock = sched.now_fn()
    a, b = Node("A", clock_ns=clock), Node("B", clock_ns=clock)
    a.add_device("eth0")
    b.add_device("eth0")
    a.add_address("fc00::a")
    b.add_address("fc00::b")
    a.add_route("fc00::b/128", via="fc00::b", dev="eth0")
    b.add_route("fc00::a/128", via="fc00::a", dev="eth0")
    Link(sched, a.devices["eth0"], b.devices["eth0"], rate_bps=1e9, delay_ns=10_000)
    if loss or rate_bps < 1e9:
        a.devices["eth0"].qdisc = NetemQdisc(
            sched, rate_bps=rate_bps, delay_ns=delay_ns, loss=loss, seed=seed
        )
    return sched, a, b


def run_transfer(sched, a, b, seconds=2.0, **kwargs):
    sender, receiver = make_connection(sched, a, b, "fc00::a", "fc00::b", 6000, **kwargs)
    sender.start()
    sched.run(until_ns=int(seconds * NS_PER_SEC))
    sender.stop()
    return sender, receiver


def test_clean_path_delivers_in_order():
    sched, a, b = build_pipe()
    sender, receiver = run_transfer(sched, a, b, seconds=1.0)
    assert receiver.delivered_bytes > 0
    assert receiver.stats.out_of_order == 0
    assert sender.stats.retransmits == 0
    assert receiver.rcv_nxt == receiver.delivered_bytes


def test_goodput_approaches_bottleneck():
    sched, a, b = build_pipe(rate_bps=50e6, delay_ns=2 * NS_PER_MS)
    _sender, receiver = run_transfer(sched, a, b, seconds=3.0)
    goodput = mbps(receiver.goodput_bps())
    assert 35 < goodput <= 50


def test_slow_start_doubles_window():
    sched, a, b = build_pipe()
    sender, _ = run_transfer(sched, a, b, seconds=0.3)
    assert sender.cwnd > 10 * sender.mss  # grew beyond the initial window


def test_loss_triggers_retransmission_and_recovery():
    sched, a, b = build_pipe(rate_bps=50e6, loss=0.01, seed=7)
    sender, receiver = run_transfer(sched, a, b, seconds=3.0)
    assert sender.stats.retransmits > 0
    # Everything the receiver delivered is contiguous despite losses.
    assert receiver.rcv_nxt == receiver.delivered_bytes
    assert receiver.delivered_bytes > 1_000_000


def test_heavy_loss_uses_timeouts_but_still_progresses():
    sched, a, b = build_pipe(rate_bps=10e6, loss=0.15, seed=11)
    sender, receiver = run_transfer(sched, a, b, seconds=4.0)
    assert receiver.delivered_bytes > 50_000
    assert sender.stats.timeouts > 0 or sender.stats.fast_retransmits > 0


def test_rtt_estimation_converges():
    sched, a, b = build_pipe(rate_bps=100e6, delay_ns=10 * NS_PER_MS)
    sender, _ = run_transfer(sched, a, b, seconds=1.0)
    assert sender.srtt_ns is not None
    # One-way shaper delay 10 ms: min RTT just above 10 ms; smoothed RTT
    # larger (a greedy sender builds a standing queue in the shaper).
    assert 10 * NS_PER_MS <= sender.min_rtt_ns < 15 * NS_PER_MS
    assert sender.srtt_ns >= sender.min_rtt_ns


def test_min_rtt_tracked():
    sched, a, b = build_pipe(rate_bps=100e6, delay_ns=5 * NS_PER_MS)
    sender, _ = run_transfer(sched, a, b, seconds=1.0)
    assert sender.min_rtt_ns is not None
    assert sender.min_rtt_ns >= 5 * NS_PER_MS


def test_cwnd_collapses_on_timeout():
    sched, a, b = build_pipe(rate_bps=5e6, loss=0.3, seed=3)
    sender, _ = run_transfer(sched, a, b, seconds=3.0)
    assert sender.stats.timeouts > 0


def test_receiver_counts_duplicates():
    sched, a, b = build_pipe(rate_bps=20e6, loss=0.05, seed=9)
    sender, receiver = run_transfer(sched, a, b, seconds=3.0)
    # Retransmissions that raced with the original produce duplicates.
    assert receiver.stats.segments_received >= sender.stats.segments_sent * 0.5


def test_reorder_tolerance_absorbs_small_displacement():
    """Mild reordering (unordered netem jitter < reo_wnd) must not
    trigger fast retransmits when RACK-style detection is on."""
    sched, a, b = build_pipe()
    a.devices["eth0"].qdisc = NetemQdisc(
        sched, rate_bps=50e6, delay_ns=20 * NS_PER_MS, jitter_ns=2 * NS_PER_MS,
        seed=2, ordered=False,
    )
    sender, receiver = run_transfer(sched, a, b, seconds=2.0)
    assert receiver.stats.out_of_order > 0  # reordering happened
    # ... and was almost entirely absorbed: spurious recoveries are at
    # least two orders of magnitude rarer than absorbed dupack bursts.
    assert sender.stats.spurious_avoided > 100 * max(sender.stats.fast_retransmits, 1)


def test_no_reorder_tolerance_collapses_under_reordering():
    """Classic Reno (dupthresh=3) spuriously retransmits under the same
    mild reordering."""
    sched, a, b = build_pipe()
    a.devices["eth0"].qdisc = NetemQdisc(
        sched, rate_bps=50e6, delay_ns=20 * NS_PER_MS, jitter_ns=2 * NS_PER_MS,
        seed=2, ordered=False,
    )
    sender, receiver = run_transfer(sched, a, b, seconds=2.0, reorder_tolerance=False)
    assert sender.stats.fast_retransmits > 0


def test_large_displacement_detected_as_loss():
    """Reordering far beyond reo_wnd looks like loss even to RACK."""
    sched, a, b = build_pipe()
    a.devices["eth0"].qdisc = NetemQdisc(
        sched, rate_bps=50e6, delay_ns=20 * NS_PER_MS, jitter_ns=19 * NS_PER_MS,
        seed=2, ordered=False,
    )
    sender, _ = run_transfer(sched, a, b, seconds=2.0)
    assert sender.stats.fast_retransmits > 0


def test_sender_respects_cwnd_cap():
    sched, a, b = build_pipe()
    sender, _ = run_transfer(sched, a, b, seconds=0.5, cwnd_max_bytes=20 * 1400)
    assert sender.cwnd <= 20 * 1400


def record_sends(node) -> list[bytes]:
    """The wire bytes of every packet handed to ``node.send``, as handed."""
    sent = []
    send = node.send

    def recording(pkt):
        sent.append(bytes(pkt.data))
        send(pkt)

    node.send = recording
    return sent


def rebuilt(wire: bytes) -> bytes:
    """``wire`` rebuilt by the checked builder from its parsed fields."""
    h = TcpHeader.parse(wire, IPV6_HEADER_LEN)
    payload = bytes(len(wire) - IPV6_HEADER_LEN - TCP_HEADER_LEN)
    header = TcpHeader(h.src_port, h.dst_port, h.seq, h.ack, h.flags)
    return bytes(make_tcp_packet(wire[8:24], wire[24:40], header, payload).data)


def test_endpoints_emit_the_checked_builders_bytes():
    """Every data segment, retransmit, ACK and dup-ACK either end emits over
    a lossy, reordering path is ``make_tcp_packet``'s, byte for byte."""
    sched, a, b = build_pipe()
    a.devices["eth0"].qdisc = NetemQdisc(
        sched, rate_bps=20e6, delay_ns=5 * NS_PER_MS, jitter_ns=3 * NS_PER_MS,
        loss=0.02, seed=5, ordered=False,
    )
    segments, acks = record_sends(a), record_sends(b)
    sender, receiver = run_transfer(sched, a, b, seconds=1.0)

    for wire in segments + acks:
        assert wire == rebuilt(wire)
        assert verify_l4(wire[8:24], wire[24:40], PROTO_TCP, wire[IPV6_HEADER_LEN:])
    assert len(segments) == sender.stats.segments_sent
    assert len(acks) == receiver.stats.acks_sent
    acked = [TcpHeader.parse(wire, IPV6_HEADER_LEN).ack for wire in acks]
    assert sum(x == y for x, y in zip(acked, acked[1:])) > 100  # dup-ACKs
    stats = sender.stats
    assert (
        stats.segments_sent, stats.retransmits, stats.fast_retransmits,
        stats.timeouts, stats.acked_bytes, receiver.delivered_bytes,
    ) == (454, 30, 15, 1, 590_800, 590_800)


def zero_checksum_segment(src, dst, ports, seq, ack, payload=b"") -> bytes:
    """``make_tcp_packet``'s bytes for a segment whose checksum is 0x0000."""
    wire = bytes(make_tcp_packet(src, dst, TcpHeader(*ports, seq, ack, FLAG_ACK), payload).data)
    assert wire[IPV6_HEADER_LEN + 16 : IPV6_HEADER_LEN + 18] == b"\x00\x00"
    return wire


def emitted(node, emit) -> list[bytes]:
    """The wire bytes ``emit()`` hands to ``node.send``."""
    sent = []
    node.send = lambda pkt: sent.append(bytes(pkt.data))
    emit()
    return sent


# A sum that folds to 0xFFFF is sent as checksum 0x0000, as l4_checksum
# computes it: only UDP sends 0 as 0xFFFF.  The seq / ack values below
# were found by search over each end's segments.


def test_an_ack_whose_sum_folds_to_0xffff_carries_checksum_zero():
    sched, _a, b = build_pipe()
    receiver = TcpReceiver(sched, b, "fc00::b", "fc00::a", 6000, 16000)
    receiver._sack_high, receiver.rcv_nxt = 1_455_689, 1_452_889
    expected = zero_checksum_segment("fc00::b", "fc00::a", (6000, 16000), 1_455_689, 1_452_889)
    assert emitted(b, receiver._send_ack) == [expected]


def test_a_data_segment_whose_sum_folds_to_0xffff_carries_checksum_zero():
    sched, a, _b = build_pipe()
    sender = TcpSender(sched, a, "fc00::a", "fc00::b", 16000, 6000)
    expected = zero_checksum_segment("fc00::a", "fc00::b", (16000, 6000), 23_638, 0, bytes(sender.mss))
    assert emitted(a, lambda: sender._transmit(23_638)) == [expected]


def test_stop_cancels_timers():
    sched, a, b = build_pipe()
    sender, receiver = make_connection(sched, a, b, "fc00::a", "fc00::b", 6000)
    sender.start()
    sched.run(until_ns=int(0.2 * NS_PER_SEC))
    sender.stop()
    before = receiver.delivered_bytes
    in_flight = sender.flight_size
    sched.run(until_ns=int(1.0 * NS_PER_SEC))
    # Only the in-flight tail may still land after stop.
    assert receiver.delivered_bytes - before <= in_flight
