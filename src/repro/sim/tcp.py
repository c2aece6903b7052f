"""Reno/NewReno TCP endpoints for the hybrid-access experiments (§4.2).

The paper's first TCP-over-aggregation attempt was *"a disaster"*:
3.8 Mb/s of goodput over an 80 Mb/s aggregate, because the two links'
delay difference (30 ms vs 5 ms RTT) reorders segments and dup-ACK-based
loss detection misfires.  Reproducing that collapse — and the recovery to
~68 Mb/s once netem delay compensation equalises the paths — requires a
faithful loss-recovery state machine, which this module provides:

* slow start / congestion avoidance (RFC 5681),
* fast retransmit on 3 duplicate ACKs, NewReno fast recovery with
  partial-ACK retransmission (RFC 6582),
* RTO estimation per RFC 6298 with exponential backoff,
* RACK-style loss detection (the paper's routers ran Linux 4.18, where
  RACK is the default loss detector): the receiver reports the highest
  sequence it has seen (a one-block SACK), and the sender declares the
  hole at ``snd_una`` lost when some *delivered* segment was sent more
  than ``reo_wnd = min_rtt/4`` after it.  Judging by send-time gaps makes
  detection immune to ACK-path reordering while still reacting to data
  displaced by more than the reordering window — exactly the property
  that makes the uncompensated 12.5 ms inter-link gap fatal and the
  compensated ~2 ms residual jitter harmless,
* a cumulative-ACK receiver that buffers out-of-order data and emits an
  immediate duplicate ACK per out-of-order arrival.

The connection starts established (no handshake): the experiments
measure steady-state goodput, as nttcp does.

Segments are wire bytes: each end stamps seq, ack and the checksum
(RFC 1624) into a copy of one image of its segment, built by
``make_tcp_packet`` on its first send, and reads the flags, seq and ack
of an arriving header in place, with no parse and no copy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..net.addr import as_addr
from ..net.ipv6 import IPV6_HEADER_LEN
from ..net.node import Node
from ..net.packet import Packet, make_tcp_packet
from ..net.tcp import FLAG_ACK, TCP_HEADER_LEN, TcpHeader
from .scheduler import NS_PER_MS, NS_PER_SEC, Scheduler

_MIN_RTO_NS = 200 * NS_PER_MS
_MAX_RTO_NS = 60 * NS_PER_SEC
_INITIAL_RTO_NS = 1 * NS_PER_SEC
_INITIAL_WINDOW_SEGMENTS = 10  # RFC 6928

_SEQ_ACK = struct.Struct(">II")  # at L4 offset 4
_CSUM = struct.Struct(">H")  # at L4 offset 16


def _image(end: TcpSender | TcpReceiver, payload: bytes) -> tuple[bytes, int]:
    """``end``'s segment at seq = ack = 0, and the one's-complement sum
    (never 0: the data-offset byte is 0x50) of all its checksum covers."""
    header = TcpHeader(end.src_port, end.dst_port, seq=0, ack=0, flags=FLAG_ACK)
    image = bytes(make_tcp_packet(end.src, end.dst, header, payload).data)
    (csum,) = _CSUM.unpack_from(image, IPV6_HEADER_LEN + 16)
    return image, 0xFFFF - csum


def _stamp(image: bytes, rest: int, seq: int, ack: int) -> Packet:
    pkt = Packet(image)
    seq, ack = seq & 0xFFFFFFFF, ack & 0xFFFFFFFF
    _SEQ_ACK.pack_into(pkt.data, IPV6_HEADER_LEN + 4, seq, ack)
    # A u32 adds as its two halves do (2**16 is 1 mod 0xFFFF); the exact
    # end-around-carry fold of a sum s > 0 is (s - 1) % 0xFFFF + 1, so one
    # that folds to 0xFFFF sends checksum 0, as l4_checksum does.
    csum = 0xFFFE - (rest + seq + ack - 1) % 0xFFFF
    _CSUM.pack_into(pkt.data, IPV6_HEADER_LEN + 16, csum)
    return pkt


@dataclass
class TcpSenderStats:
    segments_sent: int = 0
    retransmits: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0
    dup_acks: int = 0
    acked_bytes: int = 0
    spurious_avoided: int = 0  # dupack bursts absorbed by the reorder window


class TcpSender:
    """A greedy (always-backlogged) NewReno sender."""

    def __init__(
        self,
        scheduler: Scheduler,
        node: Node,
        src: str | bytes,
        dst: str | bytes,
        src_port: int,
        dst_port: int,
        mss: int = 1400,
        cwnd_max_bytes: int | None = None,
        reorder_tolerance: bool = True,
    ):
        self.scheduler = scheduler
        self.node = node
        self.src = as_addr(src)
        self.dst = as_addr(dst)
        self.src_port = src_port
        self.dst_port = dst_port
        self.mss = mss
        self.cwnd_max = cwnd_max_bytes or 4 * 1024 * 1024

        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = _INITIAL_WINDOW_SEGMENTS * mss
        self.ssthresh = self.cwnd_max
        self.dupacks = 0
        self.recover = 0  # NewReno recovery point; >snd_una while recovering
        self.in_recovery = False
        self.running = False

        self.srtt_ns: float | None = None
        self.rttvar_ns: float = 0.0
        self.min_rtt_ns: int | None = None
        self.rto_ns = _INITIAL_RTO_NS
        self._rtt_seq: int | None = None  # Karn: time one un-retransmitted seq
        self._rtt_sent_ns = 0
        self._rto_event = None
        self.reorder_tolerance = reorder_tolerance
        self._send_times: dict[int, int] = {}  # segment seq -> last send time
        self._image: bytes | None = None  # built on the first send
        self.stats = TcpSenderStats()

        node.bind(self._on_segment, proto=6, port=src_port)

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        self.running = True
        self._send_available()
        self._arm_rto()

    def stop(self) -> None:
        self.running = False
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    # -- transmission -------------------------------------------------------------
    def _send_available(self) -> None:
        while self.running and self.flight_size + self.mss <= self.cwnd:
            self._transmit(self.snd_nxt)
            self.snd_nxt += self.mss

    def _transmit(self, seq: int, retransmit: bool = False) -> None:
        if self._image is None:
            self._image, self._rest = _image(self, bytes(self.mss))
        pkt = _stamp(self._image, self._rest, seq, 0)
        pkt.tx_tstamp_ns = self.scheduler.now_ns
        self._send_times[seq] = self.scheduler.now_ns
        self.stats.segments_sent += 1
        if retransmit:
            self.stats.retransmits += 1
            if self._rtt_seq is not None and seq <= self._rtt_seq:
                self._rtt_seq = None  # Karn's algorithm: discard the sample
        elif self._rtt_seq is None:
            self._rtt_seq = seq
            self._rtt_sent_ns = self.scheduler.now_ns
        self.node.send(pkt)

    # -- ACK processing -------------------------------------------------------------
    def _on_segment(self, pkt: Packet, node: Node, offset: int) -> None:
        data = pkt.data
        if len(data) - offset < TCP_HEADER_LEN:
            return
        if not data[offset + 13] & FLAG_ACK:
            return
        # Pure ACKs carry the highest received sequence in the (otherwise
        # unused) seq field — our one-block SACK (see TcpReceiver).
        sack_high, ack = _SEQ_ACK.unpack_from(data, offset + 4)
        self._handle_ack(ack, sack_high=sack_high)

    def _handle_ack(self, ack: int, sack_high: int = 0) -> None:
        if ack > self.snd_una:
            acked = ack - self.snd_una
            for seq in range(self.snd_una, ack, self.mss):
                self._send_times.pop(seq, None)
            self.snd_una = ack
            self.stats.acked_bytes += acked
            self._sample_rtt(ack)
            if self.in_recovery:
                if ack >= self.recover:
                    # Full ACK: leave recovery, deflate to ssthresh.
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                    self.dupacks = 0
                else:
                    # Partial ACK: retransmit the next hole, stay in recovery.
                    self._transmit(self.snd_una, retransmit=True)
                    self.cwnd = max(self.cwnd - acked + self.mss, self.mss)
            else:
                self.dupacks = 0
                if self.cwnd < self.ssthresh:
                    self.cwnd += min(acked, self.mss)  # slow start
                else:
                    self.cwnd += max(1, self.mss * self.mss // self.cwnd)
            self.cwnd = min(self.cwnd, self.cwnd_max)
            self._arm_rto()
            self._send_available()
            return

        if ack == self.snd_una and self.flight_size > 0:
            self.dupacks += 1
            self.stats.dup_acks += 1
            if self.in_recovery:
                self.cwnd += self.mss  # inflation
                self._send_available()
            elif self.dupacks >= 3:
                if not self.reorder_tolerance:
                    if self.dupacks == 3:
                        self._enter_fast_recovery()
                elif self._rack_hole_lost(sack_high):
                    self._enter_fast_recovery()
                else:
                    self.stats.spurious_avoided += 1

    def _reorder_window_ns(self) -> int:
        """RACK-style tolerance: a quarter of the minimum RTT."""
        base = self.min_rtt_ns if self.min_rtt_ns is not None else _MIN_RTO_NS
        return max(base // 4, NS_PER_MS)

    def _rack_hole_lost(self, sack_high: int) -> bool:
        """RACK rule: the hole at ``snd_una`` is lost when a *delivered*
        segment was sent more than ``reo_wnd`` after it."""
        if sack_high <= self.snd_una:
            return False
        hole_sent = self._send_times.get(self.snd_una)
        if hole_sent is None:
            return False
        high_seg = self.snd_una + ((sack_high - 1 - self.snd_una) // self.mss) * self.mss
        high_sent = self._send_times.get(high_seg)
        if high_sent is None:
            return False
        return high_sent - hole_sent > self._reorder_window_ns()

    def _enter_fast_recovery(self) -> None:
        self.stats.fast_retransmits += 1
        self.ssthresh = max(self.flight_size // 2, 2 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self.recover = self.snd_nxt
        self.in_recovery = True
        self._transmit(self.snd_una, retransmit=True)

    # -- RTT / RTO -------------------------------------------------------------------
    def _sample_rtt(self, ack: int) -> None:
        if self._rtt_seq is None or ack <= self._rtt_seq:
            return
        rtt = self.scheduler.now_ns - self._rtt_sent_ns
        self._rtt_seq = None
        if self.min_rtt_ns is None or rtt < self.min_rtt_ns:
            self.min_rtt_ns = rtt
        if self.srtt_ns is None:
            self.srtt_ns = float(rtt)
            self.rttvar_ns = rtt / 2
        else:
            self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * abs(self.srtt_ns - rtt)
            self.srtt_ns = 0.875 * self.srtt_ns + 0.125 * rtt
        self.rto_ns = int(self.srtt_ns + max(4 * self.rttvar_ns, NS_PER_MS))
        self.rto_ns = min(max(self.rto_ns, _MIN_RTO_NS), _MAX_RTO_NS)

    def _arm_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
        if self.flight_size == 0 or not self.running:
            self._rto_event = None
            return
        self._rto_event = self.scheduler.schedule(self.rto_ns, self._on_rto)

    def _on_rto(self) -> None:
        if not self.running or self.flight_size == 0:
            return
        self.stats.timeouts += 1
        self.ssthresh = max(self.flight_size // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.dupacks = 0
        self.in_recovery = False
        self.rto_ns = min(self.rto_ns * 2, _MAX_RTO_NS)
        self._transmit(self.snd_una, retransmit=True)
        self._arm_rto()


@dataclass
class TcpReceiverStats:
    segments_received: int = 0
    out_of_order: int = 0
    duplicate_segments: int = 0
    acks_sent: int = 0


class TcpReceiver:
    """Cumulative-ACK receiver with out-of-order buffering.

    Every arriving data segment triggers an immediate ACK (no delayed
    ACKs), so each out-of-order arrival produces a duplicate ACK — the
    behaviour that makes path-delay reordering so destructive.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        node: Node,
        src: str | bytes,  # our address (the sender's dst)
        dst: str | bytes,  # the sender's address
        src_port: int,
        dst_port: int,
    ):
        self.scheduler = scheduler
        self.node = node
        self.src = as_addr(src)
        self.dst = as_addr(dst)
        self.src_port = src_port
        self.dst_port = dst_port
        self.rcv_nxt = 0
        self.delivered_bytes = 0
        self.first_data_ns: int | None = None
        self.last_data_ns: int | None = None
        self._ooo: dict[int, int] = {}  # seq -> length
        self._sack_high = 0  # highest byte received (reported in ACKs)
        self._image: bytes | None = None  # built on the first ACK
        self.stats = TcpReceiverStats()
        node.bind(self._on_segment, proto=6, port=src_port)

    def _on_segment(self, pkt: Packet, node: Node, offset: int) -> None:
        # A header shorter than 20 bytes leaves no data either.
        data_len = len(pkt.data) - offset - TCP_HEADER_LEN
        if data_len <= 0:
            return
        self.stats.segments_received += 1
        now = self.scheduler.now_ns
        if self.first_data_ns is None:
            self.first_data_ns = now
        self.last_data_ns = now

        seq, _ack = _SEQ_ACK.unpack_from(pkt.data, offset + 4)
        self._sack_high = max(self._sack_high, seq + data_len)
        if seq == self.rcv_nxt:
            self.rcv_nxt += data_len
            self.delivered_bytes += data_len
            # Drain any buffered in-order continuation.
            while self.rcv_nxt in self._ooo:
                length = self._ooo.pop(self.rcv_nxt)
                self.rcv_nxt += length
                self.delivered_bytes += length
        elif seq > self.rcv_nxt:
            if seq in self._ooo:
                self.stats.duplicate_segments += 1
            else:
                self._ooo[seq] = data_len
                self.stats.out_of_order += 1
        else:
            self.stats.duplicate_segments += 1
        self._send_ack()

    def _send_ack(self) -> None:
        if self._image is None:
            self._image, self._rest = _image(self, b"")
        # One-block SACK: the seq field carries the highest byte received.
        pkt = _stamp(self._image, self._rest, self._sack_high, self.rcv_nxt)
        self.stats.acks_sent += 1
        self.node.send(pkt)

    def goodput_bps(self) -> float:
        if (
            self.first_data_ns is None
            or self.last_data_ns is None
            or self.last_data_ns <= self.first_data_ns
        ):
            return 0.0
        return self.delivered_bytes * 8 * NS_PER_SEC / (
            self.last_data_ns - self.first_data_ns
        )


def make_connection(
    scheduler: Scheduler,
    sender_node: Node,
    receiver_node: Node,
    sender_addr: str | bytes,
    receiver_addr: str | bytes,
    port: int,
    **sender_kwargs,
) -> tuple[TcpSender, TcpReceiver]:
    """Wire a sender/receiver pair (ports: data to ``port``, ACKs back).

    Extra keyword arguments (``mss``, ``cwnd_max_bytes``,
    ``reorder_tolerance``) configure the sender.
    """
    sender = TcpSender(
        scheduler,
        sender_node,
        sender_addr,
        receiver_addr,
        port + 10000,
        port,
        **sender_kwargs,
    )
    receiver = TcpReceiver(
        scheduler, receiver_node, receiver_addr, sender_addr, port, port + 10000
    )
    return sender, receiver
