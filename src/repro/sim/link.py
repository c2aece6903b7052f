"""Point-to-point links with serialisation and propagation delay.

A :class:`Link` joins two :class:`~repro.net.netdev.NetDev` devices.  Each
direction is an independent :class:`LinkEndpoint` modelling a transmit
queue drained at the link rate plus a fixed propagation delay — i.e. the
10 Gb/s and 1 Gb/s NICs of the paper's lab (Figure 1).  A device's
egress sends into its endpoint; an arrival goes straight to the peer
device's node (:meth:`~repro.net.node.Node.receive_batch`).

Endpoints are also the sharded engine's cut points (:mod:`repro.shard`).
Every endpoint owns an ordering *stream* and numbers its departures with
a send counter; the delivery event's key ``(stream, send_seq)`` is
therefore a pure function of the sender's state.  In a sharded run a
cross-shard endpoint is put in *export* mode: departures leave the
worker at send time as ``(arrival_ns, seq, packets)`` handoffs, and the
receiving shard injects them with :meth:`LinkEndpoint.inject_remote`
under the same key — landing at exactly the position in the receiver's
event order that the in-process delivery would have taken.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.netdev import NetDev
from ..net.packet import Packet
from .scheduler import NS_PER_SEC, Scheduler


_BIT_NS = 8 * NS_PER_SEC  # ns to serialise one byte at 1 b/s


@dataclass
class LinkStats:
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    bytes_sent: int = 0


class LinkEndpoint:
    """One direction of a link: serialise at ``rate_bps``, then propagate."""

    def __init__(
        self,
        scheduler: Scheduler,
        peer_dev: NetDev,
        rate_bps: float,
        delay_ns: int,
        queue_limit: int | None = 1000,
    ):
        self.scheduler = scheduler
        self.peer_dev = peer_dev
        self.rate_bps = rate_bps
        self.delay_ns = delay_ns
        self.queue_limit = queue_limit
        self.stats = LinkStats()
        self.up = True
        self.stream = scheduler.new_stream()
        self._last_down_ns = -1  # simulated instant of the last set_down()
        self._send_seq = 0
        self._free_at_ns = 0
        self._queued = 0
        # Sharding hook (None on every in-process run): a callable(arrival_ns,
        # seq, pkts) invoked instead of scheduling local delivery.
        self.export = None

    def send(self, pkt: Packet) -> None:
        """Put one packet on the wire (batch of one)."""
        self.send_batch([pkt])

    def send_batch(self, pkts: list[Packet]) -> None:
        """Serialise a batch back-to-back and deliver it as one batch.

        The transmitter's ``_free_at_ns`` advances packet by packet (rate
        accounting is per packet), but delivery is coalesced into a
        single scheduler event at the time the *last* packet finishes
        serialising — the NIC interrupt coalescing / NAPI-poll analogue.
        What batching trades away is sub-batch latency resolution: the
        whole batch arrives at the batch boundary, and the queue drains
        in batch-sized steps (so a near-full queue can drop marginally
        more than packet-at-a-time delivery would).
        """
        scheduler = self.scheduler
        now = scheduler.now_ns
        stats = self.stats
        if not self.up:
            stats.dropped += len(pkts)
            return
        count = len(pkts)
        limit = self.queue_limit
        room = count if limit is None else limit - self._queued
        if room < count:
            # A full transmit queue drops what of the batch does not fit: its tail.
            room = max(room, 0)
            stats.dropped += count - room
            if not room:
                return
            count = room
        accepted = pkts[:count]
        traced = None
        depart, rate, sent_bytes = self._free_at_ns, self.rate_bps, 0
        for pkt in accepted:
            size = len(pkt.data)
            if depart < now:
                depart = now
            start = depart
            if rate > 0:
                depart += int(size * _BIT_NS / rate)
            sent_bytes += size
            if pkt.tctx is not None:
                if traced is None:
                    traced = []
                traced.append((pkt, start, depart))
        self._free_at_ns = depart
        self._queued += count
        stats.sent += count
        stats.bytes_sent += sent_bytes
        seq = self._send_seq
        self._send_seq = seq + 1
        arrival = depart + self.delay_ns
        if traced is not None:
            # Spans are appended before the export branch so they
            # travel inside the shard handoff codec with the packet.
            # The wait from a packet's own departure to the batch's
            # (delivery coalescing) is queueing, not propagation.
            last_depart = depart
            where = str(self.peer_dev)
            delay = self.delay_ns
            for pkt, p_start, p_depart in traced:
                tctx = pkt.tctx
                if p_start > now:
                    tctx.append((now, p_start, "queue", where, ""))
                if p_depart > p_start:
                    tctx.append((p_start, p_depart, "serialize", where, ""))
                if last_depart > p_depart:
                    tctx.append((p_depart, last_depart, "queue", where, "coalesce"))
                if delay:
                    tctx.append((last_depart, arrival, "propagate", where, ""))
        if self.export is None:
            if count > 1:
                scheduler.events_coalesced += count - 1
            scheduler.schedule_keyed(arrival, self.stream, seq, self._deliver_batch, accepted)
        else:
            # Cross-shard proxy: the batch leaves this worker now; a
            # local drain event under the same key keeps the transmit
            # queue accounting (and its drop behaviour) byte-identical.
            self.export(arrival, seq, accepted)
            scheduler.schedule_keyed(arrival, self.stream, seq, self._drain_remote, accepted)

    def _deliver_batch(self, pkts: list[Packet]) -> None:
        """The arrival: the batch goes straight to the peer node, on the
        peer device (the hop's one handoff on the receiving side)."""
        count = len(pkts)
        self._queued -= count
        self.stats.delivered += count
        dev = self.peer_dev
        dev.node.receive_batch(pkts, dev)

    def _drain_remote(self, pkts: list[Packet]) -> None:
        # Export-mode twin of _deliver_batch's queue bookkeeping; the
        # receiving shard owns delivery and its stats.
        self._queued -= len(pkts)

    def inject_remote(
        self, sent_ns: int, arrival_ns: int, seq: int, pkts: list[Packet]
    ) -> None:
        """Accept a cross-shard handoff on the receiving shard's replica.

        Scheduled under the sender's key, so the delivery executes at the
        same point in the total order as the in-process run.  In-flight
        loss is accounted here, on the receiving side: the batch dies if
        the link is down now, went down at any point since ``sent_ns``
        (a flap shorter than the propagation delay still loses the
        photons already on the fibre, exactly as ``set_down()`` models
        in-process), or goes down before ``arrival_ns`` (``set_down()``
        cancels the pending delivery).
        """
        if not self.up or self._last_down_ns >= sent_ns:
            self.stats.dropped += len(pkts)
            return
        scheduler = self.scheduler
        if len(pkts) > 1:
            scheduler.events_coalesced += len(pkts) - 1
        scheduler.schedule_keyed(arrival_ns, self.stream, seq, self._deliver_remote, pkts)

    def _deliver_remote(self, pkts: list[Packet]) -> None:
        self.stats.delivered += len(pkts)
        dev = self.peer_dev
        dev.node.receive_batch(pkts, dev)

    def set_down(self) -> None:
        """Administratively down: refuse new sends, lose what is in flight."""
        self.up = False
        self._last_down_ns = self.scheduler.now_ns
        exported = self.export is not None
        # The in-flight batches are this endpoint's pending delivery (or
        # drain) events: found by a scan, so sending keeps no books.
        scheduler = self.scheduler
        for event in scheduler.events_of(self):
            pkts = event[6][0]
            injected = event[5] == self._deliver_remote
            scheduler.cancel(event)
            if injected:
                self.stats.dropped += len(pkts)
                continue
            self._queued -= len(pkts)
            if not exported:
                # In export mode the receiving shard's replica owns the
                # in-flight loss accounting (see inject_remote).
                self.stats.dropped += len(pkts)
        # The dropped packets' serialisation reservations die with them:
        # after recovery the first send must not wait out a phantom
        # backlog.
        self._free_at_ns = 0

    def set_up(self) -> None:
        self.up = True

    @property
    def queue_depth(self) -> int:
        return self._queued


class Link:
    """A bidirectional link between two devices."""

    def __init__(
        self,
        scheduler: Scheduler,
        dev_a: NetDev,
        dev_b: NetDev,
        rate_bps: float = 10e9,
        delay_ns: int = 1000,
        queue_limit: int | None = 1000,
    ):
        self.a_to_b = LinkEndpoint(scheduler, dev_b, rate_bps, delay_ns, queue_limit)
        self.b_to_a = LinkEndpoint(scheduler, dev_a, rate_bps, delay_ns, queue_limit)
        dev_a.link_endpoint = self.a_to_b
        dev_b.link_endpoint = self.b_to_a
        dev_a.wire = self.a_to_b.send_batch
        dev_b.wire = self.b_to_a.send_batch
        self.dev_a = dev_a
        self.dev_b = dev_b
        # Carrier watchers: callables invoked as watcher(link, up) on
        # set_down()/set_up().  This is the loss-of-light signal a
        # control plane's fast-reroute layer subscribes to — strictly
        # local knowledge, available immediately at both ends, unlike
        # the remote failure knowledge an IGP must flood.
        self.watchers: list = []

    @property
    def up(self) -> bool:
        return self.a_to_b.up and self.b_to_a.up

    def set_down(self) -> None:
        """Fail the link in both directions, dropping in-flight packets."""
        if not self.up:
            return
        self.a_to_b.set_down()
        self.b_to_a.set_down()
        for watcher in list(self.watchers):
            watcher(self, False)

    def set_up(self) -> None:
        """Restore a failed link; deliveries resume with the next send."""
        if self.up:
            return
        self.a_to_b.set_up()
        self.b_to_a.set_up()
        for watcher in list(self.watchers):
            watcher(self, True)

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<Link {self.dev_a} <-> {self.dev_b} {state}>"
