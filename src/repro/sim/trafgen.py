"""Traffic generators: the lab's trafgen / pktgen / iperf3 equivalents.

§3.2 drives the router under test with trafgen UDP packets (64-byte
payload, 2-segment SRH); §4.1 adds pktgen plain-IPv6 flows; §4.2 measures
iperf3-style constant-rate UDP flows of varying payload size.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

from ..net.node import Node
from ..net.packet import Packet, make_srv6_udp_packet, make_udp_packet
from .scheduler import NS_PER_SEC, Scheduler

_U16 = struct.Struct(">H")


@dataclass
class GeneratorStats:
    sent: int = 0
    bytes_sent: int = 0


class UdpFlow:
    """A constant-rate UDP flow (iperf3 -u equivalent).

    ``rate_bps`` is the on-wire rate of a plain IPv6/UDP datagram: one
    packet is paced every ``interval_ns = (payload_size + 48) * 8 /
    rate_bps`` seconds, 48 being the IPv6 + UDP headers.  An SRH is not
    counted, so an SRv6 flood puts slightly more than ``rate_bps`` on
    the wire.

    The wire image is built once, on the first tick, by the checked
    builder (:meth:`_build_template`); each packet is a copy of it with
    the source port and UDP checksum — all that varies — stamped in.

    ``flow_id`` is 0 until an owner numbers the flow:
    :meth:`repro.lab.network.Network.trafgen` gives a network's flows
    1, 2, … in creation order.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        node: Node,
        src: str | bytes,
        dst: str | bytes,
        rate_bps: float,
        payload_size: int = 1400,
        src_port: int = 40000,
        dst_port: int = 5201,
        flow_label: int = 0,
        burst: int = 1,
        seed: int | None = None,
        rng: random.Random | None = None,
        src_port_spread: int = 1,
    ):
        """``burst`` sets the batch size emitted per tick (pacing grain).

        The average rate is unchanged (the tick interval stretches by the
        burst factor); what changes is pacing granularity — one scheduler
        event and one datapath batch per tick, which is what makes
        10k-flow simulations affordable.  ``burst=1`` paces per packet.

        ``src_port_spread`` > 1 draws each packet's source port from
        ``[src_port, src_port + spread)`` — pktgen's ``UDPSRC_RND`` flag,
        for workloads that need 5-tuple diversity.  The draw comes from
        this generator's own RNG (``rng``, or one seeded with ``seed``),
        so a seeded run is bit-reproducible; ``repro.lab`` derives the
        seed from the experiment seed.
        """
        if payload_size <= 0:
            raise ValueError("payload_size must be positive")
        self.scheduler = scheduler
        self.node = node
        self.src = src
        self.dst = dst
        self.rate_bps = rate_bps
        self.payload_size = payload_size
        self.src_port = src_port
        self.dst_port = dst_port
        self.flow_label = flow_label
        self.burst = max(1, int(burst))
        self.rng = rng if rng is not None else random.Random(seed)
        self.src_port_spread = max(1, int(src_port_spread))
        self.stats = GeneratorStats()
        # Hard kill switch: a disabled flow never ticks again, even if a
        # scripted start(duration_ns=) later resets _stop_ns.  The shard
        # workers use it to quiesce replica flows owned by other shards.
        self.enabled = True
        self.flow_id = 0
        # Set by net.trace() iff this flow is admitted by the sampling
        # decision (a pure function of seed and flow_id); an admitted
        # flow traces every packet it emits.
        self.tracer = None
        self._seq = 0
        self._stop_ns: int | None = None
        wire_size = payload_size + 48  # IPv6 + UDP headers
        self.interval_ns = max(1, int(wire_size * 8 * NS_PER_SEC / rate_bps))
        self._event = None
        self._template: bytes | None = None

    def start(self, at_ns: int | None = None, duration_ns: int | None = None) -> None:
        start_ns = self.scheduler.now_ns if at_ns is None else at_ns
        if duration_ns is not None:
            self._stop_ns = start_ns + duration_ns
        if self._event is not None:
            self.scheduler.cancel(self._event)  # a restart retires the armed tick: one chain
        self._event = self.scheduler.schedule_at(start_ns, self._tick)

    def stop(self) -> None:
        self._stop_ns = self.scheduler.now_ns

    def _build_template(self) -> Packet:
        """This flow's packet at the base source port (IPv6[/SRH]/UDP)."""
        return make_udp_packet(
            self.src,
            self.dst,
            self.src_port,
            self.dst_port,
            bytes(self.payload_size),
            flow_label=self.flow_label,
        )

    def _compile(self) -> None:
        template = self._build_template()
        self._template = bytes(template.data)
        self._l4 = l4 = template._l4_offset()[1]
        # RFC 1624 eqn 3, HC' = ~(~HC + ~m + m'): everything but the new
        # port m' is a per-flow constant.
        (csum,) = _U16.unpack_from(self._template, l4 + 6)
        self._csum_rest = (0xFFFF - csum) + (0xFFFF - self.src_port)

    def _tick(self) -> None:
        if not self.enabled:
            return
        now = self.scheduler.now_ns
        if self._stop_ns is not None and now >= self._stop_ns:
            return
        if self._template is None:
            self._compile()
        spread, stats = self.src_port_spread, self.stats
        pkts = []
        for _ in range(self.burst):
            self._seq = seq = self._seq + 1
            # Stamped after the call: keywords would cost the class call a dict.
            pkt = Packet(self._template)
            pkt.flow_id, pkt.seq, pkt.tx_tstamp_ns = self.flow_id, seq, now
            if spread > 1:
                src_port = self.src_port + self.rng.randrange(spread)
                _U16.pack_into(pkt.data, self._l4, src_port)
                # x % 0xFFFF is the one's-complement fold; a checksum of 0 is
                # sent as 0xFFFF (RFC 8200), exactly as build_udp does.
                csum = 0xFFFF - (self._csum_rest + src_port) % 0xFFFF
                _U16.pack_into(pkt.data, self._l4 + 6, csum)
            if self.tracer is not None:
                self.tracer.admit(pkt, self.node.name, now)
            stats.sent += 1
            stats.bytes_sent += len(pkt.data)
            pkts.append(pkt)
        self.node.send_batch(pkts)
        self._event = self.scheduler.schedule_at(now + self.interval_ns * self.burst, self._tick)


class Srv6UdpFlood(UdpFlow):
    """trafgen-style flood of SRv6 UDP packets through a segment path."""

    def __init__(
        self,
        scheduler: Scheduler,
        node: Node,
        src: str | bytes,
        path: list,
        rate_bps: float,
        payload_size: int = 64,
        **kwargs,
    ):
        super().__init__(
            scheduler, node, src, path[-1], rate_bps, payload_size, **kwargs
        )
        self.path = path

    def _build_template(self) -> Packet:
        return make_srv6_udp_packet(
            self.src,
            self.path,
            self.src_port,
            self.dst_port,
            bytes(self.payload_size),
            flow_label=self.flow_label,
        )


def batch_udp(
    src: str, dst: str, count: int, payload_size: int = 64, **kwargs
) -> list[Packet]:
    """Pre-built packet batch for the direct-datapath microbenchmarks."""
    return [
        make_udp_packet(src, dst, 40000 + (i % 1000), 5201, bytes(payload_size), **kwargs)
        for i in range(count)
    ]


def batch_srv6_udp(
    src: str, path: list, count: int, payload_size: int = 64, **kwargs
) -> list[Packet]:
    """§3.2 workload: UDP with a two-segment SRH, 64-byte payload."""
    return [
        make_srv6_udp_packet(
            src, path, 40000 + (i % 1000), 5201, bytes(payload_size), **kwargs
        )
        for i in range(count)
    ]


def batch_srv6_udp_flows(
    src: str,
    func_segment: str,
    sink_prefix_hextets: str,
    flows: int,
    count: int,
    payload_size: int = 64,
) -> list[Packet]:
    """``count`` §3.2 packets round-robined over ``flows`` distinct flows.

    Each flow gets its own source port *and* its own final segment inside
    ``sink_prefix_hextets`` (e.g. ``"fc00:2"``), so flow-diversity sweeps
    exercise per-destination state (the node flow table) rather than
    replaying one 5-tuple.  Used by ``benchmarks/bench_burst_scaling.py``.
    """
    templates = [
        make_srv6_udp_packet(
            src,
            [func_segment, f"{sink_prefix_hextets}::{(f % 0xFFFE) + 2:x}"],
            30000 + (f % 20000),
            5201,
            bytes(payload_size),
        )
        for f in range(flows)
    ]
    return [Packet(bytes(templates[i % flows].data)) for i in range(count)]
