"""§4.3 — Querying ECMP nexthops: End.OAMP and SRv6-aware traceroute.

With ECMP everywhere, classic traceroute shows *one* path and hides the
others.  The paper's ``End.OAMP`` network function, triggered by a probe
carrying the prober's address in a TLV, queries the local FIB for the
probe target's full ECMP nexthop set (through a 50-SLOC custom kernel
helper) and reports it back to the prober.

:class:`SrTraceroute` is the modified traceroute: it walks the path with
legacy hop-limited UDP probes (ICMPv6 Time Exceeded tells it each hop's
address), and at every hop that advertises an End.OAMP segment it sends
an SRv6 probe to learn the hop's ECMP fan-out; hops without End.OAMP
simply fall back to the legacy behaviour.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..ebpf import PerfEventArrayMap
from ..net.addr import as_addr, ntop
from ..net.icmpv6 import (
    ICMPV6_DEST_UNREACH,
    ICMPV6_TIME_EXCEEDED,
    Icmpv6Message,
)
from ..net.ipv6 import IPV6_HEADER_LEN, PROTO_ICMPV6, PROTO_UDP, IPv6Header
from ..net.node import Node
from ..net.packet import Packet, make_udp_packet
from ..net.seg6 import push_outer_encap
from ..net.seg6local import EndBPF
from ..net.srh import make_controller_tlv, make_srh
from ..net.udp import UDP_HEADER_LEN, build_udp
from ..progs import OampEvent, end_oamp_prog
from ..sim.scheduler import NS_PER_MS, Scheduler
from .relay import PerfRelay

TRACEROUTE_BASE_PORT = 33434
OAMP_REPLY_MAGIC = b"OAMP"


def install_end_oamp(
    node: Node, segment: str | bytes, jit: bool = True
) -> tuple[PerfEventArrayMap, EndBPF]:
    """Install End.OAMP on ``segment`` of ``node``."""
    events = PerfEventArrayMap(f"oamp_events_{node.name}")
    action = EndBPF(end_oamp_prog(events, jit=jit))
    node.add_route(f"{ntop(as_addr(segment))}/128", encap=action)
    return events, action


class OampDaemon(PerfRelay):
    """Relays End.OAMP perf events to the prober as UDP replies.

    Reply payload: ``b"OAMP"`` + target (16) + count (u32 LE) + count×16
    bytes of nexthop addresses.
    """

    src_port = 8891

    def reply(self, record: bytes) -> tuple[bytes, int, bytes]:
        """Answer one OAM query (§4.3): the target's ECMP nexthops, to the prober."""
        event = OampEvent.parse(record)
        count = struct.pack("<I", len(event.nexthops))
        return event.prober, event.port, OAMP_REPLY_MAGIC + event.target + count + b"".join(event.nexthops)


@dataclass
class HopResult:
    """One traceroute hop: the router and (if End.OAMP answered) its
    ECMP nexthops toward the target."""

    ttl: int
    router: bytes | None = None
    nexthops: list[bytes] | None = None
    reached: bool = False

    def __str__(self) -> str:
        router = ntop(self.router) if self.router else "*"
        extra = ""
        if self.nexthops is not None:
            extra = " ecmp=[" + ", ".join(ntop(nh) for nh in self.nexthops) + "]"
        if self.reached:
            extra += " (destination)"
        return f"{self.ttl:2d}  {router}{extra}"


class SrTraceroute:
    """The paper's enhanced traceroute (client side).

    ``oamp_segments`` maps a router's address to its advertised End.OAMP
    segment; hops absent from the map use only the legacy ICMP mechanism.
    """

    def __init__(
        self,
        node: Node,
        target: str | bytes,
        scheduler: Scheduler,
        oamp_segments: dict[bytes, bytes] | None = None,
        max_ttl: int = 16,
        reply_port: int = 8892,
        hop_timeout_ns: int = 500 * NS_PER_MS,
    ):
        self.node = node
        self.target = as_addr(target)
        self.scheduler = scheduler
        self.oamp_segments = {
            as_addr(k): as_addr(v) for k, v in (oamp_segments or {}).items()
        }
        self.max_ttl = max_ttl
        self.reply_port = reply_port
        self.hop_timeout_ns = hop_timeout_ns
        self.hops: list[HopResult] = []
        self.done = False
        self._current: HopResult | None = None
        self._timeout_event = None
        node.bind(self._on_icmp, proto=PROTO_ICMPV6)
        node.bind(self._on_oamp_reply, proto=PROTO_UDP, port=reply_port)

    # -- driving -----------------------------------------------------------
    def start(self) -> None:
        """Send the first probe; subsequent hops follow as answers arrive (§4.3)."""
        self._probe(1)

    def run(self, extra_ns: int = 0) -> list[HopResult]:
        """Start and drive the simulation until the trace completes."""
        self.start()
        budget = (self.max_ttl + 2) * self.hop_timeout_ns + extra_ns
        deadline = self.scheduler.now_ns + budget
        while not self.done and self.scheduler.now_ns < deadline:
            if self.scheduler.run(until_ns=self.scheduler.now_ns + NS_PER_MS) == 0:
                if self.scheduler.pending == 0:
                    break
        return self.hops

    # -- probe emission ----------------------------------------------------------
    def _probe(self, ttl: int) -> None:
        if ttl > self.max_ttl:
            self.done = True
            return
        self._current = HopResult(ttl=ttl)
        probe = make_udp_packet(
            self.node.primary_address(),
            self.target,
            self.reply_port,
            TRACEROUTE_BASE_PORT + ttl,
            struct.pack("<B", ttl),
            hop_limit=ttl,
        )
        self.node.send(probe)
        self._arm_timeout()

    def _send_oamp_probe(self, segment: bytes) -> None:
        me = self.node.primary_address()
        inner = build_udp(me, self.target, self.reply_port, TRACEROUTE_BASE_PORT, b"oamp")
        header = IPv6Header(src=me, dst=self.target, next_header=PROTO_UDP)
        plain = header.pack() + inner
        header.payload_length = len(inner)
        plain = header.pack() + inner
        srh = make_srh(
            [segment, self.target],
            next_header=41,
            tlvs=[make_controller_tlv(me, self.reply_port)],
        )
        probe = Packet(push_outer_encap(plain, me, srh))
        self.node.send(probe)

    def _arm_timeout(self) -> None:
        if self._timeout_event is not None:
            self.scheduler.cancel(self._timeout_event)
        self._timeout_event = self.scheduler.schedule(
            self.hop_timeout_ns, self._on_timeout
        )

    def _on_timeout(self) -> None:
        if self.done or self._current is None:
            return
        self.hops.append(self._current)  # unanswered hop ("*")
        self._advance()

    def _advance(self) -> None:
        next_ttl = len(self.hops) + 1
        if self.hops and self.hops[-1].reached:
            self.done = True
            return
        self._probe(next_ttl)

    # -- replies ---------------------------------------------------------------
    def _on_icmp(self, pkt: Packet, node: Node, offset: int) -> None:
        if self.done or self._current is None:
            return
        try:
            message = Icmpv6Message.parse(bytes(pkt.data), offset)
        except ValueError:
            return
        if message.msg_type == ICMPV6_TIME_EXCEEDED:
            if not self._matches_probe(message):
                return
            self._current.router = pkt.src
            segment = self.oamp_segments.get(pkt.src)
            if segment is not None:
                self._send_oamp_probe(segment)
                self._arm_timeout()  # wait for the OAMP reply
            else:
                self.hops.append(self._current)
                self._advance()
        elif message.msg_type == ICMPV6_DEST_UNREACH:
            if not self._matches_probe(message):
                return
            self._current.router = pkt.src
            self._current.reached = True
            self.hops.append(self._current)
            self.done = True

    def _matches_probe(self, message: Icmpv6Message) -> bool:
        """The error must quote one of *our* probes to this target."""
        quoted = message.body[4:]
        if len(quoted) < IPV6_HEADER_LEN:
            return False
        try:
            header = IPv6Header.parse(quoted)
        except ValueError:
            return False
        return header.dst == self.target

    def _on_oamp_reply(self, pkt: Packet, node: Node, offset: int) -> None:
        if self.done or self._current is None or self._current.router is None:
            return
        payload = bytes(pkt.data[offset + UDP_HEADER_LEN :])
        if not payload.startswith(OAMP_REPLY_MAGIC):
            return
        offset = len(OAMP_REPLY_MAGIC) + 16
        count = struct.unpack_from("<I", payload, offset)[0]
        offset += 4
        nexthops = [payload[offset + 16 * i : offset + 16 * (i + 1)] for i in range(count)]
        self._current.nexthops = nexthops
        self.hops.append(self._current)
        self._advance()
