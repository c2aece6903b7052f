"""Packet buffer with metadata — the stack's ``struct sk_buff`` equivalent.

A :class:`Packet` owns the raw bytes (outermost IPv6 header onward) plus
the kernel-side metadata the paper's mechanisms need: the RX software
timestamp (End.DM reads it through a helper, §4.1), the firewall mark
and the ingress device.  A program's ``BPF_REDIRECT`` decision (§3.1)
travels in its helper context, not on the packet.
"""

from __future__ import annotations

import zlib

from .addr import as_addr
from .icmpv6 import Icmpv6Message, build_icmpv6
from .ipv6 import (
    IPV6_HEADER_LEN,
    IPv6Header,
    PROTO_ICMPV6,
    PROTO_ROUTING,
    PROTO_TCP,
    PROTO_UDP,
    build_packet,
)
from .srh import SRH
from .tcp import TcpHeader, build_tcp
from .udp import UDP_HEADER_LEN, UdpHeader, build_udp


class Packet:
    """Raw bytes plus stack metadata.

    Metadata fields:

    * ``rx_tstamp_ns`` — software RX timestamp set on reception;
    * ``mark`` — firewall mark, a u32 as ``skb->mark`` (writable from
      eBPF via the context; the constructor refuses any other value);
    * ``flow_id`` / ``seq`` / ``tx_tstamp_ns`` — generator bookkeeping
      (``tx_tstamp_ns`` is None on a packet no generator stamped; a
      packet sent at t = 0 is stamped 0);
    * ``tctx`` — tracing context: ``None`` when untraced (the common
      case — hot paths test this with one slot load), else the span
      list a :class:`repro.trace.Tracer` started (rides the packet
      across hops and shard handoffs).
    """

    __slots__ = (
        "data",
        "rx_tstamp_ns",
        "mark",
        "input_dev",
        "flow_id",
        "seq",
        "tx_tstamp_ns",
        "tctx",
    )

    def __init__(
        self,
        data: bytes | bytearray,
        *,
        rx_tstamp_ns: int = 0,
        mark: int = 0,
        input_dev: str | None = None,
        flow_id: int = 0,
        seq: int = 0,
        tx_tstamp_ns: int | None = None,
        tctx: list | None = None,
    ):
        if not 0 <= mark <= 0xFFFFFFFF:
            raise ValueError(f"mark {mark} is not a u32 (skb->mark)")
        self.data = bytearray(data)
        self.rx_tstamp_ns = rx_tstamp_ns
        self.mark = mark
        self.input_dev = input_dev
        self.flow_id = flow_id
        self.seq = seq
        self.tx_tstamp_ns = tx_tstamp_ns
        self.tctx = tctx

    def __len__(self) -> int:
        return len(self.data)

    def copy(self) -> "Packet":
        """Deep copy: fresh buffer and metadata, shared nothing."""
        clone = Packet(bytes(self.data))
        clone.rx_tstamp_ns = self.rx_tstamp_ns
        clone.mark = self.mark
        clone.input_dev = self.input_dev
        clone.flow_id = self.flow_id
        clone.seq = self.seq
        clone.tx_tstamp_ns = self.tx_tstamp_ns
        # A clone (ICMP error, DM relay, ...) is a new logical packet:
        # it never inherits the original's trace context.
        clone.tctx = None
        return clone

    # -- parsing ----------------------------------------------------------
    def ipv6(self) -> IPv6Header:
        """Parse and return the outer IPv6 header."""
        return IPv6Header.parse(self.data)

    @property
    def dst(self) -> bytes:
        """Destination address of the outermost header (16 bytes)."""
        return bytes(self.data[24:40])

    @property
    def src(self) -> bytes:
        """Source address of the outermost header (16 bytes)."""
        return bytes(self.data[8:24])

    @property
    def next_header(self) -> int:
        """The outer header's Next Header protocol number."""
        return self.data[6]

    @property
    def hop_limit(self) -> int:
        """The outer header's remaining hop limit."""
        return self.data[7]

    def set_dst(self, addr: bytes) -> None:
        """Rewrite the outer destination address in place."""
        self.data[24:40] = as_addr(addr)

    def decrement_hop_limit(self) -> int:
        """Decrement the hop limit (floored at 0) and return the new value."""
        self.data[7] = max(0, self.data[7] - 1)
        return self.data[7]

    def srh(self) -> tuple[SRH, int] | None:
        """The SRH and its byte offset, if the packet carries one."""
        if self.next_header != PROTO_ROUTING:
            return None
        try:
            return SRH.parse(bytes(self.data), IPV6_HEADER_LEN), IPV6_HEADER_LEN
        except ValueError:
            return None

    def l4(self) -> tuple[int, int, int] | None:
        """(protocol, src_port, dst_port) of the innermost transport header.

        Walks routing extension headers and IPv6-in-IPv6 encapsulation
        (:meth:`_l4_offset`).  ICMPv6 has no ports (0, 0).  Returns None
        for packets without a recognised, untruncated transport header.
        """
        info = self._l4_offset()
        if info is None:
            return None
        proto, offset = info
        if proto == PROTO_ICMPV6:
            return proto, 0, 0
        data = self.data
        if (proto != PROTO_UDP and proto != PROTO_TCP) or offset + 4 > len(data):
            return None
        src_port = (data[offset] << 8) | data[offset + 1]
        return proto, src_port, (data[offset + 2] << 8) | data[offset + 3]

    def flow_hash(self) -> int:
        """5-tuple hash used for ECMP nexthop selection (RFC 2992 style)."""
        l4 = self.l4()
        key = bytes(self.data[8:40])
        if l4 is not None:
            proto, sport, dport = l4
            key += bytes([proto]) + sport.to_bytes(2, "big") + dport.to_bytes(2, "big")
        return zlib.crc32(key)

    def udp_payload(self) -> bytes | None:
        """Payload of the innermost UDP datagram, if any."""
        info = self._l4_offset()
        if info is None or info[0] != PROTO_UDP:
            return None
        _proto, offset = info
        return bytes(self.data[offset + UDP_HEADER_LEN :])

    def _l4_offset(self) -> tuple[int, int] | None:
        """(protocol, offset) of the first header past routing headers and
        IPv6-in-IPv6, or None if the walk is truncated or takes > 8 headers."""
        data = self.data
        offset = IPV6_HEADER_LEN
        proto = data[6]
        try:
            for _ in range(8):
                if proto == PROTO_ROUTING:
                    # An IndexError here is a routing header cut short.
                    next_proto = data[offset]
                    offset += (data[offset + 1] + 1) * 8
                    proto = next_proto
                elif proto == 41:
                    if offset + IPV6_HEADER_LEN > len(data):
                        return None
                    proto = data[offset + 6]
                    offset += IPV6_HEADER_LEN
                else:
                    return proto, offset
        except IndexError:
            return None
        return None


# ---------------------------------------------------------------------------
# Packet builders used by generators, tests and daemons.
# ---------------------------------------------------------------------------


def make_udp_packet(
    src: bytes | str,
    dst: bytes | str,
    src_port: int,
    dst_port: int,
    payload: bytes,
    hop_limit: int = 64,
    flow_label: int = 0,
) -> Packet:
    """A plain IPv6/UDP packet (the §4.1 pktgen workload unit)."""
    src, dst = as_addr(src), as_addr(dst)
    datagram = build_udp(src, dst, src_port, dst_port, payload)
    header = IPv6Header(
        src=src, dst=dst, next_header=PROTO_UDP, hop_limit=hop_limit,
        flow_label=flow_label,
    )
    return Packet(build_packet(header, datagram))


def make_srv6_udp_packet(
    src: bytes | str,
    path: list[bytes | str],
    src_port: int,
    dst_port: int,
    payload: bytes,
    hop_limit: int = 64,
    flow_label: int = 0,
    tlvs=None,
    tag: int = 0,
) -> Packet:
    """A UDP packet carrying an SRH through ``path`` (final hop last).

    This matches the paper's §3.2 workload: trafgen UDP packets whose SRH
    has two segments, one bound to a function on the router under test
    and the final one addressed to the sink.
    """
    from .srh import make_srh

    src = as_addr(src)
    final = as_addr(path[-1])
    datagram = build_udp(src, final, src_port, dst_port, payload)
    srh = make_srh(path, next_header=PROTO_UDP, tlvs=tlvs, tag=tag)
    header = IPv6Header(
        src=src,
        dst=srh.current_segment,
        next_header=PROTO_ROUTING,
        hop_limit=hop_limit,
        flow_label=flow_label,
    )
    return Packet(build_packet(header, srh.pack() + datagram))


def make_tcp_packet(
    src: bytes | str,
    dst: bytes | str,
    header: TcpHeader,
    payload: bytes = b"",
    hop_limit: int = 64,
    flow_label: int = 0,
) -> Packet:
    """An IPv6/TCP packet around a prepared TcpHeader (§4.2 flows)."""
    src, dst = as_addr(src), as_addr(dst)
    segment = build_tcp(src, dst, header, payload)
    ip = IPv6Header(
        src=src, dst=dst, next_header=PROTO_TCP, hop_limit=hop_limit,
        flow_label=flow_label,
    )
    return Packet(build_packet(ip, segment))


def make_icmpv6_packet(
    src: bytes | str,
    dst: bytes | str,
    message: Icmpv6Message,
    hop_limit: int = 64,
) -> Packet:
    """An IPv6/ICMPv6 packet with a valid checksum (§4.3 probes/errors)."""
    src, dst = as_addr(src), as_addr(dst)
    raw = build_icmpv6(src, dst, message)
    ip = IPv6Header(src=src, dst=dst, next_header=PROTO_ICMPV6, hop_limit=hop_limit)
    return Packet(build_packet(ip, raw))
