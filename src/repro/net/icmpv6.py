"""ICMPv6 (RFC 4443): errors and echo, as needed by traceroute (§4.3).

The modified traceroute of the paper falls back to "the legacy ICMP
mechanism" at hops that do not implement End.OAMP — i.e. Hop Limit = n
probes answered by Time Exceeded errors.  Routers in this stack generate
those errors; hosts answer Echo Requests.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .checksum import l4_checksum
from .ipv6 import PROTO_ICMPV6

ICMPV6_DEST_UNREACH = 1
ICMPV6_PACKET_TOO_BIG = 2
ICMPV6_TIME_EXCEEDED = 3
ICMPV6_PARAM_PROBLEM = 4
ICMPV6_ECHO_REQUEST = 128
ICMPV6_ECHO_REPLY = 129

# Per RFC 4443 §2.4(c): error messages include as much of the offending
# packet as fits without exceeding the minimum IPv6 MTU.
MAX_ERROR_PAYLOAD = 1280 - 40 - 8


@dataclass
class Icmpv6Message:
    """One ICMPv6 message: type, code, checksum and body (RFC 4443 §2.1)."""
    msg_type: int
    code: int = 0
    checksum: int = 0
    body: bytes = b""  # everything after the 4-byte type/code/checksum

    def pack(self) -> bytes:
        """Serialise to wire bytes (checksum as currently stored)."""
        return struct.pack(">BBH", self.msg_type, self.code, self.checksum) + self.body

    @classmethod
    def parse(cls, data: bytes, offset: int = 0) -> "Icmpv6Message":
        """Parse a message starting at ``offset``; raises ValueError if truncated."""
        if len(data) - offset < 4:
            raise ValueError("truncated ICMPv6 message")
        msg_type, code, csum = struct.unpack_from(">BBH", data, offset)
        return cls(msg_type, code, csum, bytes(data[offset + 4 :]))


def build_icmpv6(src: bytes, dst: bytes, message: Icmpv6Message) -> bytes:
    """Serialise with a valid pseudo-header checksum."""
    message.checksum = 0
    raw = message.pack()
    message.checksum = l4_checksum(src, dst, PROTO_ICMPV6, raw)
    return message.pack()


def time_exceeded(offending_packet: bytes) -> Icmpv6Message:
    """Hop-limit-exceeded error carrying the truncated offending packet."""
    body = b"\x00\x00\x00\x00" + offending_packet[:MAX_ERROR_PAYLOAD]
    return Icmpv6Message(ICMPV6_TIME_EXCEEDED, 0, 0, body)


def dest_unreachable(offending_packet: bytes, code: int = 0) -> Icmpv6Message:
    """Destination Unreachable carrying the truncated offending packet (§4.3 traceroute terminus)."""
    body = b"\x00\x00\x00\x00" + offending_packet[:MAX_ERROR_PAYLOAD]
    return Icmpv6Message(ICMPV6_DEST_UNREACH, code, 0, body)


def echo_reply(request: Icmpv6Message) -> Icmpv6Message:
    """Echo Reply mirroring ``request``'s identifier, sequence and payload."""
    return Icmpv6Message(ICMPV6_ECHO_REPLY, 0, 0, request.body)
