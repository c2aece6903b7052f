"""TCP segment header (RFC 793) over IPv6 — wire format only.

The protocol machine (congestion control, retransmission) lives in
:mod:`repro.sim.tcp`; this module is the serialisation layer it shares
with the rest of the stack.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .checksum import l4_checksum
from .ipv6 import PROTO_TCP

TCP_HEADER_LEN = 20

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10


@dataclass
class TcpHeader:
    """TCP header fields (RFC 793 §3.1); options unsupported, data offset fixed."""
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int = 0
    window: int = 65535
    checksum: int = 0
    urgent: int = 0
    data_offset: int = 5  # 32-bit words; we emit no options

    def pack(self) -> bytes:
        """Serialise with the checksum as currently stored."""
        return struct.pack(
            ">HHIIBBHHH",
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            (self.data_offset << 4),
            self.flags,
            self.window,
            self.checksum,
            self.urgent,
        )

    @classmethod
    def parse(cls, data: bytes, offset: int = 0) -> "TcpHeader":
        """Parse a header at ``offset``; raises ValueError if truncated."""
        if len(data) - offset < TCP_HEADER_LEN:
            raise ValueError("truncated TCP header")
        (
            src,
            dst,
            seq,
            ack,
            off_byte,
            flags,
            window,
            csum,
            urgent,
        ) = struct.unpack_from(">HHIIBBHHH", data, offset)
        return cls(src, dst, seq, ack, flags, window, csum, urgent, off_byte >> 4)


def build_tcp(
    src_addr: bytes,
    dst_addr: bytes,
    header: TcpHeader,
    payload: bytes = b"",
) -> bytes:
    """Serialise a TCP segment with a valid pseudo-header checksum."""
    header.checksum = 0
    segment = header.pack() + payload
    header.checksum = l4_checksum(src_addr, dst_addr, PROTO_TCP, segment)
    return header.pack() + payload
