"""``seg6`` lightweight tunnel: the SRv6 *transit* behaviours.

The Linux ``seg6`` lwtunnel implements the two transit behaviours the
paper describes (§2): inserting an SRH into an IPv6 packet (inline,
``T.Insert``) and encapsulating the packet in an outer IPv6 header that
carries an SRH (``T.Encaps``).  Both, and their inverses, are transforms
on *wire bytes*, shared by the static lwtunnel, the decapsulating
seg6local actions and ``bpf_lwt_push_encap`` / ``bpf_lwt_seg6_action``
(§3.1): the SRH goes in as its packed bytes with only the next-header
byte rewritten, and no ``SRH`` or ``IPv6Header`` object is built.
``_srh_head`` builds those headers for both transit behaviours:
``push_outer_encap`` / ``push_srh_inline`` return them joined to the
payload as new bytes, and the helpers splice them into the packet
buffer where it lies.  Callers that hold an ``SRH`` (daemons, tests)
may pass it instead of its bytes; ``SRH.parse`` is the reference the
tests hold all of this to.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .addr import as_addr
from .ipv6 import IPV6_HEADER_LEN, PROTO_IPV6, PROTO_ROUTING
from .srh import OFF_SEGMENTS_LEFT, SEGMENT_LEN, SRH, SRH_FIXED_LEN, make_srh, srh_wire_len

SEG6_MODE_ENCAP = "encap"
SEG6_MODE_INLINE = "inline"

# bpf_lwt_push_encap() type argument (include/uapi/linux/bpf.h).
BPF_LWT_ENCAP_SEG6 = 0
BPF_LWT_ENCAP_SEG6_INLINE = 1

_PACK_HEADER = struct.Struct(">IHBB16s16s").pack
_NH_IPV6 = bytes([PROTO_IPV6])


def _check_ipv6(data) -> None:
    """Raise what ``IPv6Header.parse`` raises: too short, or not version 6."""
    if len(data) < IPV6_HEADER_LEN:
        raise ValueError(f"short IPv6 header: {len(data)} bytes")
    if data[0] >> 4 != 6:
        raise ValueError(f"not an IPv6 packet (version {data[0] >> 4})")


def _srh_head(data, srh, outer_src: bytes | None = None, hop_limit: int = 64) -> bytes:
    """An IPv6 header to ``srh``'s active segment + ``srh``: the one header builder.

    With ``outer_src`` it is T.Encaps' outer header, to go in front of all
    of ``data``; without, it is T.Insert's, to replace ``data``'s IPv6
    header.  Wire bytes, checked by their producer with
    :func:`~repro.net.srh.srh_wire_len`, go in as they are but for the
    next-header byte.  Raises ValueError before anything is built.
    """
    if outer_src is None:
        _check_ipv6(data)
        word0, payload_length = int.from_bytes(data[:4], "big"), (data[4] << 8) | data[5]
        hop_limit, src, next_header = data[7], data[8:24], data[6:7]
    else:
        word0, payload_length, src, next_header = 0x60000000, len(data), outer_src, _NH_IPV6
    raw_srh = srh.pack() if isinstance(srh, SRH) else srh
    payload_length += len(raw_srh)
    if payload_length > 0xFFFF:
        raise ValueError(f"payload length {payload_length} exceeds 65535")
    at = SRH_FIXED_LEN + SEGMENT_LEN * raw_srh[OFF_SEGMENTS_LEFT]
    header = _PACK_HEADER(
        word0, payload_length, PROTO_ROUTING, hop_limit, src, raw_srh[at : at + SEGMENT_LEN]
    )
    return b"".join((header, next_header, raw_srh[1:]))


def push_srh_inline(data, srh: SRH | bytes) -> bytes:
    """Insert ``srh`` (object or wire bytes) right after the IPv6 header (T.Insert).

    The caller must have placed the original destination as the SRH's
    final segment (``segments[0]``); the IPv6 destination is rewritten to
    the SRH's active segment.
    """
    return _srh_head(data, srh) + data[IPV6_HEADER_LEN:]


def push_outer_encap(data, outer_src: bytes, srh: SRH | bytes, hop_limit: int = 64) -> bytes:
    """Encapsulate in an outer IPv6 header carrying ``srh``, object or wire bytes (T.Encaps)."""
    return _srh_head(data, srh, as_addr(outer_src), hop_limit) + data


def decap_in_place(data: bytearray) -> str | None:
    """Strip the outer IPv6 header and its routing headers off ``data``.

    The decapsulation part of End.DT6/End.DX6: the outer header's next
    chain must lead to an inner IPv6 packet through SRHs ``SRH.parse``
    accepts.  Returns None, or the reason with ``data`` untouched.
    """
    if len(data) < IPV6_HEADER_LEN:
        return f"short IPv6 header: {len(data)} bytes"
    if data[0] >> 4 != 6:
        return f"not an IPv6 packet (version {data[0] >> 4})"
    proto = data[6]
    offset = IPV6_HEADER_LEN
    try:
        while proto == PROTO_ROUTING:
            total = srh_wire_len(data, offset)
            proto = data[offset]
            offset += total
    except ValueError as exc:
        return str(exc)
    if proto != PROTO_IPV6:
        return "no inner IPv6 packet to decapsulate"
    del data[:offset]
    return None


@dataclass
class Seg6Encap:
    """Route-attached transit behaviour (``ip -6 route ... encap seg6``).

    ``segments`` are in forward path order.  In inline mode the original
    destination is appended as the final segment, as the kernel does.
    """

    segments: list[bytes]
    mode: str = SEG6_MODE_ENCAP

    def __post_init__(self) -> None:
        self.segments = [as_addr(seg) for seg in self.segments]
        if self.mode not in (SEG6_MODE_ENCAP, SEG6_MODE_INLINE):
            raise ValueError(f"unknown seg6 mode {self.mode!r}")
        if not self.segments:
            raise ValueError("seg6 encap needs at least one segment")
        # Encap mode pushes the same SRH on every packet: packed once.
        self._raw_srh = make_srh(list(self.segments), next_header=PROTO_IPV6).pack()

    def apply(self, data: bytes, node_src: bytes) -> bytes:
        """Encapsulate/insert per ``mode``; returns the new packet bytes (§2 transit behaviours)."""
        _check_ipv6(data)
        if self.mode == SEG6_MODE_INLINE:
            srh = make_srh(self.segments + [data[24:IPV6_HEADER_LEN]], next_header=data[6])
            return push_srh_inline(data, srh)
        return push_outer_encap(data, node_src, self._raw_srh)
