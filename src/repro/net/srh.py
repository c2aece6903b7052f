"""IPv6 Segment Routing Header (SRH) — RFC 8754 / draft-ietf-6man-srh.

Wire layout::

     0                   1                   2                   3
     0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
    | Next Header   | Hdr Ext Len   | Routing Type  | Segments Left |
    | Last Entry    | Flags         | Tag                           |
    | Segment List[0] (128 bits, the LAST segment of the path)      |
    | ...                                                           |
    | Segment List[n] (the FIRST segment of the path)               |
    | Optional TLVs (variable)                                      |

Segments are stored in *reverse* path order: ``segments[last_entry]`` is
the first segment visited, ``segments[0]`` the last.  ``segments_left``
indexes the *current* segment; the End behaviour decrements it and copies
``segments[segments_left]`` into the IPv6 destination (§2 of the paper).

TLVs carry optional per-packet data; the paper's delay-measurement use
case (§4.1) stores a 64-bit timestamp in a DM TLV plus the controller's
address/port in a second TLV.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .addr import as_addr, ntop

ROUTING_TYPE_SRH = 4
SRH_FIXED_LEN = 8
SEGMENT_LEN = 16

# Offsets of the editable fields within the SRH (relative to its start);
# used by bpf_lwt_seg6_store_bytes bounds checks.
OFF_NEXT_HEADER = 0
OFF_HDR_EXT_LEN = 1
OFF_ROUTING_TYPE = 2
OFF_SEGMENTS_LEFT = 3
OFF_LAST_ENTRY = 4
OFF_FLAGS = 5
OFF_TAG = 6


# The SRH's hdr_ext_len, routing_type, segments_left and last_entry, read
# off its 8-byte fixed header in one go.
_SPAN_FIELDS = struct.Struct("!xBBBB3x").unpack_from


def srh_wire_span(data, offset: int = 0) -> tuple[int, int]:
    """(wire length, segment count) of the SRH at ``offset``: the one accept rule.

    Reads only the fixed header — no segment-list or TLV materialisation —
    and raises ValueError, with the reason, for a header that is cut short,
    is not routing type 4, overruns the packet, holds a segment list longer
    than itself, or has ``segments_left > last_entry`` (Linux's
    ``seg6_validate_srh`` less the TLV walk :func:`validate_srh_wire` adds).
    """
    if len(data) - offset < SRH_FIXED_LEN:
        raise ValueError("truncated SRH")
    hdr_ext_len, routing_type, segments_left, last_entry = _SPAN_FIELDS(data, offset)
    if routing_type != ROUTING_TYPE_SRH:
        raise ValueError(f"routing type {routing_type} is not an SRH")
    total = (hdr_ext_len + 1) * 8
    if len(data) - offset < total:
        raise ValueError("SRH length exceeds packet")
    # The segment list fits the header: 8 + 16 (last_entry + 1) <= 8 (hdr_ext_len + 1).
    if hdr_ext_len < 2 * last_entry + 2:
        raise ValueError("segment list exceeds SRH length")
    if segments_left > last_entry:
        raise ValueError(f"segments_left {segments_left} > last_entry {last_entry}")
    return total, last_entry + 1


# TLV types.  Pad1/PadN are from RFC 8200; HMAC from RFC 8754.  The DM and
# controller TLVs are experimental-range types for the paper's §4.1
# one-way-delay measurement (draft-ali-spring-srv6-pm).
TLV_PAD1 = 0
TLV_PADN = 4
TLV_HMAC = 5
TLV_DM = 0x80  # value: 8-byte TX timestamp (ns) + 1-byte kind (OWD/TWD)
TLV_CONTROLLER = 0x81  # value: 16-byte IPv6 address + 2-byte UDP port

DM_KIND_OWD = 0  # one-way delay: decapsulate at the endpoint
DM_KIND_TWD = 1  # two-way delay: probe returns to the querier


@dataclass
class Tlv:
    """A generic SRH TLV."""

    tlv_type: int
    value: bytes = b""

    def pack(self) -> bytes:
        """Serialise: one byte for Pad1, type/len/value otherwise (RFC 8754 §2.1)."""
        if self.tlv_type == TLV_PAD1:
            return b"\x00"
        if len(self.value) > 255:
            raise ValueError("TLV value too long")
        return bytes([self.tlv_type, len(self.value)]) + self.value

    @property
    def wire_len(self) -> int:
        """On-wire size in bytes."""
        return 1 if self.tlv_type == TLV_PAD1 else 2 + len(self.value)


def pad_tlvs(tlvs: list[Tlv], occupied: int) -> list[Tlv]:
    """Append padding so that ``occupied`` + TLV bytes is a multiple of 8."""
    total = occupied + sum(tlv.wire_len for tlv in tlvs)
    pad = (-total) % 8
    out = list(tlvs)
    if pad == 1:
        out.append(Tlv(TLV_PAD1))
    elif pad > 1:
        out.append(Tlv(TLV_PADN, bytes(pad - 2)))
    return out


def _walk_tlvs(data, start: int, end: int):
    """Yield ``(type, offset, value length)`` per TLV of ``data[start:end]``.

    The one definition of TLV framing (RFC 8754 §2.1: Pad1 is a lone
    byte, anything else type/len/value); raises ValueError where the
    area is malformed.  No :class:`Tlv` is built.
    """
    i = start
    while i < end:
        tlv_type = data[i]
        if tlv_type == TLV_PAD1:
            yield TLV_PAD1, i, 0
            i += 1
            continue
        if i + 2 > end:
            raise ValueError("truncated TLV header")
        length = data[i + 1]
        if i + 2 + length > end:
            raise ValueError("TLV value exceeds TLV area")
        yield tlv_type, i, length
        i += 2 + length


def parse_tlvs(data: bytes) -> list[Tlv]:
    """Parse a TLV area; raises ValueError on malformed contents."""
    return [
        Tlv(tlv_type, bytes(data[at + 2 : at + 2 + length]))
        for tlv_type, at, length in _walk_tlvs(data, 0, len(data))
    ]


@dataclass
class SRH:
    """A parsed Segment Routing Header."""

    segments: list[bytes]  # reverse path order; [0] is the final segment
    segments_left: int
    next_header: int = 59
    flags: int = 0
    tag: int = 0
    tlv_bytes: bytes = b""
    last_entry: int | None = field(default=None)

    def __post_init__(self) -> None:
        self.segments = [as_addr(seg) for seg in self.segments]
        if not self.segments:
            raise ValueError("SRH needs at least one segment")
        if self.last_entry is None:
            self.last_entry = len(self.segments) - 1
        if not 0 <= self.segments_left <= self.last_entry:
            raise ValueError(
                f"segments_left {self.segments_left} > last_entry {self.last_entry}"
            )
        total = SRH_FIXED_LEN + SEGMENT_LEN * len(self.segments) + len(self.tlv_bytes)
        if total % 8:
            raise ValueError("SRH length must be a multiple of 8 octets")
        if total > 8 * 256:
            raise ValueError(f"SRH of {total} bytes exceeds hdr_ext_len 255 (2048 bytes)")

    # -- wire format ---------------------------------------------------------
    @property
    def wire_len(self) -> int:
        """On-wire size: fixed header + segments + TLV area."""
        return SRH_FIXED_LEN + SEGMENT_LEN * len(self.segments) + len(self.tlv_bytes)

    @property
    def hdr_ext_len(self) -> int:
        """The Hdr Ext Len field: 8-octet units beyond the first 8 bytes."""
        return self.wire_len // 8 - 1

    def pack(self) -> bytes:
        """Serialise to wire bytes (RFC 8754 §2)."""
        head = struct.pack(
            ">BBBBBBH",
            self.next_header,
            self.hdr_ext_len,
            ROUTING_TYPE_SRH,
            self.segments_left,
            self.last_entry,
            self.flags,
            self.tag,
        )
        return head + b"".join(self.segments) + self.tlv_bytes

    @classmethod
    def parse(cls, data: bytes, offset: int = 0) -> "SRH":
        """Build the SRH at ``offset``; raises what :func:`srh_wire_span` raises."""
        total, nsegs = srh_wire_span(data, offset)
        next_header, _, _, segments_left, last_entry, flags, tag = struct.unpack_from(
            ">BBBBBBH", data, offset
        )
        at = offset + SRH_FIXED_LEN
        segments = [bytes(data[at + SEGMENT_LEN * i : at + SEGMENT_LEN * (i + 1)]) for i in range(nsegs)]
        return cls(
            segments=segments,
            segments_left=segments_left,
            next_header=next_header,
            flags=flags,
            tag=tag,
            tlv_bytes=bytes(data[at + SEGMENT_LEN * nsegs : offset + total]),
            last_entry=last_entry,
        )

    # -- SRv6 semantics ----------------------------------------------------------
    @property
    def current_segment(self) -> bytes:
        """The active segment (``segments[segments_left]``)."""
        return self.segments[self.segments_left]

    def advance(self) -> bytes:
        """Decrement ``segments_left`` and return the new active segment."""
        if self.segments_left == 0:
            raise ValueError("cannot advance: segments_left is already 0")
        self.segments_left -= 1
        return self.current_segment

    # -- TLV convenience -------------------------------------------------------
    @property
    def tlvs(self) -> list[Tlv]:
        """The TLV area parsed into Tlv objects."""
        return parse_tlvs(self.tlv_bytes)

    def __str__(self) -> str:
        segs = ", ".join(ntop(seg) for seg in reversed(self.segments))
        return f"SRH sl={self.segments_left} [{segs}] tag={self.tag}"


def make_srh(
    path: list[bytes | str],
    next_header: int,
    tlvs: list[Tlv] | None = None,
    tag: int = 0,
    flags: int = 0,
) -> SRH:
    """Build an SRH for ``path`` given in forward order (first hop first).

    The active segment starts at the first hop; callers set the IPv6
    destination to ``srh.current_segment``.
    """
    segments = [as_addr(seg) for seg in reversed(path)]
    occupied = SRH_FIXED_LEN + SEGMENT_LEN * len(segments)
    tlv_list = pad_tlvs(tlvs or [], occupied)
    tlv_bytes = b"".join(tlv.pack() for tlv in tlv_list)
    return SRH(
        segments=segments,
        segments_left=len(segments) - 1,
        next_header=next_header,
        tag=tag,
        flags=flags,
        tlv_bytes=tlv_bytes,
    )


def make_dm_tlv(tx_timestamp_ns: int, kind: int = DM_KIND_OWD) -> Tlv:
    """The paper's Delay Measurement TLV (§4.1)."""
    return Tlv(TLV_DM, struct.pack(">QB", tx_timestamp_ns & ((1 << 64) - 1), kind))


def make_controller_tlv(addr: bytes | str, port: int) -> Tlv:
    """TLV carrying the delay collector's address and UDP port (§4.1)."""
    return Tlv(TLV_CONTROLLER, as_addr(addr) + struct.pack(">H", port))


def validate_srh_wire(data, offset: int = 0) -> str | None:
    """§3.1 re-validation of the SRH at ``offset``, read where it lies.

    None for a consistent header, else the reason: :func:`srh_wire_span`'s
    checks, then the TLV area's framing.
    """
    try:
        total, nsegs = srh_wire_span(data, offset)
        if total > SRH_FIXED_LEN + SEGMENT_LEN * nsegs:  # no generator frame for no TLVs
            start = offset + SRH_FIXED_LEN + SEGMENT_LEN * nsegs
            for _tlv in _walk_tlvs(data, start, offset + total):
                pass
    except ValueError as exc:
        return str(exc)
    return None
