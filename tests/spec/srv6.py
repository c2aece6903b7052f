"""SRv6 as RFC 8754 and RFC 8986 write it: the oracle the datapath tests compare against.

This module imports nothing from ``repro`` (``tests/spec/test_srv6_spec.py``
checks that).  Every rule is read off the RFC text again, on plain
``bytes``, so a bug in the datapath's one SRH rule cannot hide behind the
same bug here.  Each function returns a verdict: the packet it produces,
or a reason class — a tuple whose first item names the rule that refused
and whose rest are the field values.  :data:`DROP_TEXT` maps each class to
the words the datapath drops or raises with, so those words stay test
observables.

Where the datapath departs from the RFC text on purpose — mostly because
Linux 4.18, whose End.BPF the paper adds, does — the rule is switched by a
name in :data:`KEPT`.  The functions apply those switches unless called
with ``deviations=RFC``; ``docs/ARCHITECTURE.md`` ("Linux 4.18
deviations") lists each one with the test that pins it.

Not modelled: the hop limit (RFC 8986 §4.1 S05 / S14 is the node's
forwarding step, tested with the node) and ICMP errors (a refused packet
is a counted drop here).
"""

from __future__ import annotations

IPV6_HEADER = 40  # RFC 8200 §3
NEXT_ROUTING = 43  # RFC 8200 §4.4
NEXT_IPV6 = 41
NEXT_OPTIONS = (0, 60)  # Hop-by-Hop and Destination Options (RFC 8200 §4.3, §4.6)
ROUTING_TYPE_SRH = 4  # RFC 8754 §2
SRH_FIXED = 8  # next header .. tag
SEGMENT = 16
PAD1 = 0  # RFC 8754 §2.1.1.1: one octet, no length
PAYLOAD_MAX = 0xFFFF  # the IPv6 payload length is 16 bits

# bpf_lwt_push_encap()'s encap types and the helpers' return codes (the uapi).
ENCAP_SEG6 = 0
ENCAP_SEG6_INLINE = 1
OK = 0
EINVAL = (1 << 64) - 22

# -- departures from the RFC text the datapath keeps ------------------------------

# RFC 8754 §4.3.1.1 S10 refuses Segments Left > Last Entry + 1; Linux's
# seg6_validate_srh refuses Segments Left > Last Entry.
SL_BOUND_IS_LAST_ENTRY = "segments_left bounded by last_entry"
# RFC 8986 §4.1 S02 stops SRH processing at Segments Left == 0 before the
# S09-S10 checks; Linux's get_and_validate_srh validates the header first.
VALIDATE_BEFORE_SL_ZERO = "validate before segments_left == 0"
# RFC 8986 §4.4 / §4.6 remove the outer header "with all its extension
# headers", walking each routing header by its length; the datapath holds
# every routing header of the chain to the SRH rule.
DECAP_CHECKS_EVERY_ROUTING_HEADER = "decap checks every routing header"
# RFC 8200 §4.1 lets Hop-by-Hop and Destination Options headers precede
# the routing header, and Linux finds it behind them (ipv6_find_hdr); the
# datapath's End reads the SRH only right after the IPv6 header.
SRH_RIGHT_AFTER_IPV6 = "the SRH right after the IPv6 header"
# Linux checks an End.B6 / End.B6.Encaps parameter with
# seg6_validate_srh(param, param_len), so it must be exactly one SRH; the
# datapath takes the header's own length and ignores what follows.
B6_TAKES_HEADER_LENGTH = "End.B6 takes the header's own length"

KEPT = frozenset(
    {
        SL_BOUND_IS_LAST_ENTRY,
        VALIDATE_BEFORE_SL_ZERO,
        DECAP_CHECKS_EVERY_ROUTING_HEADER,
        SRH_RIGHT_AFTER_IPV6,
        B6_TAKES_HEADER_LENGTH,
    }
)
RFC = frozenset()

# -- reason classes and the datapath's words for them ------------------------------

DROP_TEXT = {
    # SRH validity (RFC 8754 §2, §2.1, §4.3.1.1)
    "srh-truncated": "truncated SRH",
    "srh-routing-type": "routing type {} is not an SRH",
    "srh-past-packet": "SRH length exceeds packet",
    "srh-segment-list": "segment list exceeds SRH length",
    "srh-segments-left": "segments_left {} > last_entry {}",
    "tlv-truncated": "truncated TLV header",
    "tlv-past-area": "TLV value exceeds TLV area",
    # End / End.X / End.T (RFC 8986 §4.1-§4.3)
    "no-srh": "no SRH",
    "segments-left-zero": "segments_left == 0",
    # End.DX6 / End.DT6 (RFC 8986 §4.4, §4.6)
    "decap-segments-left": "{} requires segments_left == 0",
    "decap-failed": "decap failed: {}",
    "ipv6-short": "short IPv6 header: {} bytes",
    "ipv6-version": "not an IPv6 packet (version {})",
    "no-inner-ipv6": "no inner IPv6 packet to decapsulate",
    # transit and binding behaviours
    "payload-too-long": "payload length {} exceeds 65535",
    "action": "{}: {}",  # End.B6 / End.B6.Encaps / End.BPF name their drops
    "bpf-revalidation": "invalid SRH after BPF: {}",
}


def drop_text(reason: tuple) -> str:
    """The datapath's words for ``reason``; a nested reason is worded in place."""
    cls, *args = reason
    return DROP_TEXT[cls].format(*(drop_text(a) if isinstance(a, tuple) else a for a in args))


# -- SRH validity --------------------------------------------------------------------


def tlv_reason(area: bytes) -> tuple | None:
    """Why a TLV area is malformed, or None (RFC 8754 §2.1).

    Pad1 is a lone zero octet; PadN and every other type are a type
    octet, a length octet and that many octets of value, all inside the
    area.
    """
    at = 0
    while at < len(area):
        if area[at] == PAD1:
            at += 1
            continue
        if len(area) - at < 2:
            return ("tlv-truncated",)
        at += 2 + area[at + 1]
        if at > len(area):
            return ("tlv-past-area",)
    return None


def srh_reason(data: bytes, offset: int = 0, *, tlvs: bool = True, deviations=KEPT) -> tuple | None:
    """Why the bytes at ``offset`` are no SRH a node may process, or None.

    The checks, in the order a reader meets the fields: the 8-octet fixed
    part is there; Routing Type is 4 (RFC 8754 §2); Hdr Ext Len, in
    8-octet units after the first 8 (RFC 8200 §4.4), stays inside
    ``data``; Last Entry is at most Hdr Ext Len / 2 - 1 (RFC 8754
    §4.3.1.1 S08-S09); Segments Left is at most Last Entry + 1 (S10); and,
    with ``tlvs``, the TLV area after the segment list is framed
    (RFC 8754 §2.1).
    """
    fixed = data[offset : offset + SRH_FIXED]
    if len(fixed) < SRH_FIXED:
        return ("srh-truncated",)
    _next_header, hdr_ext_len, routing_type, segments_left, last_entry = fixed[:5]
    if routing_type != ROUTING_TYPE_SRH:
        return ("srh-routing-type", routing_type)
    length = 8 * (hdr_ext_len + 1)
    if offset + length > len(data):
        return ("srh-past-packet",)
    if last_entry > hdr_ext_len // 2 - 1:
        return ("srh-segment-list",)
    bound = last_entry if SL_BOUND_IS_LAST_ENTRY in deviations else last_entry + 1
    if segments_left > bound:
        return ("srh-segments-left", segments_left, last_entry)
    if tlvs:
        return tlv_reason(data[offset + SRH_FIXED + SEGMENT * (last_entry + 1) : offset + length])
    return None


def srh_bytes(path, next_header: int, tlvs: bytes = b"", flags: int = 0, tag: int = 0) -> bytes:
    """An SRH steering along ``path`` (first segment first), active segment the first.

    RFC 8754 §2: Segment List[0] is the last segment of the path, so the
    list is stored reversed; Last Entry and Segments Left both index the
    first segment.
    """
    segments = b"".join(reversed([bytes(s) for s in path]))
    length = SRH_FIXED + len(segments) + len(tlvs)
    if length % 8:
        raise ValueError("an SRH is a whole number of 8-octet units")
    last_entry = len(path) - 1
    return bytes([next_header, length // 8 - 1, ROUTING_TYPE_SRH, last_entry, last_entry, flags]) + (
        tag.to_bytes(2, "big") + segments + tlvs
    )


def active_segment(srh: bytes) -> bytes:
    """Segment List[Segments Left]: the destination of a packet carrying ``srh``."""
    at = SRH_FIXED + SEGMENT * srh[3]
    return bytes(srh[at : at + SEGMENT])


# -- End, End.X, End.T (RFC 8986 §4.1-§4.3) -----------------------------------------------


def end(packet: bytes, deviations=KEPT) -> tuple[bytes | None, tuple | None]:
    """The End behaviour's SRH processing: (packet after, None) or (None, reason).

    End.X and End.T process the SRH the same way and differ only in how
    they forward.  The SRH is the routing header, behind any Hop-by-Hop /
    Destination Options headers (RFC 8200 §4.1); its TLVs are not
    processed (S05-S07 make that a local choice).  Segments Left == 0
    stops SRH processing (S02), which for an End SID means a drop;
    otherwise Segments Left is decremented and the destination becomes
    Segment List[Segments Left] (S15-S16).
    """
    if len(packet) < IPV6_HEADER:
        return None, ("no-srh",)
    next_header, at = packet[6], IPV6_HEADER
    while SRH_RIGHT_AFTER_IPV6 not in deviations and next_header in NEXT_OPTIONS and len(packet) - at >= 2:
        next_header, at = packet[at], at + 8 * (packet[at + 1] + 1)
    if next_header != NEXT_ROUTING:
        return None, ("no-srh",)
    reason = srh_reason(packet, at, tlvs=False, deviations=deviations)
    if reason is not None:
        checked_before_s02 = reason[0] in ("srh-truncated", "srh-routing-type", "srh-past-packet")
        if VALIDATE_BEFORE_SL_ZERO in deviations or checked_before_s02 or packet[at + 3]:
            return None, ("no-srh",)
    segments_left = packet[at + 3]
    if segments_left == 0:
        return None, ("segments-left-zero",)
    out = bytearray(packet)
    out[at + 3] = segments_left - 1
    out[24:40] = active_segment(out[at:])
    return bytes(out), None


# -- decapsulation: End.DX6, End.DT6 (RFC 8986 §4.4, §4.6) ----------------------------------


def ipv6_reason(packet: bytes) -> tuple | None:
    """Why ``packet`` is no IPv6 packet (RFC 8200 §3), or None."""
    if len(packet) < IPV6_HEADER:
        return ("ipv6-short", len(packet))
    if packet[0] >> 4 != 6:
        return ("ipv6-version", packet[0] >> 4)
    return None


def decapsulate(packet: bytes, deviations=KEPT) -> tuple[bytes | None, tuple | None]:
    """Remove the outer IPv6 header with its routing headers: (inner packet, None) or (None, reason).

    The upper-layer step of End.DX6 / End.DT6 and of
    ``bpf_lwt_seg6_action(End.DT6)``: the chain must end in an IPv6
    packet (next header 41).  Each routing header is walked by its length
    (RFC 8200 §4.4), and one of an unknown type with Segments Left != 0 is
    an error there; :data:`DECAP_CHECKS_EVERY_ROUTING_HEADER` holds each
    to :func:`srh_reason` instead.
    """
    reason = ipv6_reason(packet)
    if reason is not None:
        return None, reason
    next_header, at = packet[6], IPV6_HEADER
    while next_header == NEXT_ROUTING:
        if DECAP_CHECKS_EVERY_ROUTING_HEADER in deviations:
            reason = srh_reason(packet, at, tlvs=False, deviations=deviations)
        elif len(packet) - at < SRH_FIXED:
            reason = ("srh-truncated",)
        elif packet[at + 2] != ROUTING_TYPE_SRH and packet[at + 3]:
            reason = ("srh-routing-type", packet[at + 2])
        elif at + 8 * (packet[at + 1] + 1) > len(packet):
            reason = ("srh-past-packet",)
        if reason is not None:
            return None, reason
        next_header, at = packet[at], at + 8 * (packet[at + 1] + 1)
    if next_header != NEXT_IPV6:
        return None, ("no-inner-ipv6",)
    return bytes(packet[at:]), None


def end_decap(packet: bytes, kind: str, deviations=KEPT) -> tuple[bytes | None, tuple | None]:
    """End.DX6 / End.DT6 (``kind``): (inner packet, None) or (None, reason).

    An SRH right after the IPv6 header that still has segments to visit
    is refused (S02-S04); otherwise the packet is decapsulated.  With
    :data:`DECAP_CHECKS_EVERY_ROUTING_HEADER` only an SRH that passes the
    rule is asked for its Segments Left; a malformed one is a decap
    failure.
    """
    if len(packet) > IPV6_HEADER + 3 and packet[6] == NEXT_ROUTING and packet[IPV6_HEADER + 3]:
        if DECAP_CHECKS_EVERY_ROUTING_HEADER in deviations:
            is_srh = srh_reason(packet, IPV6_HEADER, tlvs=False, deviations=deviations) is None
        else:
            is_srh = packet[IPV6_HEADER + 2] == ROUTING_TYPE_SRH
        if is_srh:
            return None, ("decap-segments-left", kind)
    inner, reason = decapsulate(packet, deviations)
    return (inner, None) if reason is None else (None, ("decap-failed", reason))


# -- transit behaviours: T.Encaps (H.Encaps, RFC 8986 §5.1) and T.Insert ----------------------


def t_encaps(packet: bytes, source: bytes, srh: bytes, hop_limit: int = 64) -> tuple[bytes | None, tuple | None]:
    """Push an outer IPv6 header with its own SRH: (packet after, None) or (None, reason).

    Outer source ``source``, destination the SRH's active segment, next
    header 43; the SRH's own next header becomes 41.  The RFC leaves the
    outer Traffic Class, Flow Label and Hop Limit to local policy: 0, 0
    and ``hop_limit`` here.
    """
    payload = len(srh) + len(packet)
    if payload > PAYLOAD_MAX:
        return None, ("payload-too-long", payload)
    outer = (
        (6 << 28).to_bytes(4, "big") + payload.to_bytes(2, "big") + bytes([NEXT_ROUTING, hop_limit])
        + bytes(source) + active_segment(srh)
    )  # fmt: skip
    return outer + bytes([NEXT_IPV6]) + bytes(srh[1:]) + bytes(packet), None


def t_insert(packet: bytes, srh: bytes) -> tuple[bytes | None, tuple | None]:
    """Insert ``srh`` right after the IPv6 header: (packet after, None) or (None, reason).

    The header keeps its version, class, flow label, hop limit and
    source; its next header moves into the SRH, it gets 43 and the
    destination becomes the SRH's active segment.  The caller has put the
    old destination into the segment list.
    """
    reason = ipv6_reason(packet)
    if reason is not None:
        return None, reason
    payload = int.from_bytes(packet[4:6], "big") + len(srh)
    if payload > PAYLOAD_MAX:
        return None, ("payload-too-long", payload)
    header = bytes(packet[:4]) + payload.to_bytes(2, "big") + bytes([NEXT_ROUTING, packet[7]]) + bytes(packet[8:24])
    return header + active_segment(srh) + bytes([packet[6]]) + bytes(srh[1:]) + bytes(packet[IPV6_HEADER:]), None


# -- binding behaviours: End.B6 (insert) and End.B6.Encaps (RFC 8986 §4.13) --------------------


def end_b6(packet: bytes, policy) -> tuple[bytes | None, tuple | None]:
    """Insert an SRH for ``policy`` followed by the packet's destination; no advance."""
    srh = srh_bytes([*policy, packet[24:40]], packet[6])
    out, reason = t_insert(packet, srh)
    return (out, None) if reason is None else (None, ("action", "End.B6", reason))


def end_b6_encaps(packet: bytes, policy, source: bytes, deviations=KEPT) -> tuple[bytes | None, tuple | None]:
    """End's SRH processing, then an outer header with an SRH for ``policy``."""
    advanced, reason = end(packet, deviations)
    if reason is not None:
        return None, reason
    out, reason = t_encaps(advanced, source, srh_bytes(policy, NEXT_IPV6))
    return (out, None) if reason is None else (None, ("action", "End.B6.Encaps", reason))


# -- the §3.1 helper contracts ---------------------------------------------------------


def push_encap(packet: bytes, source: bytes, encap_type: int, hdr: bytes) -> tuple[int, bytes]:
    """``bpf_lwt_push_encap``: (return code, packet after).

    ``hdr`` must be exactly one SRH that passes :func:`srh_reason`, TLV
    area included; then T.Encaps (source ``source``) or T.Insert.
    """
    if srh_reason(hdr) is not None or 8 * (hdr[1] + 1) != len(hdr):
        return EINVAL, packet
    if encap_type == ENCAP_SEG6:
        out, _reason = t_encaps(packet, source, hdr)
    elif encap_type == ENCAP_SEG6_INLINE:
        out, _reason = t_insert(packet, hdr)
    else:
        return EINVAL, packet
    return (EINVAL, packet) if out is None else (OK, out)


def seg6_action_b6(packet: bytes, source: bytes, encaps: bool, param: bytes, deviations=KEPT) -> tuple[int, bytes]:
    """``bpf_lwt_seg6_action(End.B6 / End.B6.Encaps)``: :func:`push_encap` with ``param``.

    :data:`B6_TAKES_HEADER_LENGTH` cuts ``param`` to the length its
    header states instead of demanding that it be exactly that long.
    """
    if B6_TAKES_HEADER_LENGTH in deviations and srh_reason(param) is None:
        param = param[: 8 * (param[1] + 1)]
    return push_encap(packet, source, ENCAP_SEG6 if encaps else ENCAP_SEG6_INLINE, param)


def seg6_action_dt6(packet: bytes, deviations=KEPT) -> tuple[int, bytes]:
    """``bpf_lwt_seg6_action(End.DT6)``: :func:`decapsulate`, no Segments Left demand."""
    inner, _reason = decapsulate(packet, deviations)
    return (EINVAL, packet) if inner is None else (OK, inner)


def adjust_srh(packet: bytes, offset: int, delta: int) -> tuple[int, bytes]:
    """``bpf_lwt_seg6_adjust_srh`` on a packet whose valid SRH follows its IPv6 header.

    Grows the TLV area by ``delta`` zero octets at packet offset
    ``offset``, or removes ``-delta`` octets there.  ``offset`` lies in the
    TLV area (RFC 8754 §2: after the segment list, to the end of the
    header) and a removal stays inside it; the header stays a whole number
    of 8-octet units that Hdr Ext Len's 8 bits can state, and the payload
    length fits its 16 bits.  Anything else is -EINVAL with the packet
    unchanged.
    """
    if delta == 0:
        return OK, packet
    hdr_ext_len, last_entry = packet[IPV6_HEADER + 1], packet[IPV6_HEADER + 4]
    tlv_start = IPV6_HEADER + SRH_FIXED + SEGMENT * (last_entry + 1)
    tlv_end = IPV6_HEADER + 8 * (hdr_ext_len + 1)
    new_units = (8 * (hdr_ext_len + 1) + delta) // 8 - 1
    payload = int.from_bytes(packet[4:6], "big") + delta
    if (
        delta % 8
        or not tlv_start <= offset <= tlv_end
        or offset - delta > tlv_end
        or new_units > 0xFF
        or not 0 <= payload <= PAYLOAD_MAX
    ):
        return EINVAL, packet
    if delta > 0:
        out = bytearray(packet[:offset]) + bytes(delta) + packet[offset:]
    else:
        out = bytearray(packet[:offset]) + packet[offset - delta :]
    out[4:6] = payload.to_bytes(2, "big")
    out[IPV6_HEADER + 1] = new_units
    return OK, bytes(out)
