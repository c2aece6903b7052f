"""The object-based SRv6 transforms, kept as the tests' reference.

These are the bodies ``repro.net.seg6`` / ``seg6local`` / ``seg6_helpers``
had before they moved to wire bytes: every transform parses an
:class:`~repro.net.ipv6.IPv6Header` and an :class:`~repro.net.srh.SRH`,
edits the objects and packs them again.  ``test_seg6_wire.py`` holds the
byte-level bodies to these, output for output and reason for reason.
Nothing here is imported by ``src/``.
"""

from __future__ import annotations

from repro.net.ipv6 import IPV6_HEADER_LEN, IPv6Header, PROTO_IPV6, PROTO_ROUTING
from repro.net.packet import Packet
from repro.net.seg6 import BPF_LWT_ENCAP_SEG6, BPF_LWT_ENCAP_SEG6_INLINE
from repro.net.srh import SRH, make_srh

ERR = -22 & 0xFFFFFFFFFFFFFFFF  # -EINVAL, as the helpers return it
OK = 0


def push_srh_inline(data: bytes, srh: SRH) -> bytes:
    header = IPv6Header.parse(data)
    srh.next_header = header.next_header
    raw_srh = srh.pack()
    header.next_header = PROTO_ROUTING
    header.dst = srh.current_segment
    header.payload_length += len(raw_srh)
    return header.pack() + raw_srh + data[IPV6_HEADER_LEN:]


def push_outer_encap(data: bytes, outer_src: bytes, srh: SRH, hop_limit: int = 64) -> bytes:
    srh.next_header = PROTO_IPV6
    raw_srh = srh.pack()
    outer = IPv6Header(
        src=outer_src,
        dst=srh.current_segment,
        next_header=PROTO_ROUTING,
        payload_length=len(raw_srh) + len(data),
        hop_limit=hop_limit,
    )
    return outer.pack() + raw_srh + data


def pop_srh(data: bytes) -> bytes:
    header = IPv6Header.parse(data)
    if header.next_header != PROTO_ROUTING:
        raise ValueError("packet has no SRH to remove")
    srh = SRH.parse(data, IPV6_HEADER_LEN)
    header.next_header = srh.next_header
    header.payload_length -= srh.wire_len
    return header.pack() + data[IPV6_HEADER_LEN + srh.wire_len :]


def decap_outer(data: bytes) -> bytes:
    header = IPv6Header.parse(data)
    offset = IPV6_HEADER_LEN
    proto = header.next_header
    while proto == PROTO_ROUTING:
        srh = SRH.parse(data, offset)
        offset += srh.wire_len
        proto = srh.next_header
    if proto != PROTO_IPV6:
        raise ValueError("no inner IPv6 packet to decapsulate")
    return bytes(data[offset:])


def seg6encap_apply(segments: list[bytes], mode: str, data: bytes, node_src: bytes) -> bytes:
    """``Seg6Encap.apply``: one ``make_srh`` per packet in either mode."""
    header = IPv6Header.parse(data)
    if mode == "inline":
        path = list(segments) + [header.dst]
        srh = make_srh(path, next_header=header.next_header)
        return push_srh_inline(data, srh)
    srh = make_srh(list(segments), next_header=PROTO_IPV6)
    return push_outer_encap(data, node_src, srh)


def end_decap(kind: str, data: bytes) -> tuple[str, str, bytes]:
    """``EndDT6`` / ``EndDX6.process``: (action, reason, packet bytes after)."""
    pkt = Packet(data)
    srh_info = pkt.srh()
    if srh_info is not None and srh_info[0].segments_left != 0:
        return "drop", f"{kind} requires segments_left == 0", data
    try:
        inner = decap_outer(bytes(pkt.data))
    except ValueError as exc:
        return "drop", f"decap failed: {exc}", data
    return "forward", "", inner


def lwt_push_encap(packet: bytes, source: bytes, encap_type: int, raw: bytes) -> tuple[int, bytes]:
    """``bpf_lwt_push_encap`` on ``raw`` (``hdr_len == len(raw)``): (code, packet after)."""
    try:
        srh = SRH.parse(raw)
    except ValueError:
        return ERR, packet
    if srh.wire_len != len(raw):
        return ERR, packet
    try:
        if encap_type == BPF_LWT_ENCAP_SEG6:
            return OK, push_outer_encap(packet, source, srh)
        if encap_type == BPF_LWT_ENCAP_SEG6_INLINE:
            return OK, push_srh_inline(packet, srh)
    except ValueError:
        pass
    return ERR, packet


def action_end_dt6(packet: bytes) -> tuple[int, bytes]:
    """``bpf_lwt_seg6_action(End.DT6)``: no segments_left requirement, only the decap."""
    try:
        return OK, decap_outer(packet)
    except ValueError:
        return ERR, packet


def adjust_srh(packet: bytes, offset: int, delta: int) -> tuple[int, bytes]:
    """``bpf_lwt_seg6_adjust_srh`` on a packet with a well-formed SRH: (code, packet after)."""
    header = IPv6Header.parse(packet)
    srh = SRH.parse(packet, IPV6_HEADER_LEN)
    tlv_start = IPV6_HEADER_LEN + 8 + 16 * len(srh.segments)
    tlv_end = IPV6_HEADER_LEN + srh.wire_len
    if delta == 0:
        return OK, packet
    at = offset - tlv_start
    # 2048: more than hdr_ext_len can express, whatever the SRH held.
    if delta % 8 or delta > 2048 or not 0 <= at <= len(srh.tlv_bytes) or at - delta > len(srh.tlv_bytes):
        return ERR, packet
    if delta > 0:
        srh.tlv_bytes = srh.tlv_bytes[:at] + bytes(delta) + srh.tlv_bytes[at:]
    else:
        srh.tlv_bytes = srh.tlv_bytes[:at] + srh.tlv_bytes[at - delta :]
    header.payload_length += delta
    if srh.hdr_ext_len > 255 or not 0 <= header.payload_length <= 0xFFFF:
        return ERR, packet
    return OK, header.pack() + srh.pack() + packet[tlv_end:]
