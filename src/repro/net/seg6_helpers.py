"""The SRv6 eBPF helpers of §3.1, plus the §4.3 ECMP-nexthop helper.

These are the paper's interface between eBPF programs and the SRv6 data
plane.  Design principle (i) of §3 — *"eBPF code cannot compromise the
stability of the kernel"* — is implemented by giving programs **no**
direct write access to packets; every mutation flows through these
helpers, which validate offsets against the SRH's immutable fields and
keep the header internally consistent.  They edit the one packet buffer
of the invocation — ``hctx.skb.packet_region.data``, which *is*
``pkt.data`` on the datapath — where it lies: a helper may resize that
bytearray (and then calls ``skb.packet_resized()``) but never rebinds
it, because the translated program holds it in a local.

Helper ids 73–76 follow Linux 4.18's uapi ordering for the LWT/seg6
family; ``get_ecmp_nexthops`` is the paper's custom addition ("our custom
helper returning the ECMP nexthops for a given address required only 50
SLOC in the kernel") and lives in a private id range.
"""

from __future__ import annotations

import struct

from ..ebpf import isa
from ..ebpf.errors import HelperError
from ..ebpf.helpers import HelperContext, register_helper
from .ipv6 import IPV6_HEADER_LEN, PROTO_ROUTING
from .seg6 import BPF_LWT_ENCAP_SEG6, BPF_LWT_ENCAP_SEG6_INLINE, _srh_head, decap_in_place
from .seg6local import (
    SEG6_LOCAL_ACTION_END_B6,
    SEG6_LOCAL_ACTION_END_B6_ENCAP,
    SEG6_LOCAL_ACTION_END_DT6,
    SEG6_LOCAL_ACTION_END_T,
    SEG6_LOCAL_ACTION_END_X,
)
from .srh import OFF_HDR_EXT_LEN, srh_wire_span, validate_srh_wire

_ERR = -22 & isa.U64  # -EINVAL
_OK = 0

# Helper-id sets per hook, enforced at program load time (the kernel
# restricts helper availability by program type).
SEG6LOCAL_HELPERS = frozenset({1, 2, 3, 5, 6, 7, 8, 25, 74, 75, 76, 1000, 1001})
LWT_HELPERS = frozenset({1, 2, 3, 5, 6, 7, 8, 25, 73, 1000})


def _require_hook(hctx: HelperContext, allowed: tuple[str, ...], name: str) -> None:
    if hctx.hook not in allowed:
        raise HelperError(f"{name} is not available on hook {hctx.hook!r}")


def _srh_span(packet_bytes) -> tuple[int, int, int]:
    """(offset, wire length, segment count) of the packet's SRH.

    Raises HelperError when the packet has none that the one SRH rule,
    :func:`repro.net.srh.srh_wire_span`, accepts; the helpers below only
    need its offsets, and this runs on every ``store_bytes`` /
    ``adjust_srh`` call.
    """
    if len(packet_bytes) < IPV6_HEADER_LEN or packet_bytes[6] != PROTO_ROUTING:
        raise HelperError("packet has no SRH")
    try:
        total, nsegs = srh_wire_span(packet_bytes, IPV6_HEADER_LEN)
    except ValueError as exc:
        raise HelperError(f"malformed SRH: {exc}") from exc
    return IPV6_HEADER_LEN, total, nsegs


@register_helper(
    74,
    "lwt_seg6_store_bytes",
    [("ctx",), ("scalar",), ("mem", "r", "sizearg", 4), ("scalar",)],
)
def _lwt_seg6_store_bytes(
    hctx: HelperContext, ctx_addr: int, offset: int, from_addr: int, length: int
) -> int:
    """Indirect write restricted to the SRH's editable fields (§3.1).

    ``offset`` is relative to the start of the packet.  Only the flags
    byte, the tag, and the TLV area may be written; the fixed header
    fields and the segment list are immutable, exactly as in the kernel
    implementation.  The bytes land in the packet buffer itself.
    """
    _require_hook(hctx, ("seg6local",), "lwt_seg6_store_bytes")
    packet = hctx.skb.packet_region.data
    srh_off, srh_len, nsegs = _srh_span(packet)
    offset = isa.to_signed64(offset)

    flags_start = srh_off + 5  # flags byte + 2-byte tag
    flags_end = srh_off + 8
    tlv_start = srh_off + 8 + 16 * nsegs
    tlv_end = srh_off + srh_len

    in_flags = flags_start <= offset and offset + length <= flags_end
    in_tlvs = tlv_start <= offset and offset + length <= tlv_end
    if length <= 0 or not (in_flags or in_tlvs):
        return _ERR

    packet[offset : offset + length] = hctx.mem.read_bytes(from_addr, length)
    hctx.metadata["srh_modified"] = True
    return _OK


@register_helper(75, "lwt_seg6_adjust_srh", [("ctx",), ("scalar",), ("scalar",)])
def _lwt_seg6_adjust_srh(
    hctx: HelperContext, ctx_addr: int, offset: int, delta: int
) -> int:
    """Grow or shrink the SRH's TLV area by ``delta`` bytes (§3.1).

    ``offset`` must point inside (or at the end of) the TLV area; the new
    SRH length must stay a multiple of 8 octets.  The packet buffer is
    resized where it lies — one insert or delete plus the two length
    fields, the kernel's ``memmove`` — and only after every check passed.
    Grown space is zero-filled — the program must then fill it with valid
    TLVs or the post-run validation drops the packet.
    """
    _require_hook(hctx, ("seg6local",), "lwt_seg6_adjust_srh")
    skb = hctx.skb
    packet = skb.packet_region.data  # pkt.data itself: edited where it lies
    srh_off, srh_len, nsegs = _srh_span(packet)
    offset = isa.to_signed64(offset)
    delta = isa.to_signed64(delta)
    if delta == 0:
        return _OK

    # Every check before the first write, so an -EINVAL leaves the packet
    # and the context exactly as they were.
    tlv_start = srh_off + 8 + 16 * nsegs
    tlv_end = srh_off + srh_len
    new_ext_len = (srh_len + delta) // 8 - 1
    payload_len = struct.unpack_from(">H", packet, 4)[0] + delta
    if (
        delta % 8
        or not tlv_start <= offset <= tlv_end
        or offset - delta > tlv_end  # a shrink past the end of the TLV area
        or not 2 * nsegs <= new_ext_len <= 255  # the segment list alone is 2 units a segment
        or not 0 <= payload_len <= 0xFFFF
    ):
        return _ERR

    if delta > 0:
        packet[offset:offset] = bytes(delta)
    else:
        del packet[offset : offset - delta]
    packet[srh_off + 1] = new_ext_len
    struct.pack_into(">H", packet, 4, payload_len)
    skb.packet_resized()
    hctx.metadata["srh_modified"] = True
    return _OK


@register_helper(
    76,
    "lwt_seg6_action",
    [("ctx",), ("scalar",), ("mem", "r", "sizearg", 4), ("scalar",)],
)
def _lwt_seg6_action(
    hctx: HelperContext, ctx_addr: int, action: int, param_addr: int, param_len: int
) -> int:
    """Execute a native SRv6 behaviour from BPF (§3.1).

    Supported actions mirror the paper: End.X, End.T, End.B6,
    End.B6.Encaps and End.DT6.  Actions that resolve a destination store
    it in the packet metadata; the program should then return
    ``BPF_REDIRECT`` so the default lookup does not overwrite it.  End.DT6
    strips the outer headers off the packet buffer in place; a failed
    action leaves it untouched.
    """
    _require_hook(hctx, ("seg6local",), "lwt_seg6_action")
    param = hctx.mem.read_bytes(param_addr, param_len)

    if action == SEG6_LOCAL_ACTION_END_X:
        if param_len != 16:
            return _ERR
        hctx.metadata["redirect_nh6"] = bytes(param)
        return _OK

    if action == SEG6_LOCAL_ACTION_END_T:
        if param_len != 4:
            return _ERR
        hctx.metadata["redirect_table"] = int.from_bytes(param, "little")
        return _OK

    if action == SEG6_LOCAL_ACTION_END_DT6:
        skb = hctx.skb
        if param_len != 4 or decap_in_place(skb.packet_region.data) is not None:
            return _ERR
        skb.packet_resized()
        hctx.metadata["redirect_table"] = int.from_bytes(param, "little")
        return _OK

    if action == SEG6_LOCAL_ACTION_END_B6:
        return _push_srh(hctx, BPF_LWT_ENCAP_SEG6_INLINE, param)
    if action == SEG6_LOCAL_ACTION_END_B6_ENCAP:
        return _push_srh(hctx, BPF_LWT_ENCAP_SEG6, param)
    return _ERR


def _push_srh(hctx: HelperContext, encap_type: int, raw, exact_len: bool = False) -> int:
    """Splice the program's SRH into the packet as the wire bytes it is.

    ``raw`` must pass :func:`~repro.net.srh.validate_srh_wire`, TLV area
    included, as Linux's ``seg6_validate_srh`` checks it; it is cut to the
    length the header states (``exact_len``: it must be that long).
    The headers are built first, by the transit behaviours' own builder, and
    then spliced into the buffer where it lies: in front of the packet for
    T.Encaps, in place of its IPv6 header for T.Insert.  A failed check
    leaves the buffer untouched.
    """
    if validate_srh_wire(raw) is not None:
        return _ERR
    if len(raw) != (raw[OFF_HDR_EXT_LEN] + 1) * 8:
        if exact_len:
            return _ERR
        raw = raw[: (raw[OFF_HDR_EXT_LEN] + 1) * 8]
    skb = hctx.skb
    data = skb.packet_region.data
    try:
        if encap_type == BPF_LWT_ENCAP_SEG6:
            node = hctx.node
            source = node.primary_address() if node else bytes(16)
            data[:0] = _srh_head(data, raw, source)
        elif encap_type == BPF_LWT_ENCAP_SEG6_INLINE:
            data[:IPV6_HEADER_LEN] = _srh_head(data, raw)
        else:
            return _ERR
    except ValueError:
        return _ERR
    skb.packet_resized()
    return _OK


@register_helper(
    73,
    "lwt_push_encap",
    [("ctx",), ("scalar",), ("mem", "r", "sizearg", 4), ("scalar",)],
)
def _lwt_push_encap(
    hctx: HelperContext, ctx_addr: int, encap_type: int, hdr_addr: int, hdr_len: int
) -> int:
    """Push an SRH onto plain IPv6 traffic from a BPF LWT program (§3.1).

    The program builds the complete SRH (segment list and TLVs) in its
    stack and passes it here — which is why the paper's DM sampler is a
    130-SLOC program.  ``encap_type`` selects outer encapsulation
    (``BPF_LWT_ENCAP_SEG6``) or inline insertion
    (``BPF_LWT_ENCAP_SEG6_INLINE``).
    """
    _require_hook(hctx, ("lwt_in", "lwt_out", "lwt_xmit"), "lwt_push_encap")
    return _push_srh(hctx, encap_type, hctx.mem.read_bytes(hdr_addr, hdr_len), exact_len=True)


@register_helper(
    1001,
    "get_ecmp_nexthops",
    [("ctx",), ("mem", "r", "fixed", 16), ("mem", "w", "sizearg", 4), ("scalar",)],
)
def _get_ecmp_nexthops(
    hctx: HelperContext, ctx_addr: int, addr_ptr: int, out_ptr: int, out_len: int
) -> int:
    """The paper's custom helper (§4.3): ECMP nexthops for an address.

    Writes up to ``out_len // 16`` nexthop addresses into the program's
    buffer and returns how many were written.  Nexthops without an
    explicit gateway (on-link routes) report the queried address itself.
    """
    if hctx.node is None:
        return 0
    dst = hctx.mem.read_bytes(addr_ptr, 16)
    nexthops = hctx.node.main_table().ecmp_nexthops(dst)
    max_entries = out_len // 16
    written = 0
    for nh in nexthops[:max_entries]:
        via = nh.via if nh.via is not None else dst
        hctx.mem.write_bytes(out_ptr + 16 * written, via)
        written += 1
    return written
