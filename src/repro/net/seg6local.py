"""``seg6local`` lightweight tunnel: SRv6 endpoint behaviours, incl. End.BPF.

This module reproduces the paper's core contribution (§3).  A seg6local
route binds a local segment (an IPv6 prefix) to an action; packets routed
to that segment are consumed by the action instead of being forwarded.

Static actions (already in Linux before the paper): End, End.X, End.T,
End.DX6, End.DT6, End.B6, End.B6.Encaps.

**End.BPF** (the paper's addition, released in Linux 4.18) accepts SRv6
packets whose active segment is local, *advances the SRH to the next
segment*, and then executes the attached eBPF program.  The program's
return value selects the subsequent processing:

* ``BPF_OK`` — regular FIB lookup on the (new) destination;
* ``BPF_DROP`` — drop;
* ``BPF_REDIRECT`` — skip the default lookup and use the destination the
  seg6 action helper already resolved.

If the program altered the SRH through the helpers, the header is
re-validated before the packet continues; an inconsistent SRH is dropped
(§3.1).

Every advancing action's ``process`` runs the one End prologue,
:func:`_advance`: a read of the fixed SRH header, segments_left and the
destination written where they lie, a drop reason or None back — no
SRH object.  An attached program — End.BPF's here, a BPF LWT hook's in
:mod:`~repro.net.lwt_bpf` — is run in exactly one way,
:func:`run_attached`: arm the attach site's own
:class:`~repro.ebpf.jit.CompiledHandler` on ``pkt.data`` itself by the
plan the handler read off the verifier's facts, call the translated
function, read back what the facts say it could change (the mark if it
stores ``skb->mark``; after a helper call, an SRH to re-validate where
it lies), map the return code.  So End.BPF costs End plus its program:
the paper's ``End`` (``r0 = 0; exit``) pays for the prologue, the packet
bind and the call.  There is one packet buffer per invocation: the
helpers edit ``pkt.data`` in place, so nothing is copied in or out and
a packet the program edited and then dropped keeps the edits, as the
kernel's skb does.  A site's first packet pays the guest address-space
assembly; no packet pays an SRH parse.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..ebpf import BPF_DROP, BPF_OK, BPF_REDIRECT, Program
from ..ebpf.context import SkbContext
from ..ebpf.errors import BpfError, VmFault
from ..ebpf.isa import STACK_SIZE
from ..ebpf.jit import HANDLER_COUNTS, CompiledHandler
from .addr import as_addr
from .ipv6 import IPV6_HEADER_LEN, PROTO_IPV6, PROTO_ROUTING
from .packet import Packet
from .seg6 import decap_in_place, push_outer_encap, push_srh_inline
from .srh import (
    OFF_HDR_EXT_LEN,
    OFF_LAST_ENTRY,
    OFF_SEGMENTS_LEFT,
    ROUTING_TYPE_SRH,
    SEGMENT_LEN,
    SRH_FIXED_LEN,
    make_srh,
    srh_wire_span,
    validate_srh_wire,
)

# Action numbers from include/uapi/linux/seg6_local.h; these are also the
# values bpf_lwt_seg6_action() accepts.
SEG6_LOCAL_ACTION_END = 1
SEG6_LOCAL_ACTION_END_X = 2
SEG6_LOCAL_ACTION_END_T = 3
SEG6_LOCAL_ACTION_END_DX6 = 5
SEG6_LOCAL_ACTION_END_DT6 = 7
SEG6_LOCAL_ACTION_END_B6 = 9
SEG6_LOCAL_ACTION_END_B6_ENCAP = 10


@dataclass
class Disposition:
    """What the node should do with the packet after an action ran.

    ``bpf`` marks drops decided by an attached eBPF program's execution
    (an explicit ``BPF_DROP`` verdict, a program fault, or a
    program-corrupted SRH) — the node's ``bpf_dropped`` counter counts
    exactly these, independent of the human-readable ``reason`` text.
    """

    action: str  # "forward" | "drop"
    table_id: int | None = None
    nh6: bytes | None = None
    reason: str = ""
    bpf: bool = False

    @classmethod
    def forward(cls, table_id=None, nh6=None) -> "Disposition":
        """Continue routing, optionally in ``table_id`` or toward ``nh6``."""
        return cls("forward", table_id=table_id, nh6=nh6)

    @classmethod
    def drop(cls, reason: str, bpf: bool = False) -> "Disposition":
        """Consume the packet; ``reason`` lands in logs/tests.

        Pass ``bpf=True`` when the drop is a BPF program's doing, so the
        datapath can count it without parsing the reason string.
        """
        return cls("drop", reason=reason, bpf=bpf)


# Shared instance for the overwhelmingly common verdict.  Dispositions are
# read-only to the datapath, so the hot paths return this instead of
# allocating a fresh "plain forward" per packet.
_FORWARD = Disposition("forward")


# --- SRv6 "End" prologue ----------------------------------------------------------
#
# Every advancing endpoint action starts with the same prologue: check the
# SRH, check segments_left, decrement it and rewrite the IPv6 destination to
# the new active segment.  It needs only the fixed SRH header and one
# segment, so it works where they lie: one read of the header fields, two
# writes, no SRH object and nothing cached per flow that a large flow
# population could thrash.  It inlines :func:`~repro.net.srh.srh_wire_span`'s
# checks, which the tests hold both of them to (``tests/spec/srv6.py``).

_V_NO_SRH = "no SRH"
_V_SL_ZERO = "segments_left == 0"

# Where the prologue's SRH fields sit in the packet (the SRH directly
# follows the IPv6 header), folded here so the per-packet path adds nothing.
_AT_SEGMENTS_LEFT = IPV6_HEADER_LEN + OFF_SEGMENTS_LEFT
_AT_SEGMENTS = IPV6_HEADER_LEN + SRH_FIXED_LEN

# The IPv6 next header, then the SRH's hdr_ext_len, routing_type,
# segments_left and last_entry (consecutive bytes) up to the end of its
# fixed header: a packet too short for that fails the read.
_SRH_HEAD = struct.Struct(
    f"!B{IPV6_HEADER_LEN + OFF_HDR_EXT_LEN - 7}xBBBB{SRH_FIXED_LEN - OFF_LAST_ENTRY - 1}x"
).unpack_from


def _advance(data: bytearray) -> str | None:
    """The End prologue, in place: None once advanced, else the drop reason.

    ``_V_NO_SRH`` exactly when the IPv6 next header is no routing header or
    :func:`~repro.net.srh.srh_wire_span` would raise for it, ``_V_SL_ZERO``
    for a valid SRH with nothing left to visit; either way ``data`` is left
    as it came.  Otherwise segments_left is decremented and the new active
    segment becomes the destination, both where they lie.
    """
    try:
        next_header, hdr_ext_len, routing_type, segments_left, last_entry = _SRH_HEAD(data, 6)
    except struct.error:
        return _V_NO_SRH
    if (
        next_header != PROTO_ROUTING
        or routing_type != ROUTING_TYPE_SRH
        or segments_left > last_entry
        # The segment list fits the header: 8 + 16 (last_entry + 1) <= 8 (hdr_ext_len + 1).
        or hdr_ext_len < 2 * last_entry + 2
        # The header fits the packet: 40 + 8 (hdr_ext_len + 1) <= len(data).
        or len(data) < _AT_SEGMENTS + 8 * hdr_ext_len
    ):
        return _V_NO_SRH
    if not segments_left:
        return _V_SL_ZERO
    segments_left -= 1
    data[_AT_SEGMENTS_LEFT] = segments_left
    at = _AT_SEGMENTS + SEGMENT_LEN * segments_left
    data[24:40] = data[at : at + SEGMENT_LEN]
    return None


def clear_advance_memo() -> None:
    """Nothing left to clear — the End prologue and §3.1 re-validation keep no state;
    ``benchmarks/ledger`` still imports and calls this name."""


class Seg6LocalAction:
    """Base class: validates the SRH and advances to the next segment."""

    kind = "End"
    # Packets handed to this action instance (the per-SID telemetry
    # counter); bumped by the node after dispatch, not on the hot path
    # of process() itself.  Class default keeps dataclass subclasses'
    # generated __init__ signatures unchanged.
    processed = 0
    # What an advanced packet does next: End.X and End.T pin a nexthop
    # or a table.
    _forward = _FORWARD

    def process(self, pkt: Packet, node) -> Disposition:
        """Advance to the next segment in place (:func:`_advance`), then
        forward (End, End.X, End.T, §2)."""
        reason = _advance(pkt.data)
        if reason is None:
            return self._forward
        return Disposition.drop(reason)


@dataclass
class End(Seg6LocalAction):
    """Plain endpoint: advance and forward along the next segment."""

    kind = "End"


@dataclass
class EndX(Seg6LocalAction):
    """Advance, then forward to a specific layer-3 nexthop."""

    nh6: bytes
    kind = "End.X"

    def __post_init__(self) -> None:
        self.nh6 = as_addr(self.nh6)
        self._forward = Disposition.forward(nh6=self.nh6)


@dataclass
class EndT(Seg6LocalAction):
    """Advance, then look up the next segment in a specific table."""

    table_id: int
    kind = "End.T"

    def __post_init__(self) -> None:
        self._forward = Disposition.forward(table_id=self.table_id)


def _decap(pkt: Packet, kind: str) -> Disposition | None:
    """End.DT6 / End.DX6 decapsulation, in place: a drop, or None once stripped.

    Only a first routing header :func:`~repro.net.srh.srh_wire_span`
    accepts can demand ``segments_left == 0``; a malformed one is a decap
    failure.
    """
    data = pkt.data
    if len(data) > _AT_SEGMENTS_LEFT and data[_AT_SEGMENTS_LEFT] and data[6] == PROTO_ROUTING:
        try:
            srh_wire_span(data, IPV6_HEADER_LEN)
        except ValueError:
            pass  # a malformed first SRH is decap_in_place's to report
        else:
            return Disposition.drop(f"{kind} requires segments_left == 0")
    reason = decap_in_place(data)
    if reason is not None:
        return Disposition.drop(f"decap failed: {reason}")
    return None


@dataclass
class EndDT6(Seg6LocalAction):
    """Decapsulate and look the inner packet up in a table (last segment)."""

    table_id: int
    kind = "End.DT6"

    def __post_init__(self) -> None:
        self._forward = Disposition.forward(table_id=self.table_id)

    def process(self, pkt: Packet, node) -> Disposition:
        """Decapsulate at the last segment and route the inner packet in a table (§2)."""
        return _decap(pkt, self.kind) or self._forward


@dataclass
class EndDX6(Seg6LocalAction):
    """Decapsulate and forward the inner packet to a fixed nexthop."""

    nh6: bytes
    kind = "End.DX6"

    def __post_init__(self) -> None:
        self.nh6 = as_addr(self.nh6)
        self._forward = Disposition.forward(nh6=self.nh6)

    def process(self, pkt: Packet, node) -> Disposition:
        """Decapsulate at the last segment and pin the inner packet's nexthop (§2)."""
        return _decap(pkt, self.kind) or self._forward


@dataclass
class EndB6(Seg6LocalAction):
    """Apply an SRv6 policy: insert an additional SRH (no advance)."""

    segments: list[bytes]
    kind = "End.B6"

    def __post_init__(self) -> None:
        self.segments = [as_addr(seg) for seg in self.segments]

    def process(self, pkt: Packet, node) -> Disposition:
        """Insert an additional SRH carrying the policy's segments (End.B6, §2)."""
        data = pkt.data
        try:
            srh = make_srh(self.segments + [data[24:IPV6_HEADER_LEN]], next_header=data[6])
            pkt.data = bytearray(push_srh_inline(data, srh))
        except ValueError as exc:
            return Disposition.drop(f"End.B6: {exc}")
        return _FORWARD


@dataclass
class EndB6Encaps(Seg6LocalAction):
    """Advance, then encapsulate with an outer header carrying a new SRH."""

    segments: list[bytes]
    source: bytes | None = None
    kind = "End.B6.Encaps"

    def __post_init__(self) -> None:
        self.segments = [as_addr(seg) for seg in self.segments]
        if self.source is not None:
            self.source = as_addr(self.source)

    def process(self, pkt: Packet, node) -> Disposition:
        """Advance, then encapsulate with an outer header and new SRH (§2)."""
        reason = _advance(pkt.data)
        if reason is not None:
            return Disposition.drop(reason)
        srh = make_srh(list(self.segments), next_header=PROTO_IPV6)
        try:
            pkt.data = bytearray(
                push_outer_encap(pkt.data, self.source or node.primary_address(), srh)
            )
        except ValueError as exc:
            return Disposition.drop(f"End.B6.Encaps: {exc}")
        return _FORWARD


@dataclass
class EndBPF(Seg6LocalAction):
    """The paper's End.BPF action: advance, then run an eBPF program."""

    program: Program
    kind = "End.BPF"
    stats: dict = field(default_factory=lambda: {"ok": 0, "drop": 0, "redirect": 0, "errors": 0})

    def __post_init__(self) -> None:
        self._handler = None

    def handler(self) -> CompiledHandler:
        """This site's handler: built on first use, rebuilt when ``program`` is replaced."""
        handler = self._handler
        if handler is None or handler.program is not self.program:
            handler = self._handler = CompiledHandler(self.program, "seg6local")
        return handler

    def process(self, pkt: Packet, node) -> Disposition:
        """Advance the SRH, then run the attached program (§3.1 semantics)."""
        reason = _advance(pkt.data)
        if reason is not None:
            return Disposition.drop("End.BPF: " + reason)
        if pkt.tctx is not None:
            t = node.clock.now_ns
            pkt.tctx.append((t, t, "ebpf", node.name, f"seg6local/{self.program.name}"))
        handler = self._handler
        if handler is None or handler.program is not self.program:
            handler = self.handler()
        return run_attached(handler, self.stats, pkt, node)


def _revalidate(stats: dict, data: bytearray) -> Disposition | None:
    """§3.1: the drop for a first routing header the program left inconsistent, else None."""
    if len(data) < IPV6_HEADER_LEN or data[6] != PROTO_ROUTING:
        return None
    reason = validate_srh_wire(data, IPV6_HEADER_LEN)
    if reason is None:
        return None
    stats["drop"] += 1
    return Disposition.drop(f"invalid SRH after BPF: {reason}", bpf=True)


_CTX_ADDR = SkbContext.ctx_addr
_STACK_TOP = SkbContext.stack_top
_STACK_ZERO = bytes(STACK_SIZE)


def run_attached(handler: CompiledHandler, stats: dict, pkt: Packet, node) -> Disposition:
    """Arm ``handler`` for ``pkt``, run its program, apply §3.1 return-code semantics.

    The one invocation of an attached program on the datapath — End.BPF
    and the BPF LWT hooks; ``stats`` is the owner's.  The arming is the
    handler's plan (:class:`~repro.ebpf.jit.CompiledHandler`): bind
    ``pkt.data`` as the guest packet, then reset only what the program
    can observe, with this packet's mark and this node's clock and rng.
    """
    handler.packet_region.data = pkt.data
    hctx = handler.hctx
    if handler.resets:
        skb = hctx.skb
        if handler.rearms_ctx:
            skb.rearm(pkt.mark)
        if handler.zeroes_stack:
            skb.stack_region.data[:] = _STACK_ZERO
        if handler.calls_helpers:
            hctx.trace_log.clear()
            hctx.metadata.clear()
            hctx.packet = pkt
            hctx.node = node
            if handler.restores_regions:
                handler.mem.restore(handler.snapshot)
            if handler.binds_clock:
                hctx.clock_ns = node.clock_ns
            if handler.binds_rng:
                hctx.rng = node.rng
    HANDLER_COUNTS.hits += 1
    fn = handler.fn
    try:
        if fn is not None:
            ret = fn(hctx, handler.mem, handler.helpers, _CTX_ADDR, _STACK_TOP)
        else:
            ret = handler.program._interp.run(hctx, _CTX_ADDR, _STACK_TOP)
    except (VmFault, BpfError) as exc:
        stats["errors"] += 1
        hook = handler.attach_point
        if hook == "seg6local":
            node.log(f"End.BPF program fault: {exc}")
        else:
            node.log(f"BPF LWT program fault on {hook}: {exc}")
        return Disposition.drop(f"program fault: {exc}", bpf=True)
    pstats = handler.program.stats
    pstats.invocations += 1
    pstats.last_return = ret

    # The program ran on ``pkt.data`` itself: there is no packet to write
    # back, and one dropped below keeps its edits, as the kernel's skb
    # does.  No helper writes the mark; only a seg6local one sets
    # srh_modified.
    if handler.reads_back:
        if handler.writes_mark:
            pkt.mark = hctx.skb.mark
        if handler.calls_helpers and ret != BPF_DROP and hctx.metadata.get("srh_modified"):
            invalid = _revalidate(stats, pkt.data)
            if invalid is not None:
                return invalid

    if ret == BPF_OK:
        stats["ok"] += 1
        return _FORWARD
    if ret == BPF_REDIRECT:
        stats["redirect"] += 1
        metadata = hctx.metadata
        return Disposition.forward(
            table_id=metadata.get("redirect_table"),
            nh6=metadata.get("redirect_nh6"),
        )
    stats["drop"] += 1
    if ret == BPF_DROP:
        return Disposition.drop("BPF_DROP", bpf=True)
    # A malformed verdict is a datapath policy drop, not the program
    # explicitly asking for one — it does not count as bpf_dropped.
    return Disposition.drop(f"unknown BPF return {ret}")
