"""The ``__sk_buff``-like context passed to LWT/seg6local eBPF programs.

The paper's design (§3) gives programs *full read access* to the packet
from the outermost IPv6 header, but **no direct write access**: all
mutation goes through the seg6 helpers, which validate every change.  The
context therefore maps the packet buffer it is bound to — ``pkt.data`` on
the datapath, not a copy of it — read-only into guest memory and exposes
a small metadata block, with writes permitted only to ``mark`` and the
``cb`` scratch area (as for kernel LWT programs).

Guest layout of the context structure::

    offset  size  field       access
    0x00    u32   len         read-only
    0x04    u32   protocol    read-only (ETH_P_IPV6)
    0x08    u32   mark        read-write
    0x0c    u32   priority    read-only
    0x10    u64   data        read-only; loads yield a packet pointer
    0x18    u64   data_end    read-only; loads yield the end-of-packet pointer
    0x20    u64*5 cb[0..4]    read-write scratch

The verifier enforces this table statically; the runtime context enforces
it dynamically (defence in depth, like the kernel).
"""

from __future__ import annotations

import struct

from . import isa
from .memory import (
    CTX_BASE,
    PACKET_BASE,
    PROT_READ,
    PROT_WRITE,
    STACK_BASE,
    Memory,
    Region,
)

ETH_P_IPV6 = 0x86DD

CTX_SIZE = 0x48

OFF_LEN = 0x00
OFF_PROTOCOL = 0x04
OFF_MARK = 0x08
OFF_PRIORITY = 0x0C
OFF_DATA = 0x10
OFF_DATA_END = 0x18
OFF_CB = 0x20
CB_SLOTS = 5

_CB_ZERO = bytes(CTX_SIZE - OFF_CB)
# len, protocol, mark, priority, data, data_end: the fields before cb.
_PACK_FIELDS = struct.Struct("<IIIIQQ").pack_into
_PACK_U32 = struct.Struct("<I").pack_into
_PACK_U64 = struct.Struct("<Q").pack_into

# Static access rules consumed by the verifier: offset -> (size, writable, kind)
# kind: "scalar", "pkt_ptr", "pkt_end_ptr"
CTX_FIELDS = {
    OFF_LEN: (4, False, "scalar"),
    OFF_PROTOCOL: (4, False, "scalar"),
    OFF_MARK: (4, True, "scalar"),
    OFF_PRIORITY: (4, False, "scalar"),
    OFF_DATA: (8, False, "pkt_ptr"),
    OFF_DATA_END: (8, False, "pkt_end_ptr"),
}
for _i in range(CB_SLOTS):
    CTX_FIELDS[OFF_CB + 8 * _i] = (8, True, "scalar")


class SkbContext:
    """Runtime context bound to one packet for one program invocation."""

    # Addresses handed to the program in r1 and r10.
    ctx_addr = CTX_BASE
    stack_top = STACK_BASE + isa.STACK_SIZE

    def __init__(self, mem: Memory, packet_bytes: bytes, mark: int = 0):
        """Map the three regions around a private copy of ``packet_bytes``."""
        self.packet_region = mem.add_region(
            Region(PACKET_BASE, bytearray(packet_bytes), PROT_READ, "packet")
        )
        self.ctx_region = mem.add_region(
            Region(CTX_BASE, bytearray(CTX_SIZE), PROT_READ | PROT_WRITE, "ctx")
        )
        self.stack_region = mem.add_region(
            Region(STACK_BASE, bytearray(isa.STACK_SIZE), PROT_READ | PROT_WRITE, "stack")
        )
        self.rearm(mark)

    def rearm(self, mark: int = 0) -> None:
        """Write the fields for the bound packet buffer and zero ``cb`` — the one
        place the context layout is written: ``__init__`` ends here, and
        :meth:`repro.ebpf.jit.CompiledHandler.arm` calls it, after binding
        ``pkt.data``, for a program that touches a ctx field or calls a helper."""
        size = len(self.packet_region.data)
        raw = self.ctx_region.data
        _PACK_FIELDS(
            raw, 0, size & isa.U32, ETH_P_IPV6, mark & isa.U32, 0, PACKET_BASE, PACKET_BASE + size
        )
        raw[OFF_CB:] = _CB_ZERO

    def packet_resized(self) -> None:
        """A helper grew or shrank the packet where it lies: refresh ``len`` and ``data_end``.

        During a run the buffer is resized in place, never rebound (the
        translated function holds it in a local); a packet pointer the
        program still holds is re-checked against the new bounds on its
        next use, as in the kernel (where helpers invalidate them).
        """
        size = len(self.packet_region.data)
        raw = self.ctx_region.data
        _PACK_U32(raw, OFF_LEN, size & isa.U32)
        _PACK_U64(raw, OFF_DATA_END, PACKET_BASE + size)

    # -- metadata read-back after the run --------------------------------------
    @property
    def mark(self) -> int:
        return struct.unpack_from("<I", self.ctx_region.data, OFF_MARK)[0]
