"""Instruction representation and binary encode/decode.

Instructions are stored exactly as the kernel stores ``struct bpf_insn``:

.. code-block:: c

    struct bpf_insn {
        __u8  code;     /* opcode */
        __u8  dst_reg:4, src_reg:4;
        __s16 off;
        __s32 imm;
    };

``lddw`` (64-bit immediate load) is represented as a single
:class:`Instruction` with ``imm64`` set, and expands to two binary slots.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from . import isa
from .errors import EncodingError

_INSN_STRUCT = struct.Struct("<BBhi")


@dataclass(frozen=True)
class Instruction:
    """A single eBPF instruction.

    ``imm64`` is only meaningful for ``lddw``; for all other opcodes the
    32-bit ``imm`` field is used.  ``map_ref`` optionally carries the name
    of a map referenced by a pseudo ``lddw`` before fd relocation.
    """

    opcode: int
    dst_reg: int = 0
    src_reg: int = 0
    off: int = 0
    imm: int = 0
    imm64: int | None = None
    map_ref: str | None = field(default=None, compare=False)

    @property
    def klass(self) -> int:
        return self.opcode & isa.CLASS_MASK

    @property
    def is_lddw(self) -> bool:
        return self.opcode == (isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW)

    @property
    def slots(self) -> int:
        """Number of 64-bit slots this instruction occupies (1 or 2)."""
        return 2 if self.is_lddw else 1

    def __post_init__(self) -> None:
        if not 0 <= self.opcode <= 0xFF:
            raise EncodingError(f"opcode out of range: {self.opcode:#x}")
        if not 0 <= self.dst_reg < 16 or not 0 <= self.src_reg < 16:
            raise EncodingError("register field out of range")
        if not -(1 << 15) <= self.off < (1 << 15):
            raise EncodingError(f"offset out of range: {self.off}")
        if self.imm64 is not None and not self.is_lddw:
            raise EncodingError("imm64 only valid for lddw")

    def encode(self) -> bytes:
        """Serialise to 8 (or 16, for lddw) little-endian bytes."""
        if self.is_lddw:
            value = (self.imm64 if self.imm64 is not None else self.imm) & isa.U64
            low = isa.to_signed32(value & isa.U32)
            high = isa.to_signed32(value >> 32)
            first = _INSN_STRUCT.pack(
                self.opcode, (self.src_reg << 4) | self.dst_reg, self.off, low
            )
            second = _INSN_STRUCT.pack(0, 0, 0, high)
            return first + second
        imm = isa.to_signed32(self.imm & isa.U32)
        return _INSN_STRUCT.pack(
            self.opcode, (self.src_reg << 4) | self.dst_reg, self.off, imm
        )


def encode_program(insns: list[Instruction]) -> bytes:
    """Serialise an instruction list to the kernel's on-disk format."""
    return b"".join(insn.encode() for insn in insns)


def decode_program(data: bytes) -> list[Instruction]:
    """Parse binary eBPF back into :class:`Instruction` objects.

    The two slots of an ``lddw`` are folded back into one instruction, so
    ``encode_program(decode_program(b)) == b`` for valid input.
    """
    if len(data) % 8:
        raise EncodingError("program length not a multiple of 8 bytes")
    raw = [_INSN_STRUCT.unpack_from(data, i) for i in range(0, len(data), 8)]
    insns: list[Instruction] = []
    i = 0
    while i < len(raw):
        code, regs, off, imm = raw[i]
        dst, src = regs & 0x0F, regs >> 4
        if code == (isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW):
            if i + 1 >= len(raw):
                raise EncodingError("truncated lddw")
            code2, regs2, off2, imm2 = raw[i + 1]
            if code2 or regs2 or off2:
                raise EncodingError("malformed second lddw slot")
            imm64 = (imm & isa.U32) | ((imm2 & isa.U32) << 32)
            insns.append(Instruction(code, dst, src, off, 0, imm64=imm64))
            i += 2
        else:
            insns.append(Instruction(code, dst, src, off, imm))
            i += 1
    return insns


def flatten(insns: list[Instruction]) -> list[Instruction | None]:
    """Expand to per-slot view: slot i holds the insn starting there.

    The second slot of an ``lddw`` is ``None``.  Branch offsets in eBPF are
    expressed in slots, so the verifier and VM operate on this view.
    """
    slots: list[Instruction | None] = []
    for insn in insns:
        slots.append(insn)
        if insn.is_lddw:
            slots.append(None)
    return slots
