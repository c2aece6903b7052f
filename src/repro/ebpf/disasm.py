"""eBPF disassembler: prints the kernel syntax :func:`parse_asm` reads."""

from __future__ import annotations

from . import isa
from .errors import EncodingError
from .insn import Instruction, flatten
from .text.easm import ALU_OPS, JMP_OPS

# The assembler's operator tables, read backwards.
_ALU_SPELLING = {op: text for text, op in ALU_OPS.items()}
_JMP_SPELLING = {op: text for text, op in JMP_OPS.items()}


def _mem(insn: Instruction, base: int) -> str:
    bits = isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK] * 8
    sign = "-" if insn.off < 0 else "+"
    return f"*(u{bits} *)(r{base} {sign} {abs(insn.off)})"


def disassemble_insn(insn: Instruction, slot: int = 0) -> str:
    """Render one instruction; jump targets become absolute slot labels."""
    klass = insn.klass

    if insn.is_lddw:
        if insn.src_reg == isa.BPF_PSEUDO_MAP_FD:
            target = insn.map_ref if insn.map_ref else f"fd{insn.imm64}"
            return f"r{insn.dst_reg} = {target} ll"
        # Hand-built lddws may carry a plain 32-bit imm with imm64 unset.
        value = insn.imm64 if insn.imm64 is not None else insn.imm & isa.U64
        return f"r{insn.dst_reg} = {value:#x} ll"

    if klass in (isa.BPF_ALU, isa.BPF_ALU64):
        op = insn.opcode & isa.OP_MASK
        reg = "r" if klass == isa.BPF_ALU64 else "w"
        dst = f"{reg}{insn.dst_reg}"
        if op == isa.BPF_END:
            direction = "be" if insn.opcode & isa.BPF_TO_BE else "le"
            return f"r{insn.dst_reg} = {direction}{insn.imm} r{insn.dst_reg}"
        if op == isa.BPF_NEG:
            return f"{dst} = -{dst}"
        operand = (
            f"{reg}{insn.src_reg}" if insn.opcode & isa.BPF_X else str(insn.imm)
        )
        if op == isa.BPF_MOV:
            return f"{dst} = {operand}"
        if op not in _ALU_SPELLING:
            raise EncodingError(f"bad alu op {insn.opcode:#x}")
        return f"{dst} {_ALU_SPELLING[op]}= {operand}"

    if klass == isa.BPF_LDX:
        return f"r{insn.dst_reg} = {_mem(insn, insn.src_reg)}"

    if klass == isa.BPF_STX:
        return f"{_mem(insn, insn.dst_reg)} = r{insn.src_reg}"

    if klass == isa.BPF_ST:
        return f"{_mem(insn, insn.dst_reg)} = {insn.imm}"

    if klass in (isa.BPF_JMP, isa.BPF_JMP32):
        op = insn.opcode & isa.OP_MASK
        if op == isa.BPF_CALL:
            from .helpers import HELPER_NAMES_BY_ID

            name = HELPER_NAMES_BY_ID.get(insn.imm)
            return f"call {name}" if name else f"call {insn.imm}"
        if op == isa.BPF_EXIT:
            return "exit"
        target = f"L{slot + 1 + insn.off}"
        if op == isa.BPF_JA:
            return f"goto {target}"
        if op not in _JMP_SPELLING:
            raise EncodingError(f"bad jmp op {insn.opcode:#x}")
        reg = "r" if klass == isa.BPF_JMP else "w"
        operand = (
            f"{reg}{insn.src_reg}" if insn.opcode & isa.BPF_X else str(insn.imm)
        )
        return (
            f"if {reg}{insn.dst_reg} {_JMP_SPELLING[op]} {operand} goto {target}"
        )

    raise EncodingError(f"cannot disassemble opcode {insn.opcode:#x}")


def disassemble(insns: list[Instruction]) -> str:
    """Disassemble a full program with slot labels on jump targets.

    The output is a closed loop with :func:`~repro.ebpf.text.parse_asm`:
    every emitted label is defined (a branch to the slot one past the
    last instruction gets a trailing label line, which the assembler
    accepts), and branches that point outside the program raise
    :class:`~repro.ebpf.errors.EncodingError` rather than emitting an
    unresolvable ``L`` symbol.
    """
    slots = flatten(insns)
    targets: set[int] = set()
    for slot, insn in enumerate(slots):
        if insn is None or insn.klass not in (isa.BPF_JMP, isa.BPF_JMP32):
            continue
        op = insn.opcode & isa.OP_MASK
        if op in (isa.BPF_CALL, isa.BPF_EXIT):
            continue
        target = slot + 1 + insn.off
        if not 0 <= target <= len(slots):
            raise EncodingError(
                f"slot {slot}: branch target {target} outside program"
            )
        targets.add(target)

    lines: list[str] = []
    for slot, insn in enumerate(slots):
        if insn is None:
            if slot in targets:
                raise EncodingError(
                    f"slot {slot}: branch into the middle of an lddw"
                )
            continue
        if slot in targets:
            lines.append(f"L{slot}:")
        lines.append("    " + disassemble_insn(insn, slot))
    if len(slots) in targets:
        lines.append(f"L{len(slots)}:")
    return "\n".join(lines) + "\n"
