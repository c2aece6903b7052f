"""eBPF bytecode interpreter.

Runs programs one instruction at a time, as the kernel's ``___bpf_prog_run``
does, and like it decodes nothing while running: building an
:class:`Interpreter` turns each slot into a *step*, a closure made by the
:data:`_DECODERS` entry its opcode byte indexes (the kernel's
``jumptable[insn->code]``) with its operands bound.  A step updates the
registers and returns the next pc, ``None`` on exit.  The paper's
JIT-vs-interpreter experiment (§3.2, ÷1.8 throughput without JIT) runs the
same bytecode here or through :mod:`repro.ebpf.jit`.

Arithmetic follows the eBPF specification exactly:

* all registers are 64-bit; ALU32 operations zero-extend their result,
* division by zero yields 0, modulo by zero leaves ``dst`` unchanged
  (the behaviour the kernel patches in at load time),
* shift amounts are masked to the operand width.

Moves, 64-bit add and left shift and unsigned 64-bit compares have steps
of their own; the other operations call :func:`_alu` / :func:`_jump_taken`,
which the verifier folds constants with.  Memory goes through the
bounds-checked :class:`~repro.ebpf.memory.Memory`.  An opcode outside the
verified subset, the middle of an ``lddw`` and a pc outside the program
decode to steps that fault when they run.
"""

from __future__ import annotations

from operator import eq, ge, gt, le, lt, ne

from . import isa
from .errors import VmFault
from .helpers import HELPERS_BY_ID, HelperContext
from .insn import Instruction, flatten

_U64 = isa.U64
_U32 = isa.U32


def _bswap(value: int, width: int) -> int:
    nbytes = width // 8
    return int.from_bytes((value & ((1 << width) - 1)).to_bytes(nbytes, "little"), "big")


class Interpreter:
    """Calls the pre-decoded step at ``pc`` and takes the next pc back, up to ``max_insns`` times."""

    def __init__(self, insns: list[Instruction], helpers=None, max_insns: int = 1_000_000):
        self.slots = flatten(insns)
        self.helpers = helpers if helpers is not None else HELPERS_BY_ID
        self.max_insns = max_insns
        self._steps = _decode(self.slots, self.helpers)

    def run(self, hctx: HelperContext, ctx_addr: int, stack_top: int) -> int:
        regs = [0] * isa.NUM_REGS
        regs[isa.R1] = ctx_addr
        regs[isa.R10] = stack_top
        steps = self._steps
        pc = 0
        for _ in range(self.max_insns):
            pc = steps[pc](regs, hctx)
            if pc is None:
                return regs[isa.R0]
        raise VmFault("instruction budget exceeded (runaway program)", pc)


def _decode(slots: list[Instruction | None], helpers) -> list:
    """A step per slot, then one that faults at each pc outside the program that
    falling off the end or a jump reaches.  A negative pc indexes from the end,
    so the list runs that deep past the highest; the padding is never reached."""
    steps = [
        _DECODERS[insn.opcode](insn, pc, helpers) if insn is not None
        else _fault("executed the middle of an lddw", pc)
        for pc, insn in enumerate(slots)
    ]
    n = len(slots)
    outside = {n} | {
        target for pc, insn in enumerate(slots)
        if insn is not None and insn.klass in (isa.BPF_JMP, isa.BPF_JMP32)
        and not 0 <= (target := pc + 1 + insn.off) < n
    }
    steps += [None] * (max(outside) + 1 - n - min(0, *outside))
    for pc in outside:
        steps[pc] = _fault("program counter out of range", pc)
    return steps


def _fault(message: str, pc: int):
    def step(regs, hctx):
        raise VmFault(message, pc)

    return step


def _unknown(insn, pc, helpers):
    return _fault(f"unknown opcode {insn.opcode:#x}", pc)


def _exit(insn, pc, helpers):
    return lambda regs, hctx: None


def _ja(insn, pc, helpers):
    target = pc + 1 + insn.off
    return lambda regs, hctx: target


def _lddw(insn, pc, helpers):
    dst, value, nxt = insn.dst_reg, insn.lddw_value, pc + 2

    def step(regs, hctx):
        regs[dst] = value
        return nxt

    return step


def _ldx(insn, pc, helpers):
    dst, src, off, nxt = insn.dst_reg, insn.src_reg, insn.off, pc + 1
    size = isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK]

    def step(regs, hctx):
        regs[dst] = hctx.mem.load((regs[src] + off) & _U64, size)
        return nxt

    return step


def _st(insn, pc, helpers):
    dst, src, off, imm, nxt = insn.dst_reg, insn.src_reg, insn.off, insn.imm & _U64, pc + 1
    size, stx = isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK], insn.klass == isa.BPF_STX

    def step(regs, hctx):
        hctx.mem.store((regs[dst] + off) & _U64, size, regs[src] if stx else imm)
        return nxt

    return step


def _call(insn, pc, helpers):
    helper = helpers.get(insn.imm)
    if helper is None:
        return _fault(f"call to unknown helper {insn.imm}", pc)
    end, nxt = 1 + len(helper.args), pc + 1

    def step(regs, hctx):
        regs[isa.R0] = int(helper(hctx, *regs[1:end])) & _U64
        return nxt

    return step


def _end(insn, pc, helpers):
    dst, width, to_be, nxt = insn.dst_reg, insn.imm, insn.opcode & isa.BPF_TO_BE, pc + 1

    def step(regs, hctx):
        regs[dst] = _bswap(regs[dst], width) if to_be else regs[dst] & ((1 << width) - 1)
        return nxt

    return step


def _alu_step(insn, pc, helpers):
    dst, src, nxt, x = insn.dst_reg, insn.src_reg, pc + 1, insn.opcode & isa.BPF_X
    op, is64 = insn.opcode & isa.OP_MASK, insn.klass == isa.BPF_ALU64
    mask = _U64 if is64 else _U32
    b = insn.imm & mask
    if op == isa.BPF_MOV and not x:
        def step(regs, hctx):
            regs[dst] = b
            return nxt
    elif op == isa.BPF_MOV:
        def step(regs, hctx):
            regs[dst] = regs[src] & mask
            return nxt
    elif not is64 or op not in (isa.BPF_ADD, isa.BPF_LSH):
        def step(regs, hctx):
            regs[dst] = _alu(op, regs[dst], regs[src] if x else b, is64, pc)
            return nxt
    elif op == isa.BPF_ADD:
        def step(regs, hctx):
            regs[dst] = (regs[dst] + (regs[src] if x else b)) & _U64
            return nxt
    else:
        count = b & 63

        def step(regs, hctx):
            regs[dst] = (regs[dst] << (regs[src] & 63 if x else count)) & _U64
            return nxt
    return step


def _jump_step(insn, pc, helpers):
    dst, src, nxt, target = insn.dst_reg, insn.src_reg, pc + 1, pc + 1 + insn.off
    op, x, is32, b = insn.opcode & isa.OP_MASK, insn.opcode & isa.BPF_X, insn.klass == isa.BPF_JMP32, insn.imm & _U64
    cmp = _CONDS[op]
    if is32 or op in _SIGNED or op == isa.BPF_JSET:
        def step(regs, hctx):
            return target if _jump_taken(op, regs[dst], regs[src] if x else b, is32, pc) else nxt
    elif x:
        def step(regs, hctx):
            return target if cmp(regs[dst], regs[src]) else nxt
    else:
        def step(regs, hctx):
            return target if cmp(regs[dst], b) else nxt
    return step


# Condition -> the test on its operands, masked to the class and, for the
# signed ones, read as signed.
_CONDS = {
    isa.BPF_JEQ: eq, isa.BPF_JNE: ne, isa.BPF_JGT: gt, isa.BPF_JGE: ge, isa.BPF_JLT: lt, isa.BPF_JLE: le,
    isa.BPF_JSGT: gt, isa.BPF_JSGE: ge, isa.BPF_JSLT: lt, isa.BPF_JSLE: le,
    isa.BPF_JSET: lambda a, b: a & b != 0,
}  # fmt: skip
_SIGNED = (isa.BPF_JSGT, isa.BPF_JSGE, isa.BPF_JSLT, isa.BPF_JSLE)


def _decoders() -> list:
    """The opcode byte -> step maker table: the verified subset, :func:`_unknown` elsewhere."""
    table = [_unknown] * 256
    for klass in (isa.BPF_ALU64, isa.BPF_ALU):
        for op in isa.ALU_OP_NAMES.keys() - {isa.BPF_NEG, isa.BPF_END}:
            table[klass | op | isa.BPF_K] = table[klass | op | isa.BPF_X] = _alu_step
        table[klass | isa.BPF_NEG] = _alu_step
    table[isa.BPF_ALU | isa.BPF_END | isa.BPF_TO_LE] = table[isa.BPF_ALU | isa.BPF_END | isa.BPF_TO_BE] = _end
    for size in isa.SIZE_BYTES:
        table[isa.BPF_LDX | isa.BPF_MEM | size] = _ldx
        table[isa.BPF_ST | isa.BPF_MEM | size] = table[isa.BPF_STX | isa.BPF_MEM | size] = _st
    table[isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW] = _lddw
    table[isa.BPF_JMP | isa.BPF_JA] = _ja
    table[isa.BPF_JMP | isa.BPF_CALL] = _call
    table[isa.BPF_JMP | isa.BPF_EXIT] = _exit
    for klass in (isa.BPF_JMP, isa.BPF_JMP32):
        for op in _CONDS:
            table[klass | op | isa.BPF_K] = table[klass | op | isa.BPF_X] = _jump_step
    return table


_DECODERS = _decoders()


def _alu(op: int, a: int, b: int, is64: bool, pc: int) -> int:
    mask = _U64 if is64 else _U32
    shift_mask = 63 if is64 else 31
    a &= mask
    b &= mask
    if op == isa.BPF_MOV:
        return b
    if op == isa.BPF_ADD:
        return (a + b) & mask
    if op == isa.BPF_SUB:
        return (a - b) & mask
    if op == isa.BPF_MUL:
        return (a * b) & mask
    if op == isa.BPF_DIV:
        return (a // b) & mask if b else 0
    if op == isa.BPF_MOD:
        return (a % b) & mask if b else a
    if op == isa.BPF_OR:
        return a | b
    if op == isa.BPF_AND:
        return a & b
    if op == isa.BPF_XOR:
        return a ^ b
    if op == isa.BPF_LSH:
        return (a << (b & shift_mask)) & mask
    if op == isa.BPF_RSH:
        return (a >> (b & shift_mask)) & mask
    if op == isa.BPF_ARSH:
        signed = isa.to_signed64(a) if is64 else isa.to_signed32(a)
        return (signed >> (b & shift_mask)) & mask
    if op == isa.BPF_NEG:  # one operand: ``b`` is ignored
        return -a & mask
    raise VmFault(f"unknown ALU op {op:#x}", pc)


def _jump_taken(op: int, a: int, b: int, is32: bool, pc: int) -> bool:
    cmp = _CONDS.get(op)
    if cmp is None:
        raise VmFault(f"unknown jump op {op:#x}", pc)
    mask = _U32 if is32 else _U64
    a &= mask
    b &= mask
    if op in _SIGNED:
        to_signed = isa.to_signed32 if is32 else isa.to_signed64
        a, b = to_signed(a), to_signed(b)
    return cmp(a, b)
