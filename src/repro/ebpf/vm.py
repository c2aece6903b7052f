"""eBPF bytecode interpreter.

Executes verified programs one instruction at a time, mirroring the
kernel's ``___bpf_prog_run`` interpreter.  The paper's JIT-vs-interpreter
experiment (§3.2, ÷1.8 throughput without JIT) is reproduced by running
the same bytecode through this interpreter or through
:mod:`repro.ebpf.jit`.

Arithmetic follows the eBPF specification exactly:

* all registers are 64-bit; ALU32 operations zero-extend their result,
* division by zero yields 0, modulo by zero leaves ``dst`` unchanged
  (the behaviour the kernel patches in at load time),
* shift amounts are masked to the operand width.
"""

from __future__ import annotations

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
    """Straightforward decode-and-dispatch execution engine."""

    def __init__(self, insns: list[Instruction], helpers=None, max_insns: int = 1_000_000):
        self.slots = flatten(insns)
        self.helpers = helpers if helpers is not None else HELPERS_BY_ID
        self.max_insns = max_insns

    def run(self, hctx: HelperContext, ctx_addr: int, stack_top: int) -> int:
        regs = [0] * isa.NUM_REGS
        regs[isa.R1] = ctx_addr
        regs[isa.R10] = stack_top
        mem = hctx.mem
        slots = self.slots
        pc = 0
        executed = 0

        while True:
            executed += 1
            if executed > self.max_insns:
                raise VmFault("instruction budget exceeded (runaway program)", pc)
            try:
                insn = slots[pc]
            except IndexError:
                raise VmFault("program counter out of range", pc) from None
            if insn is None:
                raise VmFault("executed the middle of an lddw", pc)

            opcode = insn.opcode
            klass = opcode & isa.CLASS_MASK

            if klass == isa.BPF_ALU64 or klass == isa.BPF_ALU:
                is64 = klass == isa.BPF_ALU64
                op = opcode & isa.OP_MASK
                dst = insn.dst_reg
                if op == isa.BPF_END:
                    if opcode & isa.BPF_TO_BE:
                        regs[dst] = _bswap(regs[dst], insn.imm)
                    else:
                        regs[dst] = regs[dst] & ((1 << insn.imm) - 1)
                    pc += 1
                    continue
                if opcode & isa.BPF_X:
                    src_val = regs[insn.src_reg]
                else:
                    src_val = insn.imm & _U64 if is64 else insn.imm & _U32
                regs[dst] = _alu(op, regs[dst], src_val, is64, pc)
                pc += 1
                continue

            if klass == isa.BPF_LDX:
                size = isa.SIZE_BYTES[opcode & isa.SIZE_MASK]
                addr = (regs[insn.src_reg] + insn.off) & _U64
                regs[insn.dst_reg] = mem.load(addr, size)
                pc += 1
                continue

            if klass == isa.BPF_STX:
                size = isa.SIZE_BYTES[opcode & isa.SIZE_MASK]
                addr = (regs[insn.dst_reg] + insn.off) & _U64
                mem.store(addr, size, regs[insn.src_reg])
                pc += 1
                continue

            if klass == isa.BPF_ST:
                size = isa.SIZE_BYTES[opcode & isa.SIZE_MASK]
                addr = (regs[insn.dst_reg] + insn.off) & _U64
                mem.store(addr, size, insn.imm & _U64)
                pc += 1
                continue

            if klass == isa.BPF_LD:
                regs[insn.dst_reg] = (insn.imm64 or 0) & _U64
                pc += 2
                continue

            if klass == isa.BPF_JMP or klass == isa.BPF_JMP32:
                op = opcode & isa.OP_MASK
                if op == isa.BPF_EXIT:
                    return regs[isa.R0]
                if op == isa.BPF_CALL:
                    helper = self.helpers.get(insn.imm)
                    if helper is None:
                        raise VmFault(f"call to unknown helper {insn.imm}", pc)
                    result = helper(hctx, *regs[1 : 1 + len(helper.args)])
                    regs[isa.R0] = int(result) & _U64
                    pc += 1
                    continue
                if op == isa.BPF_JA:
                    pc += 1 + insn.off
                    continue
                a = regs[insn.dst_reg]
                if opcode & isa.BPF_X:
                    b = regs[insn.src_reg]
                else:
                    b = insn.imm & _U64
                taken = _jump_taken(op, a, b, klass == isa.BPF_JMP32, pc)
                pc += 1 + (insn.off if taken else 0)
                continue

            raise VmFault(f"unknown opcode {opcode:#x}", pc)


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
    mask = _U32 if is32 else _U64
    to_signed = isa.to_signed32 if is32 else isa.to_signed64
    a &= mask
    b &= mask
    if op == isa.BPF_JEQ:
        return a == b
    if op == isa.BPF_JNE:
        return a != b
    if op == isa.BPF_JGT:
        return a > b
    if op == isa.BPF_JGE:
        return a >= b
    if op == isa.BPF_JLT:
        return a < b
    if op == isa.BPF_JLE:
        return a <= b
    if op == isa.BPF_JSET:
        return (a & b) != 0
    if op == isa.BPF_JSGT:
        return to_signed(a) > to_signed(b)
    if op == isa.BPF_JSGE:
        return to_signed(a) >= to_signed(b)
    if op == isa.BPF_JSLT:
        return to_signed(a) < to_signed(b)
    if op == isa.BPF_JSLE:
        return to_signed(a) <= to_signed(b)
    raise VmFault(f"unknown jump op {op:#x}", pc)
