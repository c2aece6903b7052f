"""The verifier folds constants exactly as the interpreter computes them.

A verified program runs only the branches the verifier walked.  When both
operands of an ALU op or a conditional jump are known constants the
verifier folds the result and prunes the infeasible branch — so its
arithmetic *must* be the interpreter's, or an accepted program can take
a branch no proof covers.  Checked from the outside: an instruction the
verifier rejects wherever its walk reaches it (a read of uninitialised
``r5``) sits on the side the interpreter says is dead; the program is
accepted exactly when the verifier agrees about which side that is.

The immediate (K) forms are checked the same way, and against the JIT
too: an immediate is sign-extended to 64 bits and then masked for its
class, and the three must agree on that.
"""

import pytest

from repro.ebpf import HelperContext, JitProgram, Memory, Verifier, VerifierError, isa
from repro.ebpf.insn import Instruction
from repro.ebpf.vm import Interpreter

VALUES = [0, 1, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]
SHIFTS = [0, 31, 32, 63]
PAIRS = [(a, b) for a in VALUES for b in VALUES + SHIFTS]

ALU_OPS = {
    name: op
    for op, name in isa.ALU_OP_NAMES.items()
    if op not in (isa.BPF_MOV, isa.BPF_END)  # a move and a byte swap fold nothing
}
JMP_OPS = {
    "jeq": isa.BPF_JEQ, "jne": isa.BPF_JNE, "jgt": isa.BPF_JGT, "jge": isa.BPF_JGE,
    "jlt": isa.BPF_JLT, "jle": isa.BPF_JLE, "jset": isa.BPF_JSET, "jsgt": isa.BPF_JSGT,
    "jsge": isa.BPF_JSGE, "jslt": isa.BPF_JSLT, "jsle": isa.BPF_JSLE,
}  # fmt: skip

EXIT = Instruction(isa.BPF_JMP | isa.BPF_EXIT)
UNSAFE = Instruction(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_X, isa.R0, isa.R5)


def lddw(reg: int, value: int) -> Instruction:
    return Instruction(isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW, reg, imm64=value)


def mov(reg: int, value: int) -> Instruction:
    return Instruction(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, reg, imm=value)


def interpret(insns) -> int:
    return Interpreter(insns).run(HelperContext(Memory()), 0, 0)


def jitted(insns) -> int:
    return JitProgram(insns).run(HelperContext(Memory()), 0, 0)


def accepted(insns) -> bool:
    try:
        Verifier(insns).verify()
    except VerifierError as exc:
        assert "uninitialised R5" in str(exc)
        return False
    return True


@pytest.mark.parametrize("klass", [isa.BPF_ALU64, isa.BPF_ALU], ids=["alu64", "alu32"])
@pytest.mark.parametrize("name", ALU_OPS)
def test_alu_fold_is_the_interpreters_result(name, klass):
    op = ALU_OPS[name]
    # NEG has no source: its X form uses a reserved field.
    insn = Instruction(klass | op, isa.R0) if op == isa.BPF_NEG else Instruction(klass | op | isa.BPF_X, isa.R0, isa.R1)
    for a, b in PAIRS:
        head = [lddw(isa.R0, a), lddw(isa.R1, b), insn]
        result = interpret(head + [EXIT])
        # if r0 <cmp> result goto +1; r0 = r5; exit
        for cmp, reaches_unsafe in ((isa.BPF_JEQ, False), (isa.BPF_JNE, True)):
            check = head + [
                lddw(isa.R2, result),
                Instruction(isa.BPF_JMP | cmp | isa.BPF_X, isa.R0, isa.R2, off=1),
                UNSAFE,
                EXIT,
            ]
            assert accepted(check) is not reaches_unsafe, (name, hex(a), hex(b), hex(result))


@pytest.mark.parametrize("klass", [isa.BPF_JMP, isa.BPF_JMP32], ids=["jmp", "jmp32"])
@pytest.mark.parametrize("name", JMP_OPS)
def test_branch_fold_is_the_interpreters_decision(name, klass):
    for a, b in PAIRS:
        head = [lddw(isa.R0, a), lddw(isa.R1, b), Instruction(klass | JMP_OPS[name] | isa.BPF_X, isa.R0, isa.R1, off=2)]
        taken = interpret(head + [mov(isa.R0, 0), EXIT, mov(isa.R0, 1), EXIT])
        dead_fallthrough = head + [UNSAFE, EXIT, mov(isa.R0, 1), EXIT]
        dead_target = head + [mov(isa.R0, 0), EXIT, UNSAFE, EXIT]
        assert accepted(dead_fallthrough) is bool(taken), (name, hex(a), hex(b))
        assert accepted(dead_target) is not taken, (name, hex(a), hex(b))


IMMS = [0, 1, -1, 0x7FFFFFFF, -0x80000000, 31, 32, 63]
K_ALU_OPS = {name: op for op, name in isa.ALU_OP_NAMES.items() if op != isa.BPF_END}


@pytest.mark.parametrize("klass", [isa.BPF_ALU64, isa.BPF_ALU], ids=["alu64", "alu32"])
@pytest.mark.parametrize("name", K_ALU_OPS)
def test_alu_immediate_form_agrees(name, klass):
    op = K_ALU_OPS[name]
    for a in VALUES:
        for imm in [0] if op == isa.BPF_NEG else IMMS:  # NEG's immediate is a reserved field
            head = [lddw(isa.R0, a), Instruction(klass | op | isa.BPF_K, isa.R0, imm=imm)]
            result = interpret(head + [EXIT])
            assert jitted(head + [EXIT]) == result, (name, hex(a), imm)
            if imm == 0 and op in (isa.BPF_DIV, isa.BPF_MOD):
                continue  # a zero divisor immediate is a verifier reject
            for cmp, reaches_unsafe in ((isa.BPF_JEQ, False), (isa.BPF_JNE, True)):
                check = head + [
                    lddw(isa.R2, result),
                    Instruction(isa.BPF_JMP | cmp | isa.BPF_X, isa.R0, isa.R2, off=1),
                    UNSAFE,
                    EXIT,
                ]
                assert accepted(check) is not reaches_unsafe, (name, hex(a), imm, hex(result))


@pytest.mark.parametrize("klass", [isa.BPF_JMP, isa.BPF_JMP32], ids=["jmp", "jmp32"])
@pytest.mark.parametrize("name", JMP_OPS)
def test_branch_immediate_form_agrees(name, klass):
    for a in VALUES:
        for imm in IMMS:
            head = [lddw(isa.R0, a), Instruction(klass | JMP_OPS[name] | isa.BPF_K, isa.R0, off=2, imm=imm)]
            program = head + [mov(isa.R0, 0), EXIT, mov(isa.R0, 1), EXIT]
            taken = interpret(program)
            assert jitted(program) == taken, (name, hex(a), imm)
            dead_fallthrough = head + [UNSAFE, EXIT, mov(isa.R0, 1), EXIT]
            dead_target = head + [mov(isa.R0, 0), EXIT, UNSAFE, EXIT]
            assert accepted(dead_fallthrough) is bool(taken), (name, hex(a), imm)
            assert accepted(dead_target) is not taken, (name, hex(a), imm)


@pytest.mark.parametrize("order", [isa.BPF_TO_LE, isa.BPF_TO_BE], ids=["le", "be"])
def test_byte_swap_agrees(order):
    for a in VALUES:
        for width in (16, 32, 64):
            program = [lddw(isa.R0, a), Instruction(isa.BPF_ALU | isa.BPF_END | order, isa.R0, imm=width), EXIT]
            assert jitted(program) == interpret(program), (hex(a), width)
