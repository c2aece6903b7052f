"""Interpreter semantics: eBPF arithmetic, jumps, memory, calls."""

import pytest

from repro.ebpf import HelperContext, Memory, Program, SkbContext, isa, link, parse_asm
from repro.ebpf.errors import VmFault
from repro.ebpf.insn import Instruction
from repro.ebpf.text.easm import JMP_OPS
from repro.ebpf.vm import Interpreter

PKT = b"\x60" + b"\x00" * 47


def run(source: str, jit: bool = False) -> int:
    prog = Program(source, jit=jit)
    ret, _ = prog.run_on_packet(PKT)
    return ret


def run_raw(source: str) -> int:
    """Run without the verifier (for semantics the verifier would reject)."""
    insns = link(parse_asm(source)).insns
    mem = Memory()
    skb = SkbContext(mem, PKT)
    hctx = HelperContext(mem, skb)
    return Interpreter(insns).run(hctx, skb.ctx_addr, skb.stack_top)


# --- ALU64 -----------------------------------------------------------------


# (case name — the op's bpf_asm mnemonic, as the suite has always printed
# it and the floor list names it —, source, r0)
ALU64_CASES = [
    ("mov r0, 7\nexit", "r0 = 7\nexit", 7),
    ("mov r0, -1\nexit", "r0 = -1\nexit", isa.U64),
    ("mov r0, 5\nadd r0, 3\nexit", "r0 = 5\nr0 += 3\nexit", 8),
    ("mov r0, 5\nsub r0, 8\nexit", "r0 = 5\nr0 -= 8\nexit", (5 - 8) & isa.U64),
    ("mov r0, 7\nmul r0, 6\nexit", "r0 = 7\nr0 *= 6\nexit", 42),
    ("mov r0, 42\ndiv r0, 5\nexit", "r0 = 42\nr0 /= 5\nexit", 8),
    ("mov r0, 42\nmod r0, 5\nexit", "r0 = 42\nr0 %= 5\nexit", 2),
    ("mov r0, 12\nor r0, 3\nexit", "r0 = 12\nr0 |= 3\nexit", 15),
    ("mov r0, 12\nand r0, 10\nexit", "r0 = 12\nr0 &= 10\nexit", 8),
    ("mov r0, 12\nxor r0, 10\nexit", "r0 = 12\nr0 ^= 10\nexit", 6),
    ("mov r0, 1\nlsh r0, 63\nexit", "r0 = 1\nr0 <<= 63\nexit", 1 << 63),
    ("mov r0, -1\nrsh r0, 60\nexit", "r0 = -1\nr0 >>= 60\nexit", 0xF),
    ("mov r0, -16\narsh r0, 2\nexit", "r0 = -16\nr0 s>>= 2\nexit", (-4) & isa.U64),
    ("mov r0, 5\nneg r0\nexit", "r0 = 5\nr0 = -r0\nexit", (-5) & isa.U64),
]


@pytest.mark.parametrize(
    "source,expected",
    [
        pytest.param(source, expected, id=f"{name}-{expected}")
        for name, source, expected in ALU64_CASES
    ],
)
def test_alu64(source, expected):
    assert run(source) == expected


def test_add_wraps_at_64_bits():
    assert run("r0 = -1\nr0 += 1\nexit") == 0


def test_mul_wraps_at_64_bits():
    source = "r0 = 0x8000000000000000 ll\nr0 *= 2\nexit"
    assert run(source) == 0


def test_shift_amount_masked_to_63():
    # Shifting by 64 is shifting by 0 (kernel masks the amount).
    assert run_raw("r0 = 3\nr1 = 64\nr0 <<= r1\nexit") == 3


def test_div_by_zero_register_yields_zero():
    assert run_raw("r0 = 42\nr1 = 0\nr0 /= r1\nexit") == 0


def test_mod_by_zero_register_leaves_dst():
    assert run_raw("r0 = 42\nr1 = 0\nr0 %= r1\nexit") == 42


# --- ALU32 --------------------------------------------------------------------


def test_alu32_truncates_result():
    assert run("r0 = -1\nw0 += 1\nexit") == 0


def test_mov32_zero_extends():
    assert run("r0 = -1\nw0 = -1\nexit") == 0xFFFFFFFF


def test_sub32_wraps():
    assert run("r0 = 0\nw0 -= 1\nexit") == 0xFFFFFFFF


def test_arsh32_sign_extends_within_32():
    assert run("w0 = -16\nw0 s>>= 2\nexit") == 0xFFFFFFFC


def test_alu32_ignores_high_bits_of_src():
    source = """
    r1 = 0x1200000003 ll
    r0 = 4
    w0 += w1
    exit
    """
    assert run(source) == 7


# --- byte swaps ------------------------------------------------------------------


def test_be16():
    assert run("r0 = 0x1234\nr0 = be16 r0\nexit") == 0x3412


def test_be32():
    assert run("r0 = 0x12345678\nr0 = be32 r0\nexit") == 0x78563412


def test_be64():
    source = "r0 = 0x0102030405060708 ll\nr0 = be64 r0\nexit"
    assert run(source) == 0x0807060504030201


def test_le16_truncates_on_little_endian_host():
    assert run("r0 = 0x12345678\nr0 = le16 r0\nexit") == 0x5678


def test_be16_clears_high_bits():
    assert run("r0 = 0xffffffffffff1234 ll\nr0 = be16 r0\nexit") == 0x3412


# --- jumps ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "cond,a,b,taken",
    [
        ("jeq", 5, 5, True),
        ("jeq", 5, 6, False),
        ("jne", 5, 6, True),
        ("jgt", 6, 5, True),
        ("jgt", 5, 5, False),
        ("jge", 5, 5, True),
        ("jlt", 4, 5, True),
        ("jle", 5, 5, True),
        ("jset", 6, 2, True),
        ("jset", 4, 2, False),
        ("jsgt", -1, -2, True),
        ("jsgt", -2, -1, False),
        ("jsge", -1, -1, True),
        ("jslt", -2, -1, True),
        ("jsle", -1, -1, True),
    ],
)
def test_conditional_jumps(cond, a, b, taken):
    # ``cond`` is the opcode's ISA name; the assembler's table spells it.
    opcode = getattr(isa, f"BPF_{cond.upper()}")
    (operator,) = (text for text, op in JMP_OPS.items() if op == opcode)
    source = f"""
    r1 = {a}
    r2 = {b}
    if r1 {operator} r2 goto yes
    r0 = 0
    exit
    yes:
    r0 = 1
    exit
    """
    assert run(source) == (1 if taken else 0)


def test_unsigned_comparison_of_negative_values():
    # -1 is the largest unsigned 64-bit value.
    assert run("r1 = -1\nr2 = 1\nif r1 > r2 goto y\nr0 = 0\nexit\ny:\nr0 = 1\nexit") == 1


def test_jmp32_compares_low_words_only():
    source = """
    r1 = 0xff00000005 ll
    if w1 == 5 goto y
    r0 = 0
    exit
    y:
    r0 = 1
    exit
    """
    assert run(source) == 1


# --- memory -----------------------------------------------------------------------


def test_stack_store_load_roundtrip():
    source = """
    r1 = 0x1122334455667788 ll
    *(u64 *)(r10 - 8) = r1
    r0 = *(u64 *)(r10 - 8)
    exit
    """
    assert run(source) == 0x1122334455667788


def test_byte_store_is_little_endian():
    source = """
    r1 = 0x1234
    *(u16 *)(r10 - 8) = r1
    r0 = *(u8 *)(r10 - 8)
    exit
    """
    assert run(source) == 0x34


def test_store_immediate():
    assert run("*(u32 *)(r10 - 4) = 99\nr0 = *(u32 *)(r10 - 4)\nexit") == 99


def test_packet_read_through_ctx_pointers():
    source = """
    r6 = r1
    r7 = *(u64 *)(r6 + 16)
    r8 = *(u64 *)(r6 + 24)
    r2 = r7
    r2 += 1
    if r2 > r8 goto out
    r0 = *(u8 *)(r7 + 0)
    exit
    out:
    r0 = 0
    exit
    """
    assert run(source) == 0x60  # IPv6 version nibble


def test_ctx_len_field():
    source = "r0 = *(u32 *)(r1 + 0)\nexit"
    assert run(source) == len(PKT)


def test_ctx_mark_write_visible_after_run():
    prog = Program("r2 = 77\n*(u32 *)(r1 + 8) = r2\nr0 = 0\nexit")
    _ret, hctx = prog.run_on_packet(PKT)
    assert hctx.skb.mark == 77


def test_unmapped_access_faults():
    with pytest.raises(VmFault):
        run_raw("r1 = 0x99999999\nr0 = *(u64 *)(r1 + 0)\nexit")


def test_write_to_readonly_packet_faults():
    with pytest.raises(VmFault):
        run_raw(
            """
            r7 = *(u64 *)(r1 + 16)
            r2 = 1
            *(u8 *)(r7 + 0) = r2
            r0 = 0
            exit
            """
        )


def test_lddw_loads_full_64_bits():
    assert run("r0 = 0xffffffffffffffff ll\nexit") == isa.U64


# --- faults: message and pc ---------------------------------------------------------

MOV_R0_7 = Instruction(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, isa.R0, imm=7)
EXIT = Instruction(isa.BPF_JMP | isa.BPF_EXIT)


def run_insns(insns, max_insns: int = 1_000_000) -> int:
    mem = Memory()
    skb = SkbContext(mem, PKT)
    hctx = HelperContext(mem, skb)
    return Interpreter(insns, max_insns=max_insns).run(hctx, skb.ctx_addr, skb.stack_top)


def assert_faults(insns, message: str, pc: int, max_insns: int = 1_000_000) -> None:
    with pytest.raises(VmFault) as info:
        run_insns(insns, max_insns)
    assert (str(info.value), info.value.pc) == (f"pc {pc}: {message}", pc)


def ja(off: int) -> Instruction:
    return Instruction(isa.BPF_JMP | isa.BPF_JA, off=off)


def test_runaway_program_hits_instruction_budget():
    # A hand-crafted loop (the verifier would reject it): slots 0, 1, 0, 1, ...
    # The 8th instruction, at pc 1, is over a budget of 7.
    add = Instruction(isa.BPF_ALU64 | isa.BPF_ADD | isa.BPF_K, isa.R0, imm=1)
    assert_faults([add, ja(-2), EXIT], "instruction budget exceeded (runaway program)", 1, max_insns=7)


def test_jump_into_the_middle_of_an_lddw_faults():
    lddw = Instruction(isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW, isa.R0, imm64=1)
    assert_faults([ja(1), lddw, EXIT], "executed the middle of an lddw", 2)


def test_call_to_an_unknown_helper_faults():
    assert_faults([Instruction(isa.BPF_JMP | isa.BPF_CALL, imm=9999), EXIT], "call to unknown helper 9999", 0)


@pytest.mark.parametrize(
    "insns,pc",
    [
        ([MOV_R0_7, ja(5), EXIT], 7),  # past the end
        ([MOV_R0_7, ja(-3), EXIT], -1),  # before slot 0, not the last slot
        ([MOV_R0_7], 1),  # falling off the end
    ],
    ids=["past-the-end", "before-slot-0", "fall-off"],
)
def test_pc_outside_the_program_faults(insns, pc):
    assert_faults(insns, "program counter out of range", pc)


def test_out_of_range_target_faults_only_when_taken():
    not_taken = Instruction(isa.BPF_JMP | isa.BPF_JNE | isa.BPF_K, isa.R0, off=-10, imm=7)
    assert run_insns([MOV_R0_7, not_taken, EXIT]) == 7


def test_budget_is_exactly_max_insns():
    assert run_insns([MOV_R0_7, EXIT], max_insns=2) == 7
    assert_faults([MOV_R0_7, EXIT], "instruction budget exceeded (runaway program)", 1, max_insns=1)


XADD_DW = isa.BPF_STX | isa.BPF_XADD | isa.BPF_DW


def test_xadd_is_not_run_as_a_plain_store():
    # lock *(u64 *)(r10 - 8) += r1, twice: outside the verified subset.
    xadd = Instruction(XADD_DW, isa.R10, isa.R1, off=-8)
    insns = [
        Instruction(isa.BPF_ST | isa.BPF_MEM | isa.BPF_DW, isa.R10, off=-8, imm=0),
        Instruction(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, isa.R1, imm=5),
        xadd,
        xadd,
        Instruction(isa.BPF_LDX | isa.BPF_MEM | isa.BPF_DW, isa.R0, isa.R10, off=-8),
        EXIT,
    ]
    assert_faults(insns, "unknown opcode 0xdb", 2)


@pytest.mark.parametrize(
    "opcode",
    [
        XADD_DW,
        isa.BPF_STX | isa.BPF_XADD | isa.BPF_W,
        isa.BPF_LD | isa.BPF_ABS | isa.BPF_W,
        isa.BPF_LD | isa.BPF_IND | isa.BPF_B,
        isa.BPF_LD | isa.BPF_IMM | isa.BPF_W,
        isa.BPF_LDX | isa.BPF_IMM | isa.BPF_DW,
        isa.BPF_LDX | isa.BPF_ABS | isa.BPF_W,
        isa.BPF_ST | isa.BPF_IND | isa.BPF_B,
        isa.BPF_ST | isa.BPF_IMM | isa.BPF_W,
        isa.BPF_STX | isa.BPF_ABS | isa.BPF_H,
        isa.BPF_ALU64 | 0xE0,
        isa.BPF_ALU | 0xF0 | isa.BPF_X,
        isa.BPF_JMP | 0xE0,
        isa.BPF_JMP32 | 0xF0 | isa.BPF_X,
    ],
    ids=hex,
)
def test_opcode_outside_the_verified_subset_faults_when_run(opcode):
    insns = [MOV_R0_7, Instruction(opcode, isa.R0, isa.R10, off=-8), EXIT]
    Interpreter(insns)  # decoding an unverified program does not fault
    assert_faults(insns, f"unknown opcode {opcode:#x}", 1)
