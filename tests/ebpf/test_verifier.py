"""Verifier: every safety rule has an accepting and a rejecting case."""

import pytest

import repro.net  # noqa: F401  — helper registration
from repro.ebpf import ArrayMap, Program, Verifier, VerifierError
from repro.net.seg6_helpers import LWT_HELPERS, SEG6LOCAL_HELPERS


def accept(source: str, maps=None, allowed=None):
    Program(source, maps=maps, jit=False, allowed_helpers=allowed)


def reject(source: str, match: str, maps=None, allowed=None):
    with pytest.raises(VerifierError, match=match):
        Program(source, maps=maps, jit=False, allowed_helpers=allowed)


# --- structural -------------------------------------------------------------


def test_empty_program_rejected():
    with pytest.raises(VerifierError, match="empty"):
        Verifier([]).verify()


def test_must_end_with_exit():
    reject("r0 = 0", "does not end with exit")


def test_backward_jump_rejected():
    reject("l:\nr0 = 0\ngoto l", "back-edge|does not end")


def test_jump_out_of_range_rejected():
    from repro.ebpf.insn import Instruction
    from repro.ebpf import isa

    insns = [
        Instruction(isa.BPF_JMP | isa.BPF_K | isa.BPF_JEQ, 0, 0, 10, 0),
        Instruction(isa.BPF_JMP | isa.BPF_EXIT),
    ]
    with pytest.raises(VerifierError, match="out of range"):
        Verifier(insns).verify()


def test_jump_into_lddw_rejected():
    from repro.ebpf.insn import Instruction
    from repro.ebpf import isa

    insns = [
        Instruction(isa.BPF_JMP | isa.BPF_JA, off=1),
        Instruction(isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW, 1, imm64=0),
        Instruction(isa.BPF_JMP | isa.BPF_EXIT),
    ]
    with pytest.raises(VerifierError, match="middle of an lddw"):
        Verifier(insns).verify()


def test_oversized_program_rejected():
    body = "r0 = 0\n" * 5000
    reject(body + "exit", "too large")


# --- register initialisation ---------------------------------------------------


def test_r0_must_be_set_before_exit():
    reject("exit", "R0 not a scalar at exit")


def test_read_of_uninitialised_register():
    reject("r0 = r5\nexit", "uninitialised R5")


def test_branch_on_uninitialised_register():
    reject("if r3 == 0 goto l\nl:\nr0 = 0\nexit", "uninitialised R3")


def test_uninit_only_on_taken_path_still_rejected():
    source = """
    r2 = *(u32 *)(r1 + 0)
    if r2 == 0 goto bad
    r0 = 0
    exit
    bad:
    r0 = r9
    exit
    """
    reject(source, "uninitialised R9")


def test_r1_is_initialised_as_context():
    accept("r0 = 0\nr2 = *(u32 *)(r1 + 0)\nexit")


def test_helper_call_clobbers_r1_to_r5():
    source = """
    r3 = 7
    call ktime_get_ns
    r0 = r3
    exit
    """
    reject(source, "uninitialised R3")


def test_callee_saved_registers_survive_calls():
    accept("r6 = 7\ncall ktime_get_ns\nr0 = r6\nexit")


def test_cannot_write_frame_pointer():
    reject("r10 = 5\nr0 = 0\nexit", "frame pointer")


# --- stack ------------------------------------------------------------------------


def test_stack_write_read():
    accept("r2 = 1\n*(u64 *)(r10 - 8) = r2\nr0 = *(u64 *)(r10 - 8)\nexit")


def test_stack_out_of_bounds_low():
    reject("r2 = 1\n*(u64 *)(r10 - 520) = r2\nr0 = 0\nexit", "out of bounds")


def test_stack_out_of_bounds_high():
    reject("r0 = *(u64 *)(r10 + 0)\nexit", "out of bounds")


def test_read_uninitialised_stack():
    reject("r0 = *(u64 *)(r10 - 8)\nexit", "uninitialised stack")


def test_partially_initialised_stack_read_rejected():
    reject("*(u32 *)(r10 - 8) = 1\nr0 = *(u64 *)(r10 - 8)\nexit", "uninitialised stack")


def test_stack_pointer_arithmetic():
    accept(
        """
        r2 = r10
        r2 += -16
        r3 = 5
        *(u64 *)(r2 + 0) = r3
        r0 = *(u64 *)(r2 + 0)
        exit
        """
    )


def test_pointer_spill_and_fill():
    accept(
        """
        *(u64 *)(r10 - 8) = r1
        r2 = *(u64 *)(r10 - 8)
        r0 = *(u32 *)(r2 + 0)
        exit
        """
    )


def test_misaligned_pointer_spill_rejected():
    reject("*(u64 *)(r10 - 9) = r1\nr0 = 0\nexit", "8-byte aligned")


def test_partial_overwrite_destroys_spill():
    source = """
    *(u64 *)(r10 - 8) = r1
    r3 = 0
    *(u8 *)(r10 - 8) = r3
    r2 = *(u64 *)(r10 - 8)
    r0 = *(u32 *)(r2 + 0)
    exit
    """
    reject(source, "cannot load through|load")


# --- context access ------------------------------------------------------------------


def test_ctx_whitelisted_reads():
    accept("r0 = *(u32 *)(r1 + 0)\nexit")  # len
    accept("r0 = *(u32 *)(r1 + 4)\nexit")  # protocol
    accept("r2 = *(u64 *)(r1 + 16)\nr0 = 0\nexit")  # data


def test_ctx_read_with_wrong_size():
    reject("r0 = *(u8 *)(r1 + 0)\nexit", "size")


def test_ctx_read_at_invalid_offset():
    reject("r0 = *(u32 *)(r1 + 2)\nexit", "invalid ctx read")


def test_ctx_write_to_mark_allowed():
    accept("r2 = 1\n*(u32 *)(r1 + 8) = r2\nr0 = 0\nexit")


def test_ctx_write_to_readonly_field_rejected():
    reject("r2 = 1\n*(u32 *)(r1 + 0) = r2\nr0 = 0\nexit", "invalid ctx write")


def test_ctx_write_of_pointer_rejected():
    reject("*(u64 *)(r1 + 32) = r10\nr0 = 0\nexit", "pointer into the context")


def test_cb_slots_read_write():
    accept("r2 = 9\n*(u64 *)(r1 + 32) = r2\nr0 = *(u64 *)(r1 + 32)\nexit")


# --- packet access -------------------------------------------------------------------


def test_packet_read_requires_bounds_check():
    source = """
    r2 = *(u64 *)(r1 + 16)
    r0 = *(u8 *)(r2 + 0)
    exit
    """
    reject(source, "exceeds verified bounds")


def test_packet_read_after_bounds_check():
    accept(
        """
        r2 = *(u64 *)(r1 + 16)
        r3 = *(u64 *)(r1 + 24)
        r4 = r2
        r4 += 14
        if r4 > r3 goto out
        r0 = *(u8 *)(r2 + 13)
        exit
        out:
        r0 = 0
        exit
        """
    )


def test_packet_read_beyond_checked_length():
    source = """
    r2 = *(u64 *)(r1 + 16)
    r3 = *(u64 *)(r1 + 24)
    r4 = r2
    r4 += 14
    if r4 > r3 goto out
    r0 = *(u8 *)(r2 + 14)
    exit
    out:
    r0 = 0
    exit
    """
    reject(source, "exceeds verified bounds")


def test_packet_bounds_check_jle_variant():
    accept(
        """
        r2 = *(u64 *)(r1 + 16)
        r3 = *(u64 *)(r1 + 24)
        r4 = r2
        r4 += 8
        if r4 <= r3 goto ok
        r0 = 0
        exit
        ok:
        r0 = *(u64 *)(r2 + 0)
        exit
        """
    )


def test_packet_write_rejected():
    source = """
    r2 = *(u64 *)(r1 + 16)
    r3 = *(u64 *)(r1 + 24)
    r4 = r2
    r4 += 8
    if r4 > r3 goto out
    r5 = 0
    *(u8 *)(r2 + 0) = r5
    out:
    r0 = 0
    exit
    """
    reject(source, "read-only")


def test_packet_pointers_invalidated_by_modifying_helper():
    """After lwt_seg6_adjust_srh the old packet pointer must be unusable."""
    source = """
    r6 = r1
    r7 = *(u64 *)(r6 + 16)
    r8 = *(u64 *)(r6 + 24)
    r2 = r7
    r2 += 48
    if r2 > r8 goto out
    r1 = r6
    r2 = 48
    r3 = 8
    call lwt_seg6_adjust_srh
    r0 = *(u8 *)(r7 + 0)
    exit
    out:
    r0 = 0
    exit
    """
    reject(source, "uninitialised R7", allowed=SEG6LOCAL_HELPERS)


def test_non_modifying_helper_keeps_packet_pointers():
    accept(
        """
        r6 = r1
        r7 = *(u64 *)(r6 + 16)
        r8 = *(u64 *)(r6 + 24)
        r2 = r7
        r2 += 40
        if r2 > r8 goto out
        call ktime_get_ns
        r0 = *(u8 *)(r7 + 6)
        exit
        out:
        r0 = 0
        exit
        """
    )


# --- pointer arithmetic ---------------------------------------------------------------


def test_pointer_plus_unknown_scalar_rejected():
    source = """
    r2 = *(u32 *)(r1 + 0)
    r3 = r10
    r3 += r2
    r0 = 0
    exit
    """
    reject(source, "unknown scalar")


def test_pointer_minus_pointer_rejected():
    reject("r2 = r10\nr2 -= r1\nr0 = 0\nexit", "pointer")


def test_pointer_multiplication_rejected():
    reject("r2 = r10\nr2 *= 2\nr0 = 0\nexit", "on pointer")


def test_32bit_arithmetic_on_pointer_rejected():
    reject("r2 = r10\nw2 += 4\nr0 = 0\nexit", "32-bit arithmetic on pointer")


def test_pointer_comparison_with_scalar_rejected():
    reject("if r10 > 5 goto l\nl:\nr0 = 0\nexit", "pointer and scalar")


def test_scalar_op_with_pointer_operand_rejected():
    reject("r2 = 5\nr2 += r10\nr0 = 0\nexit", "pointer operand")


# --- division / immediates ----------------------------------------------------------------


def test_division_by_zero_immediate_rejected():
    reject("r0 = 5\nr0 /= 0\nexit", "division by zero")


def test_modulo_by_zero_immediate_rejected():
    reject("r0 = 5\nr0 %= 0\nexit", "division by zero")


def test_division_by_zero_register_allowed():
    # Runtime semantics handle it (result 0), as the kernel's patching does.
    accept("r0 = 5\nr2 = 0\nr0 /= r2\nexit")


# --- maps and helpers --------------------------------------------------------------------


def map_prog(body: str) -> str:
    return f"""
    *(u32 *)(r10 - 4) = 0
    r1 = m ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    {body}
    """


def test_map_lookup_null_check_required():
    source = map_prog("r0 = *(u64 *)(r0 + 0)\nexit")
    reject(source, "NULL check", maps={"m": ArrayMap("m", 8, 4)})


def test_map_lookup_with_null_check():
    source = map_prog(
        """
        if r0 == 0 goto out
        r0 = *(u64 *)(r0 + 0)
        exit
        out:
        r0 = 0
        exit
        """
    )
    accept(source, maps={"m": ArrayMap("m", 8, 4)})


def test_map_value_bounds_checked():
    source = map_prog(
        """
        if r0 == 0 goto out
        r0 = *(u64 *)(r0 + 8)
        exit
        out:
        r0 = 0
        exit
        """
    )
    reject(source, "out of bounds", maps={"m": ArrayMap("m", 8, 4)})


def test_map_value_write_within_bounds():
    source = map_prog(
        """
        if r0 == 0 goto out
        r2 = 1
        *(u32 *)(r0 + 4) = r2
        out:
        r0 = 0
        exit
        """
    )
    accept(source, maps={"m": ArrayMap("m", 8, 4)})


def test_map_key_must_be_initialised():
    source = """
    r1 = m ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    r0 = 0
    exit
    """
    reject(source, "uninitialised stack", maps={"m": ArrayMap("m", 8, 4)})


def test_unknown_helper_rejected():
    reject("call 9999\nr0 = 0\nexit", "unknown helper")


def test_helper_not_in_hook_whitelist_rejected():
    source = """
    r2 = 0
    r3 = r10
    r3 += -8
    *(u64 *)(r10 - 8) = 0
    r4 = 8
    call lwt_push_encap
    r0 = 0
    exit
    """
    reject(source, "not available", allowed=SEG6LOCAL_HELPERS)
    # ... but it is available on the LWT hook.
    accept(source, allowed=LWT_HELPERS)


def test_helper_ctx_arg_must_be_context():
    source = """
    r1 = 5
    call skb_rx_timestamp
    exit
    """
    reject(source, "must be the context")


def test_helper_size_must_be_known_constant():
    source = """
    r6 = r1
    r4 = *(u32 *)(r6 + 0)
    r1 = r6
    r2 = 46
    r3 = r10
    r3 += -8
    *(u64 *)(r10 - 8) = 0
    call lwt_seg6_store_bytes
    r0 = 0
    exit
    """
    reject(source, "known constant", allowed=SEG6LOCAL_HELPERS)


def test_helper_size_zero_rejected():
    source = """
    r1 = r10
    r1 += -8
    *(u64 *)(r10 - 8) = 0
    r2 = 0
    call trace_printk
    r0 = 0
    exit
    """
    reject(source, "out of range")


def test_helper_buffer_must_fit_stack():
    source = """
    r1 = r10
    r1 += -4
    *(u32 *)(r10 - 4) = 0
    r2 = 16
    call trace_printk
    r0 = 0
    exit
    """
    reject(source, "out of bounds")


def test_helper_write_buffer_initialises_stack():
    source = """
    r6 = r1
    r7 = *(u64 *)(r6 + 16)
    r8 = *(u64 *)(r6 + 24)
    r2 = r7
    r2 += 40
    if r2 > r8 goto out
    *(u64 *)(r10 - 16) = 0
    *(u64 *)(r10 - 8) = 0
    r1 = r6
    r2 = r10
    r2 += -16
    r3 = r10
    r3 += -80
    r4 = 64
    call get_ecmp_nexthops
    r0 = *(u64 *)(r10 - 80)
    exit
    out:
    r0 = 0
    exit
    """
    accept(source, allowed=SEG6LOCAL_HELPERS)


def test_map_arg_must_be_map_pointer():
    source = """
    r1 = 5
    r2 = r10
    r2 += -4
    *(u32 *)(r10 - 4) = 0
    call map_lookup_elem
    r0 = 0
    exit
    """
    reject(source, "must be a map pointer")


def test_unresolved_map_reference_fails_at_load():
    from repro.ebpf.errors import LinkError

    with pytest.raises(LinkError, match="undefined map symbol 'nope'"):
        Program("r1 = nope ll\nr0 = 0\nexit")


# --- misc --------------------------------------------------------------------------------


def test_byte_swap_invalid_width():
    from repro.ebpf.insn import Instruction
    from repro.ebpf import isa

    insns = [
        Instruction(isa.BPF_ALU64 | isa.BPF_K | isa.BPF_MOV, 0, imm=0),
        Instruction(isa.BPF_ALU | isa.BPF_END | isa.BPF_TO_BE, 0, imm=24),
        Instruction(isa.BPF_JMP | isa.BPF_EXIT),
    ]
    with pytest.raises(VerifierError, match="byte-swap width"):
        Verifier(insns).verify()


@pytest.mark.parametrize("width", ["alu", "alu64"])
@pytest.mark.parametrize("op", ["div", "mod"])
@pytest.mark.parametrize("source", ["k", "x"])
def test_alu_with_nonzero_off_rejected(width, op, source):
    """``off = 1`` makes RFC 9669's signed divide / modulo, which 4.18 lacks:
    ``r0 = -7; r1 = 2; r0 s/= r1`` must not run as an unsigned divide."""
    from repro.ebpf.insn import Instruction
    from repro.ebpf import isa

    klass = {"alu": isa.BPF_ALU, "alu64": isa.BPF_ALU64}[width]
    code = klass | {"div": isa.BPF_DIV, "mod": isa.BPF_MOD}[op]
    signed = (
        Instruction(code | isa.BPF_K, isa.R0, off=1, imm=2)
        if source == "k"
        else Instruction(code | isa.BPF_X, isa.R0, isa.R1, off=1)
    )
    insns = [
        Instruction(isa.BPF_ALU64 | isa.BPF_K | isa.BPF_MOV, isa.R0, imm=-7),
        Instruction(isa.BPF_ALU64 | isa.BPF_K | isa.BPF_MOV, isa.R1, imm=2),
        signed,
        Instruction(isa.BPF_JMP | isa.BPF_EXIT),
    ]
    with pytest.raises(VerifierError, match="BPF_ALU uses reserved fields"):
        Verifier(insns).verify()


def _reserved_field_cases():
    """(id, instruction, 4.18's verdict): one encoding per reserved field."""
    from repro.ebpf.insn import Instruction
    from repro.ebpf import isa

    alu, alu64, jmp, k, x = isa.BPF_ALU, isa.BPF_ALU64, isa.BPF_JMP, isa.BPF_K, isa.BPF_X
    r0, r1 = isa.R0, isa.R1
    end, neg, mov, add = isa.BPF_END, isa.BPF_NEG, isa.BPF_MOV, isa.BPF_ADD
    jeq, ja, call, exit_ = isa.BPF_JEQ, isa.BPF_JA, isa.BPF_CALL, isa.BPF_EXIT
    return [
        # ISA v4's bswap16: 4.18 has no ALU64-class byte swap.
        ("bswap16", Instruction(alu64 | end | k, r0, imm=16), "BPF_END"),
        ("end_src_reg", Instruction(alu | end | isa.BPF_TO_BE, r0, r1, imm=16), "BPF_END"),
        ("end_off", Instruction(alu | end | isa.BPF_TO_LE, r0, off=1, imm=32), "BPF_END"),
        ("neg_src_reg", Instruction(alu64 | neg | k, r0, r1), "BPF_NEG"),
        ("neg_imm", Instruction(alu64 | neg | k, r0, imm=5), "BPF_NEG"),
        ("neg_x", Instruction(alu | neg | x, r0), "BPF_NEG"),
        ("mov_k_src_reg", Instruction(alu64 | mov | k, r0, r1, imm=3), "BPF_MOV"),
        ("mov_x_imm", Instruction(alu | mov | x, r0, r1, imm=3), "BPF_MOV"),
        ("mov_x_off", Instruction(alu64 | mov | x, r0, r1, off=8), "BPF_MOV"),  # ISA v4's movsx
        ("add_k_src_reg", Instruction(alu64 | add | k, r0, r1, imm=3), "BPF_ALU"),
        ("add_x_imm", Instruction(alu | add | x, r0, r1, imm=3), "BPF_ALU"),
        ("jeq_k_src_reg", Instruction(jmp | jeq | k, r0, r1, imm=3), "BPF_JMP"),
        ("jeq_x_imm", Instruction(jmp | jeq | x, r0, r1, imm=3), "BPF_JMP"),
        ("jeq32_k_src_reg", Instruction(isa.BPF_JMP32 | jeq | k, r0, r1, imm=3), "BPF_JMP"),
        ("ja_imm", Instruction(jmp | ja, imm=1), "BPF_JA"),
        ("ja_dst_reg", Instruction(jmp | ja, r1), "BPF_JA"),
        ("call_off", Instruction(jmp | call, off=1, imm=5), "BPF_CALL"),
        ("call_src_reg", Instruction(jmp | call, 0, r1, imm=5), "BPF_CALL"),
        ("call_x", Instruction(jmp | call | x, imm=5), "BPF_CALL"),
        # The memory classes: ST takes no source register, LDX / STX no immediate.
        ("st_src_reg", Instruction(isa.BPF_ST | isa.BPF_MEM | isa.BPF_DW, isa.R10, r1, -8, 7), "BPF_ST"),
        ("stx_imm", Instruction(isa.BPF_STX | isa.BPF_MEM | isa.BPF_DW, isa.R10, r1, -8, 7), "BPF_STX"),
        ("ldx_imm", Instruction(isa.BPF_LDX | isa.BPF_MEM | isa.BPF_DW, r0, isa.R10, -8, 7), "BPF_LDX"),
    ]


@pytest.mark.parametrize(
    "insn, verdict",
    [case[1:] for case in _reserved_field_cases()],
    ids=[case[0] for case in _reserved_field_cases()],
)
def test_reserved_fields_rejected(insn, verdict):
    """4.18's ``check_alu_op`` / ``check_cond_jmp_op`` / ``do_check`` /
    ``replace_map_fd_with_map_ptr`` encoding checks: an instruction with
    a non-zero reserved field is a loud verdict, not a silently different
    instruction."""
    from repro.ebpf.insn import Instruction
    from repro.ebpf import isa

    insns = [
        Instruction(isa.BPF_ALU64 | isa.BPF_K | isa.BPF_MOV, isa.R0, imm=0x1234),
        Instruction(isa.BPF_ALU64 | isa.BPF_K | isa.BPF_MOV, isa.R1, imm=2),
        insn,
        Instruction(isa.BPF_JMP | isa.BPF_EXIT),
    ]
    with pytest.raises(VerifierError, match=f"{verdict} uses reserved fields"):
        Verifier(insns).verify()


@pytest.mark.parametrize("field", ["imm", "src_reg", "dst_reg", "off"])
def test_exit_with_reserved_fields_rejected(field):
    from repro.ebpf.insn import Instruction
    from repro.ebpf import isa

    insns = [
        Instruction(isa.BPF_ALU64 | isa.BPF_K | isa.BPF_MOV, isa.R0, imm=0),
        Instruction(isa.BPF_JMP | isa.BPF_EXIT, **{field: 7}),
    ]
    with pytest.raises(VerifierError, match="BPF_EXIT uses reserved fields"):
        Verifier(insns).verify()


def test_xadd_rejected():
    from repro.ebpf.insn import Instruction
    from repro.ebpf import isa

    insns = [
        Instruction(isa.BPF_ALU64 | isa.BPF_K | isa.BPF_MOV, 0, imm=0),
        Instruction(isa.BPF_STX | isa.BPF_XADD | isa.BPF_DW, 10, 0, -8),
        Instruction(isa.BPF_JMP | isa.BPF_EXIT),
    ]
    with pytest.raises(VerifierError, match="XADD"):
        Verifier(insns).verify()


def test_all_paper_programs_verify():
    from repro.ebpf import PerfEventArrayMap
    from repro.progs import (
        add_tlv_prog,
        dm_encap_prog,
        end_dm_prog,
        end_oamp_prog,
        end_prog,
        end_t_prog,
        tag_increment_prog,
        wrr_prog,
    )

    end_prog()
    end_t_prog()
    tag_increment_prog()
    add_tlv_prog()
    dm_encap_prog(ArrayMap("c1", 40, 1))
    end_dm_prog(PerfEventArrayMap("e1"))
    wrr_prog(ArrayMap("c2", 40, 1), ArrayMap("s2", 16, 1))
    end_oamp_prog(PerfEventArrayMap("e2"))


def test_constant_branch_pruning_avoids_false_positive():
    # The dead branch reads an uninitialised register but can never run.
    accept(
        """
        r2 = 1
        if r2 == 0 goto dead
        r0 = 0
        exit
        dead:
        r0 = r9
        exit
        """
    )
