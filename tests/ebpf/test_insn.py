"""Instruction encoding/decoding."""

import pytest
from hypothesis import given, strategies as st

from repro.ebpf import isa
from repro.ebpf.errors import EncodingError
from repro.ebpf.insn import Instruction, decode_program, encode_program, flatten


def test_simple_insn_is_8_bytes():
    insn = Instruction(isa.BPF_ALU64 | isa.BPF_K | isa.BPF_MOV, dst_reg=1, imm=42)
    assert len(insn.encode()) == 8


def test_lddw_is_16_bytes():
    insn = Instruction(
        isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW, dst_reg=1, imm64=0x1122334455667788
    )
    assert len(insn.encode()) == 16
    assert insn.slots == 2


def test_encode_decode_roundtrip_simple():
    insns = [
        Instruction(isa.BPF_ALU64 | isa.BPF_K | isa.BPF_MOV, 0, imm=7),
        Instruction(isa.BPF_JMP | isa.BPF_EXIT),
    ]
    assert decode_program(encode_program(insns)) == insns


def test_encode_decode_roundtrip_lddw():
    insns = [
        Instruction(isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW, 3, imm64=isa.U64),
        Instruction(isa.BPF_JMP | isa.BPF_EXIT),
    ]
    decoded = decode_program(encode_program(insns))
    assert decoded[0].imm64 == isa.U64
    assert decoded[0].dst_reg == 3


def test_negative_offset_roundtrip():
    insn = Instruction(isa.BPF_STX | isa.BPF_MEM | isa.BPF_DW, 10, 1, off=-8)
    assert decode_program(insn.encode()) == [insn]


def test_negative_imm_roundtrip():
    insn = Instruction(isa.BPF_ALU64 | isa.BPF_K | isa.BPF_ADD, 1, imm=-100)
    decoded = decode_program(insn.encode())[0]
    assert decoded.imm == -100


def test_decode_rejects_odd_length():
    with pytest.raises(EncodingError):
        decode_program(b"\x00" * 7)


def test_decode_rejects_truncated_lddw():
    insn = Instruction(isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW, 0, imm64=1)
    with pytest.raises(EncodingError):
        decode_program(insn.encode()[:8])


def test_decode_rejects_malformed_second_lddw_slot():
    insn = Instruction(isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW, 0, imm64=1)
    raw = bytearray(insn.encode())
    raw[8] = 0x07  # second slot must have opcode 0
    with pytest.raises(EncodingError):
        decode_program(bytes(raw))


def test_offset_out_of_range_rejected():
    with pytest.raises(EncodingError):
        Instruction(isa.BPF_LDX | isa.BPF_MEM | isa.BPF_W, 0, 1, off=1 << 15)


def test_register_out_of_range_rejected():
    with pytest.raises(EncodingError):
        Instruction(isa.BPF_ALU64 | isa.BPF_MOV, dst_reg=16)


def test_imm64_only_for_lddw():
    with pytest.raises(EncodingError):
        Instruction(isa.BPF_ALU64 | isa.BPF_MOV, 0, imm64=5)


def test_flatten_lddw_second_slot_is_none():
    insns = [
        Instruction(isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW, 0, imm64=1),
        Instruction(isa.BPF_JMP | isa.BPF_EXIT),
    ]
    slots = flatten(insns)
    assert len(slots) == 3
    assert slots[1] is None
    assert slots[2] is insns[1]


@given(
    opcode=st.sampled_from(
        [
            isa.BPF_ALU64 | isa.BPF_K | isa.BPF_MOV,
            isa.BPF_ALU64 | isa.BPF_X | isa.BPF_ADD,
            isa.BPF_ALU | isa.BPF_K | isa.BPF_SUB,
            isa.BPF_LDX | isa.BPF_MEM | isa.BPF_W,
            isa.BPF_STX | isa.BPF_MEM | isa.BPF_DW,
            isa.BPF_ST | isa.BPF_MEM | isa.BPF_B,
            isa.BPF_JMP | isa.BPF_K | isa.BPF_JEQ,
        ]
    ),
    dst=st.integers(0, 10),
    src=st.integers(0, 10),
    off=st.integers(-(1 << 15), (1 << 15) - 1),
    imm=st.integers(-(1 << 31), (1 << 31) - 1),
)
def test_roundtrip_property(opcode, dst, src, off, imm):
    insn = Instruction(opcode, dst, src, off, imm)
    assert decode_program(insn.encode()) == [insn]


@given(value=st.integers(0, isa.U64))
def test_lddw_imm64_roundtrip_property(value):
    insn = Instruction(isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW, 1, imm64=value)
    assert decode_program(insn.encode())[0].imm64 == value


def test_signed_conversion_helpers():
    assert isa.to_signed64(isa.U64) == -1
    assert isa.to_signed64(1) == 1
    assert isa.to_signed64(isa.S64_SIGN) == -(1 << 63)
    assert isa.to_signed32(0xFFFFFFFF) == -1
    assert isa.to_signed32(0x7FFFFFFF) == 0x7FFFFFFF
