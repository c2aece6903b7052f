"""eBPF instruction-set constants.

This module mirrors the opcode encoding of the Linux eBPF virtual machine
(``Documentation/networking/filter.txt``).  Each instruction is 64 bits:

    opcode:8  dst_reg:4  src_reg:4  off:16 (signed)  imm:32 (signed)

with the exception of ``BPF_LD | BPF_IMM | BPF_DW`` (``lddw``) which
occupies two consecutive 64-bit slots to carry a 64-bit immediate.

The numeric values below are the real kernel encodings, so bytecode
produced by this toolchain is byte-compatible with Linux eBPF objects
(modulo helper availability).
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Instruction classes (low 3 bits of the opcode).
# ---------------------------------------------------------------------------
BPF_LD = 0x00
BPF_LDX = 0x01
BPF_ST = 0x02
BPF_STX = 0x03
BPF_ALU = 0x04
BPF_JMP = 0x05
BPF_JMP32 = 0x06
BPF_ALU64 = 0x07

CLASS_MASK = 0x07

# ---------------------------------------------------------------------------
# Size modifiers for load/store classes (bits 3-4).
# ---------------------------------------------------------------------------
BPF_W = 0x00  # 4 bytes
BPF_H = 0x08  # 2 bytes
BPF_B = 0x10  # 1 byte
BPF_DW = 0x18  # 8 bytes

SIZE_MASK = 0x18

SIZE_BYTES = {BPF_B: 1, BPF_H: 2, BPF_W: 4, BPF_DW: 8}
BYTES_TO_SIZE = {1: BPF_B, 2: BPF_H, 4: BPF_W, 8: BPF_DW}

# ---------------------------------------------------------------------------
# Mode modifiers for load/store classes (bits 5-7).
# ---------------------------------------------------------------------------
BPF_IMM = 0x00
BPF_ABS = 0x20
BPF_IND = 0x40
BPF_MEM = 0x60
BPF_XADD = 0xC0

MODE_MASK = 0xE0

# ---------------------------------------------------------------------------
# ALU / ALU64 operations (bits 4-7).
# ---------------------------------------------------------------------------
BPF_ADD = 0x00
BPF_SUB = 0x10
BPF_MUL = 0x20
BPF_DIV = 0x30
BPF_OR = 0x40
BPF_AND = 0x50
BPF_LSH = 0x60
BPF_RSH = 0x70
BPF_NEG = 0x80
BPF_MOD = 0x90
BPF_XOR = 0xA0
BPF_MOV = 0xB0
BPF_ARSH = 0xC0
BPF_END = 0xD0

OP_MASK = 0xF0

# Source modifier (bit 3): operate on register (X) or immediate (K).
BPF_K = 0x00
BPF_X = 0x08

SRC_MASK = 0x08

# BPF_END directions (stored in the source bit).
BPF_TO_LE = 0x00
BPF_TO_BE = 0x08

# ---------------------------------------------------------------------------
# JMP operations (bits 4-7).
# ---------------------------------------------------------------------------
BPF_JA = 0x00
BPF_JEQ = 0x10
BPF_JGT = 0x20
BPF_JGE = 0x30
BPF_JSET = 0x40
BPF_JNE = 0x50
BPF_JSGT = 0x60
BPF_JSGE = 0x70
BPF_CALL = 0x80
BPF_EXIT = 0x90
BPF_JLT = 0xA0
BPF_JLE = 0xB0
BPF_JSLT = 0xC0
BPF_JSLE = 0xD0

# ---------------------------------------------------------------------------
# Registers.
# ---------------------------------------------------------------------------
R0 = 0  # return value / helper return
R1 = 1  # first argument (context)
R2 = 2
R3 = 3
R4 = 4
R5 = 5  # last helper argument
R6 = 6  # callee-saved
R7 = 7
R8 = 8
R9 = 9
R10 = 10  # read-only frame pointer

NUM_REGS = 11
CALLER_SAVED = (R0, R1, R2, R3, R4, R5)
HELPER_ARG_REGS = (R1, R2, R3, R4, R5)

# ---------------------------------------------------------------------------
# Pseudo source registers for lddw.
# ---------------------------------------------------------------------------
BPF_PSEUDO_MAP_FD = 1

# ---------------------------------------------------------------------------
# Limits (as of the Linux 4.18 era the paper targets).
# ---------------------------------------------------------------------------
MAX_INSNS = 4096
STACK_SIZE = 512

# 64-bit arithmetic masks.
U64 = (1 << 64) - 1
U32 = (1 << 32) - 1
S64_SIGN = 1 << 63
S32_SIGN = 1 << 31


def to_signed64(value: int) -> int:
    """Interpret ``value`` (0 <= value < 2**64) as a signed 64-bit int."""
    value &= U64
    return value - (1 << 64) if value & S64_SIGN else value


def to_signed32(value: int) -> int:
    """Interpret ``value`` (0 <= value < 2**32) as a signed 32-bit int."""
    value &= U32
    return value - (1 << 32) if value & S32_SIGN else value


ALU_OP_NAMES = {
    BPF_ADD: "add",
    BPF_SUB: "sub",
    BPF_MUL: "mul",
    BPF_DIV: "div",
    BPF_OR: "or",
    BPF_AND: "and",
    BPF_LSH: "lsh",
    BPF_RSH: "rsh",
    BPF_NEG: "neg",
    BPF_MOD: "mod",
    BPF_XOR: "xor",
    BPF_MOV: "mov",
    BPF_ARSH: "arsh",
    BPF_END: "end",
}
