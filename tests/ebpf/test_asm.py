"""Assembler field-by-field, and the disassembler that prints it back."""

import pytest

import repro.net  # noqa: F401  — registers the SRv6 helpers for `call` by name
from repro.ebpf import disassemble, encode_program, isa, link, parse_asm
from repro.ebpf.insn import flatten
from test_corpus import reassembled


def assemble(source: str):
    """One section of kernel-syntax text as an instruction list."""
    return link(parse_asm(source)).insns


def asm1(line: str):
    """Assemble a single line and return the instruction."""
    insns = assemble(line)
    assert len(insns) == 1
    return insns[0]


def test_mov_immediate():
    insn = asm1("r1 = 42")
    assert insn.opcode == isa.BPF_ALU64 | isa.BPF_K | isa.BPF_MOV
    assert insn.dst_reg == 1
    assert insn.imm == 42


def test_mov_register():
    insn = asm1("r3 = r7")
    assert insn.opcode == isa.BPF_ALU64 | isa.BPF_X | isa.BPF_MOV
    assert (insn.dst_reg, insn.src_reg) == (3, 7)


def test_negative_immediate():
    assert asm1("r1 = -1").imm == -1


def test_hex_immediate():
    assert asm1("r1 = 0xff").imm == 255


def test_neg():
    insn = asm1("r4 = -r4")
    assert insn.opcode == isa.BPF_ALU64 | isa.BPF_NEG
    assert insn.dst_reg == 4


def test_endian_ops():
    insn = asm1("r2 = be16 r2")
    assert insn.opcode == isa.BPF_ALU | isa.BPF_END | isa.BPF_TO_BE
    assert insn.imm == 16
    insn = asm1("r2 = le64 r2")
    assert insn.opcode == isa.BPF_ALU | isa.BPF_END | isa.BPF_TO_LE
    assert insn.imm == 64


def test_load_store_sizes():
    for bits, size in ((8, isa.BPF_B), (16, isa.BPF_H), (32, isa.BPF_W), (64, isa.BPF_DW)):
        load = asm1(f"r1 = *(u{bits} *)(r2 + 4)")
        assert load.opcode == isa.BPF_LDX | isa.BPF_MEM | size
        store = asm1(f"*(u{bits} *)(r2 - 4) = r1")
        assert store.opcode == isa.BPF_STX | isa.BPF_MEM | size
        assert store.off == -4
        store_imm = asm1(f"*(u{bits} *)(r10 - 8) = 9")
        assert store_imm.opcode == isa.BPF_ST | isa.BPF_MEM | size
        assert store_imm.imm == 9


def test_memory_operand_no_offset():
    insn = asm1("r1 = *(u32 *)(r2)")
    assert insn.off == 0


def test_lddw_value():
    insn = asm1("r1 = 0x123456789abcdef0 ll")
    assert insn.imm64 == 0x123456789ABCDEF0


def test_lddw_map_ref():
    # No link: an undeclared map symbol is the linker's business.
    (insn,) = parse_asm("r1 = flags ll").sections["main"].items
    assert insn.map_ref == "flags"
    assert insn.src_reg == isa.BPF_PSEUDO_MAP_FD


def test_labels_and_jumps():
    insns = assemble(
        """
        r0 = 0
        if r0 == 0 goto done
        r0 = 1
        done:
        exit
        """
    )
    jump = insns[1]
    assert jump.off == 1  # skips 'r0 = 1'


def test_backward_label_offsets_in_slots():
    # lddw occupies two slots; the jump offset must account for that.
    insns = assemble(
        """
        r1 = 5 ll
        if r1 == 5 goto over
        r0 = 0
        over:
        exit
        """
    )
    assert insns[1].off == 1


def test_ja():
    insns = assemble("goto out\nr0 = 1\nout:\nexit")
    assert insns[0].opcode == isa.BPF_JMP | isa.BPF_JA
    assert insns[0].off == 1


def test_jmp32():
    insns = assemble("if w1 == 4 goto l\nl:\nexit")
    assert insns[0].opcode == isa.BPF_JMP32 | isa.BPF_K | isa.BPF_JEQ


def test_call_by_name_and_number():
    assert asm1("call ktime_get_ns").imm == 5
    assert asm1("call 5").imm == 5


def test_call_srv6_helper_names():
    assert asm1("call lwt_seg6_store_bytes").imm == 74
    assert asm1("call lwt_push_encap").imm == 73


def test_comments_and_blank_lines():
    insns = assemble(
        """
        ; full-line comment
        r0 = 0      ; trailing comment
        # hash comment
        exit        // slash comment
        """
    )
    assert len(insns) == 2


def test_label_on_same_line_as_insn():
    insns = assemble("start: r0 = 0\nexit")
    assert len(insns) == 2


# --- disassembler round trips -------------------------------------------------

# Each case keeps the id the suite has always printed for it (the floor
# list names it): the same program in bpf_asm mnemonics.
ROUNDTRIP_SOURCES = [
    pytest.param("r0 = 0\nexit", id="mov r0, 0\nexit"),
    pytest.param(
        "r6 = r1\nr7 = *(u64 *)(r6 + 16)\nr8 = *(u64 *)(r6 + 24)\nexit",
        id="mov r6, r1\nldxdw r7, [r6+16]\nldxdw r8, [r6+24]\nexit",
    ),
    pytest.param("r1 = 0xdeadbeef ll\nexit", id="lddw r1, 0xdeadbeef\nexit"),
    pytest.param(
        "*(u8 *)(r10 - 8) = 10\n*(u16 *)(r10 - 6) = 0\n*(u32 *)(r10 - 4) = 1\n"
        "*(u64 *)(r10 - 16) = r1\nexit",
        id="stb [r10-8], 10\nsth [r10-6], 0\nstw [r10-4], 1\n"
        "stxdw [r10-16], r1\nexit",
    ),
    pytest.param(
        "r1 = be16 r1\nr2 = le32 r2\nr3 = be64 r3\nr4 = -r4\nw5 = -w5\nexit",
        id="be16 r1\nle32 r2\nbe64 r3\nneg r4\nneg32 r5\nexit",
    ),
    pytest.param(
        "if r1 == 0 goto l\nr1 += 1\nl:\nr1 %= 3\nr1 s>>= 2\nexit",
        id="jeq r1, 0, l\nadd r1, 1\nl:\nmod r1, 3\narsh r1, 2\nexit",
    ),
    pytest.param(
        "if r1 s> r2 goto l\nif w1 & 4 goto l\nl:\nexit",
        id="jsgt r1, r2, l\njset32 r1, 4, l\nl:\nexit",
    ),
]


@pytest.mark.parametrize("source", ROUNDTRIP_SOURCES)
def test_disassemble_reassembles_identically(source):
    insns = assemble("r1 = 0\nr2 = 0\n" + source)
    assert reassembled(insns) == encode_program(insns)


def test_disassemble_labels_jump_targets():
    insns = assemble("if r1 == 0 goto out\nr0 = 1\nout:\nexit")
    text = disassemble(insns)
    assert "L2:" in text
    assert "if r1 == 0 goto L2" in text


def test_flatten_slot_count_matches_encoding():
    insns = assemble("r1 = 1 ll\nr2 = 2 ll\nr0 = 0\nexit")
    assert len(flatten(insns)) == 6
