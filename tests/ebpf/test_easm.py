"""Unit tests for the kernel-style text assembler (repro.ebpf.text.easm).

Every instruction form is held to its encoding, stated independently of
the assembler as an explicit ``Instruction`` built from ``isa``
constants.  The library's ``.s`` programs are pinned byte-for-byte by
the goldens in ``tests/ebpf/library_golden/`` (see ``test_corpus.py``).
"""

import pytest

import repro.net  # noqa: F401 -- registers the seg6 helpers by name
from repro.ebpf import (
    HelperContext,
    Instruction,
    Interpreter,
    JitProgram,
    Memory,
    SkbContext,
    decode_program,
    encode_program,
    isa,
    parse_asm,
)
from repro.ebpf.errors import AsmError
from repro.ebpf.text import link
from repro.progs import library

ALU64, ALU, X, K = isa.BPF_ALU64, isa.BPF_ALU, isa.BPF_X, isa.BPF_K
LDX = isa.BPF_LDX | isa.BPF_MEM
STX = isa.BPF_STX | isa.BPF_MEM
ST = isa.BPF_ST | isa.BPF_MEM
SWAP = isa.BPF_ALU | isa.BPF_END
LDDW = isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW
EXIT = Instruction(isa.BPF_JMP | isa.BPF_EXIT)


def _insns(source: str):
    """Assemble a single-section easm source into linked instructions."""
    return link(parse_asm(source + "\n    exit")).insns


# --- instruction forms: every easm form maps onto its encoding ----------------

# (easm line, the encoding's bpf_asm mnemonic, struct bpf_insn fields).  The
# mnemonic is the second half of the case id the suite has always printed.
FORMS = [
    ("r3 = r7", "mov r3, r7", Instruction(ALU64 | X | isa.BPF_MOV, 3, 7)),
    ("w3 = w7", "mov32 r3, r7", Instruction(ALU | X | isa.BPF_MOV, 3, 7)),
    ("r2 = -42", "mov r2, -42", Instruction(ALU64 | K | isa.BPF_MOV, 2, imm=-42)),
    ("w2 = 10", "mov32 r2, 10", Instruction(ALU | K | isa.BPF_MOV, 2, imm=10)),
    ("r1 += r2", "add r1, r2", Instruction(ALU64 | X | isa.BPF_ADD, 1, 2)),
    ("r1 -= 3", "sub r1, 3", Instruction(ALU64 | K | isa.BPF_SUB, 1, imm=3)),
    ("r4 *= 5", "mul r4, 5", Instruction(ALU64 | K | isa.BPF_MUL, 4, imm=5)),
    ("r4 /= 5", "div r4, 5", Instruction(ALU64 | K | isa.BPF_DIV, 4, imm=5)),
    ("r4 %= 5", "mod r4, 5", Instruction(ALU64 | K | isa.BPF_MOD, 4, imm=5)),
    ("r4 &= 0xff", "and r4, 0xff", Instruction(ALU64 | K | isa.BPF_AND, 4, imm=255)),
    ("r4 |= 1", "or r4, 1", Instruction(ALU64 | K | isa.BPF_OR, 4, imm=1)),
    ("r4 ^= r5", "xor r4, r5", Instruction(ALU64 | X | isa.BPF_XOR, 4, 5)),
    ("r4 <<= 2", "lsh r4, 2", Instruction(ALU64 | K | isa.BPF_LSH, 4, imm=2)),
    ("r4 >>= 2", "rsh r4, 2", Instruction(ALU64 | K | isa.BPF_RSH, 4, imm=2)),
    ("r4 s>>= 2", "arsh r4, 2", Instruction(ALU64 | K | isa.BPF_ARSH, 4, imm=2)),
    ("w4 += w5", "add32 r4, r5", Instruction(ALU | X | isa.BPF_ADD, 4, 5)),
    ("w4 s>>= 1", "arsh32 r4, 1", Instruction(ALU | K | isa.BPF_ARSH, 4, imm=1)),
    ("r2 = -r2", "neg r2", Instruction(ALU64 | isa.BPF_NEG, 2)),
    ("w2 = -w2", "neg32 r2", Instruction(ALU | isa.BPF_NEG, 2)),
    ("r4 = be16 r4", "be16 r4", Instruction(SWAP | isa.BPF_TO_BE, 4, imm=16)),
    ("r4 = be32 r4", "be32 r4", Instruction(SWAP | isa.BPF_TO_BE, 4, imm=32)),
    ("r4 = be64 r4", "be64 r4", Instruction(SWAP | isa.BPF_TO_BE, 4, imm=64)),
    ("r4 = le16 r4", "le16 r4", Instruction(SWAP | isa.BPF_TO_LE, 4, imm=16)),
    ("r3 = *(u8 *)(r1 + 6)", "ldxb r3, [r1+6]", Instruction(LDX | isa.BPF_B, 3, 1, 6)),
    (
        "r3 = *(u16 *)(r1 + 46)",
        "ldxh r3, [r1+46]",
        Instruction(LDX | isa.BPF_H, 3, 1, 46),
    ),
    ("r3 = *(u32 *)(r1 + 0)", "ldxw r3, [r1+0]", Instruction(LDX | isa.BPF_W, 3, 1, 0)),
    (
        "r3 = *(u64 *)(r10 - 8)",
        "ldxdw r3, [r10-8]",
        Instruction(LDX | isa.BPF_DW, 3, 10, -8),
    ),
    (
        "*(u64 *)(r10 - 8) = r3",
        "stxdw [r10-8], r3",
        Instruction(STX | isa.BPF_DW, 10, 3, -8),
    ),
    (
        "*(u16 *)(r10 - 2) = r4",
        "stxh [r10-2], r4",
        Instruction(STX | isa.BPF_H, 10, 4, -2),
    ),
    (
        "*(u32 *)(r10 - 4) = 254",
        "stw [r10-4], 254",
        Instruction(ST | isa.BPF_W, 10, off=-4, imm=254),
    ),
    (
        "*(u8 *)(r10 - 1) = 10",
        "stb [r10-1], 10",
        Instruction(ST | isa.BPF_B, 10, off=-1, imm=10),
    ),
    (
        "r1 = 0x1122334455 ll",
        "lddw r1, 0x1122334455",
        Instruction(LDDW, 1, imm64=0x1122334455),
    ),
    (
        "call ktime_get_ns",
        "call ktime_get_ns",
        Instruction(isa.BPF_JMP | isa.BPF_CALL, imm=5),
    ),
    ("call 5", "call 5", Instruction(isa.BPF_JMP | isa.BPF_CALL, imm=5)),
]


@pytest.mark.parametrize(
    ("easm", "want"),
    [pytest.param(easm, want, id=f"{easm}-{name}") for easm, name, want in FORMS],
)
def test_easm_form_matches_classic(easm, want):
    assert encode_program(_insns(f"    {easm}")) == encode_program([want, EXIT])


@pytest.mark.parametrize(
    ("cond", "opcode_name"),
    [
        ("==", "jeq"),
        ("!=", "jne"),
        (">", "jgt"),
        (">=", "jge"),
        ("<", "jlt"),
        ("<=", "jle"),
        ("s>", "jsgt"),
        ("s>=", "jsge"),
        ("s<", "jslt"),
        ("s<=", "jsle"),
        ("&", "jset"),
    ],
)
def test_branches_match_classic(cond, opcode_name):
    op = getattr(isa, f"BPF_{opcode_name.upper()}")
    skipped = Instruction(ALU64 | K | isa.BPF_MOV, 0, imm=0)
    got = _insns(f"    if r2 {cond} 7 goto out\n    r0 = 0\nout:")
    want = Instruction(isa.BPF_JMP | K | op, 2, off=1, imm=7)
    assert encode_program(got) == encode_program([want, skipped, EXIT])
    # And the jmp32 variants via w registers.
    got32 = _insns(f"    if w2 {cond} w3 goto out\n    r0 = 0\nout:")
    want32 = Instruction(isa.BPF_JMP32 | X | op, 2, 3, off=1)
    assert encode_program(got32) == encode_program([want32, skipped, EXIT])


def test_goto_matches_ja():
    got = _insns("    goto out\n    r0 = 1\nout:")
    want = [
        Instruction(isa.BPF_JMP | isa.BPF_JA, off=1),
        Instruction(ALU64 | K | isa.BPF_MOV, 0, imm=1),
        EXIT,
    ]
    assert encode_program(got) == encode_program(want)


def test_map_symbol_lddw_matches_classic_map_ref():
    src = """
.map hits, array, key=4, value=8, entries=1
    r1 = hits ll
    exit
"""
    got = link(parse_asm(src)).insns
    want = Instruction(LDDW, 1, isa.BPF_PSEUDO_MAP_FD, imm64=0)
    assert encode_program(got) == encode_program([want, EXIT])
    assert got[0].map_ref == "hits"


# --- immediates: the text means what its own bytes mean -----------------------

# One program per place an immediate is parsed.
_IMM_PROGRAMS = {
    "move": "    r0 = {imm}\n    r0 >>= 32",
    "alu": "    r0 = 1\n    r0 += {imm}",
    "store": "    *(u64 *)(r10 - 8) = {imm}\n    r0 = *(u64 *)(r10 - 8)",
    "jump": "    r0 = 0\n    r1 = -1\n    if r1 != {imm} goto out\n    r0 = 1\nout:",
}


def _r0(insns) -> set[int]:
    results = set()
    for engine in (Interpreter(insns), JitProgram(insns)):
        mem = Memory()
        skb = SkbContext(mem, b"\x60" + b"\x00" * 39)
        results.add(engine.run(HelperContext(mem, skb), skb.ctx_addr, skb.stack_top))
    return results


@pytest.mark.parametrize("template", _IMM_PROGRAMS.values(), ids=_IMM_PROGRAMS)
def test_immediate_fits_the_32_bit_field_or_is_refused(template):
    """``0x80000000 … 0xffffffff`` is the field's bit pattern (stored signed);
    anything the field would truncate is an error, never a different program."""
    for boundary in (-(1 << 31), 1 << 31, 1 << 32):
        for imm in range(boundary - 3, boundary + 4):
            for spell in (str, hex):
                source = template.format(imm=spell(imm))
                if not -(1 << 31) <= imm < 1 << 32:
                    with pytest.raises(AsmError, match="not fit in 32 bits; use `ll`"):
                        _insns(source)
                    continue
                insns = _insns(source)
                from_bytes = decode_program(encode_program(insns))
                assert from_bytes == insns, source
                assert len(_r0(insns) | _r0(from_bytes)) == 1, source


# --- directives ---------------------------------------------------------------


def test_map_directive_defaults_and_overrides():
    obj = parse_asm(
        """
.map a, array
.map b, hash, key=16, value=32, entries=64
.map c, perf_event_array, entries=2
    exit
"""
    )
    assert (obj.maps["a"].key_size, obj.maps["a"].value_size) == (4, 8)
    decl = obj.maps["b"]
    assert (decl.map_type, decl.key_size, decl.value_size, decl.max_entries) == (
        "hash",
        16,
        32,
        64,
    )
    assert obj.maps["c"].max_entries == 2


def test_hook_and_globl_directives():
    obj = parse_asm(
        """
.hook seg6local
.globl out
    r0 = 0
out:
    exit
"""
    )
    assert obj.hook == "seg6local"
    assert obj.globals == {"out"}


def test_sections_split_code():
    obj = parse_asm(
        """
    r0 = 0
    exit
.section tail
    r0 = 1
    exit
"""
    )
    assert list(obj.sections) == ["main", "tail"]
    assert obj.sections["main"].size == 2
    assert obj.sections["tail"].size == 2


def test_comments_and_blank_lines_ignored():
    insns = _insns(
        """
    ; semicolon comment
    // slash comment
    # hash comment
    r0 = 0  ; trailing
"""
    )
    assert len(insns) == 2  # mov + exit


# --- diagnostics --------------------------------------------------------------


@pytest.mark.parametrize(
    ("source", "message"),
    [
        ("    r11 = 0", "register r11 out of range"),
        ("    r1 = w2", "cannot mix r and w registers"),
        ("    w1 += r2", "cannot mix r and w registers"),
        ("    if r1 == w2 goto out", "cannot mix r and w registers"),
        ("    *(u64 *)(r10 - 8) += r1", "read-modify-write"),
        ("    *(u64 *)(r10 - 8) = w1", "stores take an r register"),
        ("    w1 = 0x11223344556677 ll", "lddw needs an r register"),
        ("    r1 = be16 r2", "byte swap must be in place"),
        ("    r1 = -r2", "negation must be in place"),
        ("    call no_such_helper", "unknown helper 'no_such_helper'"),
        ("    goto", "goto needs exactly one target"),
        ("    if r1 >> 2 goto out", "malformed branch"),
        ("    frobnicate r1", "cannot parse instruction"),
        (".section", ".section needs a name"),
        (".wat 3", "unknown directive"),
        (".map m", ".map needs at least a name and a type"),
        (".map m, ringbuf", "unknown map type"),
        (".map m, array, size=9", "bad map parameter"),
        (".hook xdp", "unknown hook"),
        ("x:\nx:", "duplicate label 'x'"),
        (".map m, array\n.map m, array", "duplicate map 'm'"),
        (".section a\n.section a", "duplicate section 'a'"),
    ],
)
def test_asm_errors(source, message):
    with pytest.raises(AsmError, match=message):
        parse_asm(source)


def test_errors_carry_line_numbers():
    with pytest.raises(AsmError, match="line 3"):
        parse_asm("    r0 = 0\n    r1 = 1\n    bogus!\n    exit")


# --- the library programs -----------------------------------------------------


def test_asm_prog_loads_and_runs():
    prog = library.end_prog()
    ret, _hctx = prog.run_on_packet(b"\x60" + b"\x00" * 39)
    assert ret == 0


def test_asm_text_unknown_name_lists_available():
    with pytest.raises(KeyError, match="wrr"):
        library.asm_text("nope")
