"""Unit tests for the kernel-style text assembler (repro.ebpf.text.easm).

Every easm instruction form is held to its classic ``bpf_asm``-style
twin.  The library's ``.s`` programs are pinned byte-for-byte by the
goldens in ``tests/ebpf/library_golden/`` (see ``test_corpus.py``).
"""

import pytest

import repro.net  # noqa: F401 -- registers the seg6 helpers by name
from repro.ebpf import assemble, encode_program, parse_asm
from repro.ebpf.errors import AsmError
from repro.ebpf.text import link
from repro.progs import library


def _insns(source: str):
    """Assemble a single-section easm source into linked instructions."""
    return link(parse_asm(source + "\n    exit")).insns


def _same_as_classic(easm_line: str, classic_line: str):
    got = encode_program(_insns(f"    {easm_line}"))
    want = encode_program(assemble(f"{classic_line}\nexit"))
    assert got == want, f"{easm_line!r} != {classic_line!r}"


# --- instruction forms: every easm form maps onto its classic twin -----------


@pytest.mark.parametrize(
    ("easm", "classic"),
    [
        ("r3 = r7", "mov r3, r7"),
        ("w3 = w7", "mov32 r3, r7"),
        ("r2 = -42", "mov r2, -42"),
        ("w2 = 10", "mov32 r2, 10"),
        ("r1 += r2", "add r1, r2"),
        ("r1 -= 3", "sub r1, 3"),
        ("r4 *= 5", "mul r4, 5"),
        ("r4 /= 5", "div r4, 5"),
        ("r4 %= 5", "mod r4, 5"),
        ("r4 &= 0xff", "and r4, 0xff"),
        ("r4 |= 1", "or r4, 1"),
        ("r4 ^= r5", "xor r4, r5"),
        ("r4 <<= 2", "lsh r4, 2"),
        ("r4 >>= 2", "rsh r4, 2"),
        ("r4 s>>= 2", "arsh r4, 2"),
        ("w4 += w5", "add32 r4, r5"),
        ("w4 s>>= 1", "arsh32 r4, 1"),
        ("r2 = -r2", "neg r2"),
        ("w2 = -w2", "neg32 r2"),
        ("r4 = be16 r4", "be16 r4"),
        ("r4 = be32 r4", "be32 r4"),
        ("r4 = be64 r4", "be64 r4"),
        ("r4 = le16 r4", "le16 r4"),
        ("r3 = *(u8 *)(r1 + 6)", "ldxb r3, [r1+6]"),
        ("r3 = *(u16 *)(r1 + 46)", "ldxh r3, [r1+46]"),
        ("r3 = *(u32 *)(r1 + 0)", "ldxw r3, [r1+0]"),
        ("r3 = *(u64 *)(r10 - 8)", "ldxdw r3, [r10-8]"),
        ("*(u64 *)(r10 - 8) = r3", "stxdw [r10-8], r3"),
        ("*(u16 *)(r10 - 2) = r4", "stxh [r10-2], r4"),
        ("*(u32 *)(r10 - 4) = 254", "stw [r10-4], 254"),
        ("*(u8 *)(r10 - 1) = 10", "stb [r10-1], 10"),
        ("r1 = 0x1122334455 ll", "lddw r1, 0x1122334455"),
        ("call ktime_get_ns", "call ktime_get_ns"),
        ("call 5", "call 5"),
    ],
)
def test_easm_form_matches_classic(easm, classic):
    _same_as_classic(easm, classic)


@pytest.mark.parametrize(
    ("cond", "classic_op"),
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
def test_branches_match_classic(cond, classic_op):
    got = encode_program(
        _insns(f"    if r2 {cond} 7 goto out\n    r0 = 0\nout:")
    )
    want = encode_program(
        assemble(f"{classic_op} r2, 7, out\nmov r0, 0\nout:\nexit")
    )
    assert got == want
    # And the jmp32 variants via w registers.
    got32 = encode_program(
        _insns(f"    if w2 {cond} w3 goto out\n    r0 = 0\nout:")
    )
    want32 = encode_program(
        assemble(f"{classic_op}32 r2, r3, out\nmov r0, 0\nout:\nexit")
    )
    assert got32 == want32


def test_goto_matches_ja():
    got = encode_program(_insns("    goto out\n    r0 = 1\nout:"))
    want = encode_program(assemble("ja out\nmov r0, 1\nout:\nexit"))
    assert got == want


def test_map_symbol_lddw_matches_classic_map_ref():
    src = """
.map hits, array, key=4, value=8, entries=1
    r1 = hits ll
    exit
"""
    got = link(parse_asm(src)).insns
    want = assemble("lddw r1, map:hits\nexit")
    assert encode_program(got) == encode_program(want)
    assert got[0].map_ref == "hits"


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
