"""Golden-file regression + differential corpus for the eBPF toolchain.

Every ``corpus/*.s`` source is held to a ``.expected`` golden file
pinning three things:

* the assembled bytes (pre-relocation, so they are stable across
  processes — map lddws encode ``imm64=0`` until load time),
* the disassembly text, and
* the verifier verdict — ``accept``, or ``reject`` with the *exact*
  diagnostic, so verifier refactors cannot silently degrade messages —
  and, for an accepted program, the ``ProgramFacts`` the verifier
  exports (helpers called, ctx fields read / written, stack touched),
  which gate what an attach site's invocation resets and reads back.

On top of the goldens, every accepted program is:

* round-tripped ``parse_asm(disassemble(insns))`` byte-identically — the
  disassembler prints what the one assembler reads (the property
  :mod:`repro.ebpf.disasm` promises; no ``link``, so an unresolved map
  symbol is fine), and
* executed differentially — interpreter vs JIT — on seeded random
  packets, comparing the return value, the full helper-call trace, the
  final map contents and the mutable context fields.

The eight ``src/repro/progs/asm/*.s`` library programs ride the golden
and round-trip checks too: they are the only definition of End, End.T,
Tag++, Add TLV, the §4.1 sampler and End.DM, the WRR scheduler and
End.OAMP, so their bytes are pinned here,
with the goldens kept in ``tests/ebpf/library_golden/`` (not beside the
sources, and not in ``corpus/``, which the perf ledger globs).

Regenerate goldens after an intentional toolchain change with::

    PYTHONPATH=src python -m pytest tests/ebpf/test_corpus.py --regen-golden

and review the diff like any other code change.
"""

from __future__ import annotations

import random
from functools import lru_cache
from pathlib import Path

import pytest

import repro.net  # noqa: F401 -- registers the seg6 helpers for disasm names
from repro.ebpf import (
    ArrayMap,
    HashMap,
    LpmTrieMap,
    PerfEventArrayMap,
    Program,
    VerifierError,
    decode_program,
    disassemble,
    encode_program,
    link,
    parse_asm,
)
from repro.ebpf.context import (
    CB_SLOTS,
    CTX_SIZE,
    OFF_CB,
    OFF_DATA,
    OFF_DATA_END,
    OFF_LEN,
    OFF_MARK,
    OFF_PRIORITY,
    OFF_PROTOCOL,
)
from repro.ebpf.helpers import HELPER_NAMES_BY_ID
from repro.ebpf.vm import Interpreter
from repro.lab import Network
from repro.progs.library import ASM_DIR

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.s"))
IDS = [path.stem for path in CORPUS]

LIBRARY = sorted(ASM_DIR.glob("*.s"))
LIBRARY_GOLDEN_DIR = Path(__file__).parent / "library_golden"
PINNED = CORPUS + LIBRARY
PINNED_IDS = IDS + [f"library_{path.stem}" for path in LIBRARY]

DIFFERENTIAL_INPUTS = 64

_HEADER = (
    "# golden file for {name}.s -- regenerate with:\n"
    "#   PYTHONPATH=src python -m pytest tests/ebpf/test_corpus.py "
    "--regen-golden\n"
)


# --- building ----------------------------------------------------------------


def reassembled(insns) -> bytes:
    """Bytes of ``parse_asm(disassemble(insns))``."""
    return encode_program(parse_asm(disassemble(insns)).insns)


@lru_cache(maxsize=None)
def _build(path: Path):
    """Assemble+link once per source; returns (linked, program, verdict, error)."""
    linked = link(parse_asm(path.read_text()))
    try:
        prog = linked.load(name=path.stem, jit=True)
    except VerifierError as exc:
        return linked, None, "reject", f"{type(exc).__name__}: {exc}"
    return linked, prog, "accept", None


_CTX_FIELD_NAMES = {
    OFF_LEN: "len",
    OFF_PROTOCOL: "protocol",
    OFF_MARK: "mark",
    OFF_PRIORITY: "priority",
    OFF_DATA: "data",
    OFF_DATA_END: "data_end",
    **{OFF_CB + 8 * i: f"cb[{i}]" for i in range(CB_SLOTS)},
}


def describe_facts(facts) -> str:
    """One line of the verifier's ProgramFacts, e.g. ``no helpers, no ctx, no stack``."""
    helpers = sorted(HELPER_NAMES_BY_ID[h] for h in facts.helpers)
    parts = [f"helpers [{' '.join(helpers)}]" if helpers else "no helpers"]
    ctx = [
        f"{verb} [{' '.join(_CTX_FIELD_NAMES[off] for off in sorted(offsets))}]"
        for verb, offsets in (("reads", facts.ctx_reads), ("writes", facts.ctx_writes))
        if offsets
    ]
    parts.append(f"ctx {' '.join(ctx)}" if ctx else "no ctx")
    parts.append("stack" if facts.touches_stack else "no stack")
    return ", ".join(parts)


def _golden_text(path: Path) -> str:
    linked, prog, verdict, error = _build(path)
    lines = [_HEADER.format(name=path.stem)]
    lines.append(f"verdict: {verdict}")
    if error is not None:
        lines.append(f"error: {error}")
    else:
        lines.append(f"facts: {describe_facts(prog.facts)}")
    lines.append("-- bytes --")
    blob = encode_program(linked.insns)
    for i in range(0, len(blob), 8):
        lines.append(blob[i : i + 8].hex())
    lines.append("-- disasm --")
    lines.append(disassemble(linked.insns).rstrip("\n"))
    return "\n".join(lines) + "\n"


# --- corpus shape guards ------------------------------------------------------


def test_corpus_is_large_enough():
    """The acceptance floor: >= 25 programs, >= 5 verifier-rejected."""
    rejected = [path for path in CORPUS if path.stem.startswith("rej_")]
    assert len(CORPUS) >= 25, f"corpus shrank to {len(CORPUS)} programs"
    assert len(rejected) >= 5, f"only {len(rejected)} rejected programs"


@pytest.mark.parametrize("path", CORPUS, ids=IDS)
def test_verdict_matches_naming(path):
    """``rej_*`` sources are rejected, everything else loads."""
    _linked, prog, verdict, error = _build(path)
    if path.stem.startswith("rej_"):
        assert verdict == "reject", f"{path.stem} unexpectedly verified"
        assert error is not None and error.startswith("VerifierError: ")
    else:
        assert verdict == "accept", f"{path.stem} rejected: {error}"
        assert prog is not None


# --- golden files -------------------------------------------------------------


@pytest.mark.parametrize("path", PINNED, ids=PINNED_IDS)
def test_golden(path, request):
    golden_dir = LIBRARY_GOLDEN_DIR if path.parent == ASM_DIR else CORPUS_DIR
    expected_path = golden_dir / f"{path.stem}.expected"
    text = _golden_text(path)
    if request.config.getoption("--regen-golden"):
        expected_path.write_text(text)
        return
    assert expected_path.exists(), (
        f"missing {expected_path.name}; run pytest with --regen-golden"
    )
    assert text == expected_path.read_text(), (
        f"golden drift for {path.stem}; if intentional, rerun with "
        "--regen-golden and review the diff"
    )


# --- round-trip property ------------------------------------------------------


@pytest.mark.parametrize("path", PINNED, ids=PINNED_IDS)
def test_roundtrip_reassembles_byte_identical(path):
    """parse_asm(disassemble(insns)) is byte-identical, every program —
    and the bytes decode back to the very instructions the text gave."""
    linked, _prog, _verdict, _error = _build(path)
    blob = encode_program(linked.insns)
    assert reassembled(linked.insns) == blob
    assert decode_program(blob) == linked.insns


# --- one text door ------------------------------------------------------------


def _load_outcome(door, text):
    try:
        prog = door(text)
    except VerifierError as exc:
        return str(exc)
    # Map handles differ per instance; the symbol they relocate is the same.
    return sorted(prog.maps), [
        (i.opcode, i.dst_reg, i.src_reg, i.off, i.imm, i.map_ref or i.imm64)
        for i in prog.insns
    ]


def test_every_text_door_reads_the_same_language():
    """``Program(str)`` and ``net.load`` are one door: the same texts load,
    to the same program, or fail with the same diagnostic."""
    doors = (Program, lambda text: Network().load("prog", text))
    for path in CORPUS:
        text = path.read_text()
        first, *others = (_load_outcome(door, text) for door in doors)
        assert all(other == first for other in others), path.stem


# --- differential execution ---------------------------------------------------


def _snapshot_map(map_obj):
    if isinstance(map_obj, ArrayMap):  # covers PerCpuArrayMap
        return [bytes(value) for value in map_obj._values]
    if isinstance(map_obj, (HashMap, LpmTrieMap)):
        return (
            {k: (slot, bytes(v)) for k, (slot, v) in map_obj._entries.items()},
            list(map_obj._free_slots),
        )
    if isinstance(map_obj, PerfEventArrayMap):
        return None
    raise AssertionError(f"unsnapshotable map type {type(map_obj)}")


def _restore_map(map_obj, snap):
    if isinstance(map_obj, ArrayMap):
        for value, saved in zip(map_obj._values, snap):
            value[:] = saved
    elif isinstance(map_obj, (HashMap, LpmTrieMap)):
        entries, free_slots = snap
        map_obj._entries = {
            k: (slot, bytearray(v)) for k, (slot, v) in entries.items()
        }
        map_obj._free_slots = list(free_slots)
    elif isinstance(map_obj, PerfEventArrayMap):
        for cpu in range(map_obj.max_entries):
            map_obj.ring(cpu).drain()


def _dump_map(map_obj):
    """Observable post-run state (drains perf rings as user space would)."""
    if isinstance(map_obj, PerfEventArrayMap):
        return tuple(
            tuple(map_obj.ring(cpu).drain()) for cpu in range(map_obj.max_entries)
        )
    return tuple(sorted(map_obj.items()))


def _make_packet(rng: random.Random) -> bytes:
    length = rng.randint(40, 191)
    body = bytes(rng.getrandbits(8) for _ in range(length - 1))
    return b"\x60" + body  # IPv6 version nibble, then wire noise


def _make_clock():
    tick = [0]

    def clock_ns():
        tick[0] += 1000
        return tick[0]

    return clock_ns


ACCEPTED = [path for path in CORPUS if not path.stem.startswith("rej_")]


@pytest.mark.parametrize("path", ACCEPTED, ids=[p.stem for p in ACCEPTED])
def test_differential_vm_vs_jit(path):
    """Both engines agree on R0, helper traces, map state and ctx effects."""
    _linked, prog, verdict, error = _build(path)
    assert verdict == "accept", error
    baseline = {name: _snapshot_map(m) for name, m in prog.maps.items()}

    for seed in range(DIFFERENTIAL_INPUTS):
        packet = _make_packet(random.Random(f"{path.stem}/{seed}"))
        outcomes = []
        for engine in (Interpreter(prog.insns), prog._jit):
            for name, map_obj in prog.maps.items():
                _restore_map(map_obj, baseline[name])
            hctx = prog.make_context(
                packet, clock_ns=_make_clock(), rng=random.Random(seed)
            )
            hctx.helper_trace = []
            ret = engine.run(hctx, hctx.skb.ctx_addr, hctx.skb.stack_top)
            outcomes.append(
                (
                    ret,
                    tuple(hctx.helper_trace),
                    tuple(hctx.trace_log),
                    {n: _dump_map(m) for n, m in prog.maps.items()},
                    hctx.mem.read_bytes(hctx.skb.ctx_addr, CTX_SIZE),
                )
            )
        vm_out, jit_out = outcomes
        assert vm_out == jit_out, (
            f"{path.stem}: engines diverged on seed {seed}"
        )
