"""The verifier's ProgramFacts are sound: a run never does what the facts rule out.

``CompiledHandler.arm`` skips the resets, and ``run_attached`` the
read-backs, that a program's :class:`~repro.ebpf.verifier.ProgramFacts`
say it cannot observe — so every context field the interpreter actually
loads or stores, and every helper it actually calls, must be inside
``ctx_reads`` / ``ctx_writes`` / ``helpers``, and a run that touches the
stack needs ``touches_stack``.  Checked over the ``test_fuzz`` easm
stream (with context loads and stores mixed in) and over every accepted
corpus and library program on seeded packets; the run's ``Memory`` records
the accesses and its ``helper_trace`` the calls.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.ebpf import Program, VerifierError, isa
from repro.ebpf.context import CTX_SIZE
from repro.ebpf.errors import AsmError, BpfError, VmFault
from repro.ebpf.helpers import HELPER_IDS_BY_NAME
from repro.ebpf.memory import CTX_BASE, STACK_BASE
from repro.net import make_srv6_udp_packet, make_udp_packet
from repro.progs import dm_config_value, wrr_config_value
from repro.progs.library import ASM_DIR
from test_fuzz import _EASM_PROLOGUE, _easm_line

CORPUS_DIR = Path(__file__).parent / "ebpf" / "corpus"
PROGRAMS = [p for p in sorted(CORPUS_DIR.glob("*.s")) if not p.stem.startswith("rej_")]
PROGRAMS += sorted(ASM_DIR.glob("*.s"))

SRV6 = bytes(make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, bytes(64)).data)
PLAIN = bytes(make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, bytes(64)).data)


def observe(prog: Program, packet: bytes, hook: str | None = None):
    """(helper ids called, ctx offsets loaded, ctx offsets stored, stack touched) of one run."""
    hctx = prog.make_context(packet, clock_ns=lambda: 42, rng=random.Random(7))
    hctx.hook = hook
    hctx.helper_trace = []
    mem = hctx.mem
    reads, writes, stack = set(), set(), []
    load, store = mem.load, mem.store

    def note(addr: int, into: set) -> None:
        if CTX_BASE <= addr < CTX_BASE + CTX_SIZE:
            into.add(addr - CTX_BASE)
        elif STACK_BASE <= addr < STACK_BASE + isa.STACK_SIZE:
            stack.append(addr)

    def traced_load(addr, size):
        note(addr, reads)
        return load(addr, size)

    def traced_store(addr, size, value):
        note(addr, writes)
        store(addr, size, value)

    mem.load, mem.store = traced_load, traced_store
    try:
        prog._interp.run(hctx, hctx.skb.ctx_addr, hctx.skb.stack_top)
    except (VmFault, BpfError):
        pass  # a helper refused: what ran before it still counts
    helpers = {HELPER_IDS_BY_NAME[name] for name, _args, _ret in hctx.helper_trace}
    return helpers, reads, writes, bool(stack)


def assert_covered(prog: Program, observed) -> None:
    helpers, reads, writes, stack = observed
    facts = prog.facts
    assert helpers <= facts.helpers, (helpers, facts)
    assert reads <= facts.ctx_reads, (reads, facts)
    assert writes <= facts.ctx_writes, (writes, facts)
    assert facts.touches_stack or not stack, facts


# --- the corpus and the library, on seeded packets ---------------------------------


@pytest.mark.parametrize("path", PROGRAMS, ids=[p.stem for p in PROGRAMS])
def test_facts_cover_what_corpus_and_library_runs_do(path):
    text = path.read_text()
    prog = Program(text, name=path.stem)
    if "wrr_config" in prog.maps:
        prog.maps["wrr_config"].update(bytes(4), wrr_config_value("fc00:7::d0", "fc00:7::d1", 3, 2))
    if "dm_config" in prog.maps:
        prog.maps["dm_config"].update(bytes(4), dm_config_value("fc00:e::100", "fc00:c::1", 9000, 0, 1))
    hook = re.search(r"^\s*\.hook\s+(\w+)", text, re.M)
    hook = "lwt_out" if hook and hook.group(1) == "lwt" else "seg6local"
    rng = random.Random(path.stem)
    noise = [b"\x60" + bytes(rng.getrandbits(8) for _ in range(rng.randint(39, 190))) for _ in range(14)]
    for packet in [SRV6, PLAIN, *noise]:
        assert_covered(prog, observe(prog, packet, hook))


# --- the easm fuzz stream, with context traffic mixed in ----------------------------

# r9 keeps the context: the stream's other lines may still clobber it, and
# a program that then dereferences a scalar is a reject, as it should be.
_CTX_PROLOGUE = ["r9 = r1"] + [line for line in _EASM_PROLOGUE if not line.startswith("r9 ")]
_CTX_FIELDS = [("u32", 0), ("u32", 4), ("u32", 8), ("u32", 12), ("u64", 16), ("u64", 24)]
_CTX_FIELDS += [("u64", 32 + 8 * i) for i in range(5)]
_WRITABLE = [("u32", 8)] + _CTX_FIELDS[6:]
_VALUE = st.one_of(st.sampled_from([f"r{i}" for i in range(9)]), st.integers(0, 1000).map(str))

_ctx_line = st.one_of(
    st.tuples(st.integers(0, 8), st.sampled_from(_CTX_FIELDS)).map(
        lambda t: f"r{t[0]} = *({t[1][0]} *)(r9 + {t[1][1]})"
    ),
    st.tuples(st.sampled_from(_WRITABLE), _VALUE).map(lambda t: f"*({t[0][0]} *)(r9 + {t[0][1]}) = {t[1]}"),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(_easm_line, _ctx_line, _ctx_line), min_size=1, max_size=30))
def test_facts_cover_what_fuzzed_runs_do(lines):
    source = "\n".join(f"    {line}" for line in (*_CTX_PROLOGUE, *lines))
    source += "\nout:\n    r0 = 0\n    exit"
    try:
        prog = Program(source, name="fuzz", jit=False)
    except (VerifierError, AsmError, BpfError):
        return  # rejected — nothing ran, nothing to cover
    assert_covered(prog, observe(prog, PLAIN))
