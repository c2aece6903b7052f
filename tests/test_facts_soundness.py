"""The verifier's ProgramFacts are sound: a run never does what the facts rule out.

``seg6local.run_attached`` skips the resets and the read-backs that a
program's :class:`~repro.ebpf.verifier.ProgramFacts` say it cannot
observe — so every context field the interpreter actually
loads or stores, and every helper it actually calls, must be inside
``ctx_reads`` / ``ctx_writes`` / ``helpers``, and a run that touches the
stack needs ``touches_stack``.  Checked over the ``test_fuzz`` easm
stream (with context loads and stores mixed in) and over every accepted
corpus and library program on seeded packets; the run's ``Memory`` records
the accesses and its ``helper_trace`` the calls.

The JIT trusts the verifier's map-value region tags the same way, so
generated programs with array-map lookups (keys in range, equal to
``max_entries`` or computed) check that every value access lands inside
the value looked up, at an offset the verifier tagged, and that both
engines agree on the return, helper trace, map contents and packet.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.ebpf import Program, VerifierError, isa
from repro.ebpf.context import CTX_SIZE, SkbContext
from repro.ebpf.errors import AsmError, BpfError, MapError, VmFault
from repro.ebpf.helpers import HELPER_IDS_BY_NAME
from repro.ebpf.maps import ArrayMap
from repro.ebpf.memory import CTX_BASE, MAP_PTR_BASE, MAP_VALUE_BASE, STACK_BASE
from repro.ebpf.vm import Interpreter
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
        Interpreter(prog.insns).run(hctx, hctx.skb.ctx_addr, hctx.skb.stack_top)
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


# --- array-map lookups: where the tagged value accesses land, and VM ≡ JIT ----------

# Two arrays of different shapes; a generated program looks one of them
# up per block, with a key in range, equal to max_entries or computed.
_ARRAYS = {"a": (12, 3), "b": (24, 1)}  # name -> (value_size, max_entries)
_ARRAY_DECLS = "\n".join(
    f".map {name}, array, key=4, value={size}, entries={entries}"
    for name, (size, entries) in _ARRAYS.items()
)
_KEY_LINES = {
    "len": ["r3 = *(u32 *)(r6 + 0)", "r3 %= 5"],  # PLAIN is 112 bytes: key 2
    "draw": ["call get_prandom_u32", "r3 = r0", "r3 &= 3"],
}


@st.composite
def _lookup_block(draw):
    name = draw(st.sampled_from(sorted(_ARRAYS)))
    size, entries = _ARRAYS[name]
    key = draw(st.one_of(st.integers(0, entries - 1), st.just(entries), st.sampled_from(sorted(_KEY_LINES))))
    shift = draw(st.integers(0, size - 1))  # r8 = value + shift
    accesses = []
    for width, store in draw(st.lists(st.tuples(st.sampled_from([1, 2, 4, 8]), st.booleans()), max_size=4)):
        at = draw(st.integers(0, size - width))  # offset inside the value
        accesses.append((width, at - shift, store))
    return name, key, shift, accesses


def _lookup_source(blocks) -> str:
    lines = [_ARRAY_DECLS, "    r6 = r1", "    r7 = 0"]
    for i, (name, key, shift, accesses) in enumerate(blocks):
        lines += [f"    {line}" for line in (_KEY_LINES[key] if type(key) is str else [f"r3 = {key}"])]
        lines += [
            "    *(u32 *)(r10 - 4) = r3",
            f"    r1 = {name} ll",
            "    r2 = r10",
            "    r2 += -4",
            "    call map_lookup_elem",
            f"    if r0 == 0 goto skip{i}",
            "    r8 = r0",
            f"    r8 += {shift}",
        ]
        for width, off, store in accesses:
            site = f"*(u{8 * width} *)(r8 {'-' if off < 0 else '+'} {abs(off)})"
            lines += ["    r7 += 3", f"    {site} = r7"] if store else [f"    r4 = {site}", "    r7 += r4"]
        lines.append(f"skip{i}:")
    return "\n".join(lines + ["    r0 = r7", "    exit"])


def _map_state(prog: Program) -> dict:
    return {name: [bytes(m.lookup(key)) for key in m.keys()] for name, m in sorted(prog.maps.items())}


def _set_map_state(prog: Program, state: dict) -> None:
    for name, values in state.items():
        for key, value in zip(prog.maps[name].keys(), values):
            prog.maps[name].update(key, value)


def run_both(prog: Program, packet: bytes = PLAIN):
    """Each engine from the same map contents and a fresh context: (return,
    helper trace, map contents, packet), and the VM's value-range accesses."""
    before = _map_state(prog)
    outcomes, accesses = [], []
    interp = Interpreter(prog.insns)
    for engine in (interp, prog._jit):
        _set_map_state(prog, before)
        hctx = prog.make_context(packet, rng=random.Random(3))
        hctx.helper_trace = []
        if engine is interp:
            mem = hctx.mem
            load, store = mem.load, mem.store

            def traced_load(addr, size, load=load):
                accesses.append((addr, size))
                return load(addr, size)

            def traced_store(addr, size, value, store=store):
                accesses.append((addr, size))
                store(addr, size, value)

            mem.load, mem.store = traced_load, traced_store
        ret = engine.run(hctx, hctx.skb.ctx_addr, hctx.skb.stack_top)
        outcomes.append((ret, tuple(hctx.helper_trace), _map_state(prog), bytes(hctx.skb.packet_region.data)))
    return outcomes, [(addr, size) for addr, size in accesses if MAP_VALUE_BASE <= addr < MAP_PTR_BASE]


@settings(max_examples=150, deadline=None)
@given(blocks=st.lists(_lookup_block(), min_size=1, max_size=3))
def test_array_lookups_land_where_the_verifier_says_and_engines_agree(blocks):
    prog = Program(_lookup_source(blocks), name="lookups")
    tagged = {tag[1] for tag in prog.region_hints.values() if type(tag) is tuple and tag[0] == "map_value"}
    (vm, jit), accesses = run_both(prog)
    assert vm == jit
    looked_up = [
        (ret, prog.maps_by_addr[args[0]].value_size)
        for name, args, ret in vm[1]
        if name == "map_lookup_elem" and ret
    ]
    for addr, size in accesses:
        assert any(
            base <= addr and addr + size <= base + value_size and addr - base in tagged
            for base, value_size in looked_up
        ), (hex(addr), size, looked_up, tagged)


def _lookup_calls(prog: Program) -> list[str]:
    """The translated lines that call the map_lookup_elem helper."""
    return [line for line in prog._jit.source.splitlines() if "_h1(hctx, r1, r2)" in line]


ONE_LOOKUP = """
{decls}
    *(u32 *)(r10 - 4) = {key}
    r1 = m ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r1 = *(u64 *)(r0 + 0)
    r1 += 1
    *(u64 *)(r0 + 0) = r1
    r0 = r1
    exit
out:
    r0 = 99
    exit
"""


def test_a_zero_entry_array_is_refused_and_its_bound_returns_null():
    """Linux refuses ``max_entries == 0`` at map creation, and so does ArrayMap;
    a one-entry array shrunk to none after creation shows the lookup's bound
    comes from the map: every key, 0 included, finds nothing in both engines."""
    with pytest.raises(MapError, match="max_entries must be positive"):
        ArrayMap("zero", value_size=8, max_entries=0)
    empty = ArrayMap("m", value_size=8, max_entries=1)
    empty.max_entries, empty._values = 0, []
    prog = Program(ONE_LOOKUP.format(decls="", key=0), maps={"m": empty}, name="zero")
    (vm, jit), _ = run_both(prog)
    assert vm == jit and vm[0] == 99
    assert vm[1] == (("map_lookup_elem", (MAP_PTR_BASE, SkbContext.stack_top - 4), 0),)


def test_a_call_reached_with_two_maps_keeps_the_helper():
    """Like the kernel's poisoned map pointer: one call pc, two arrays."""
    source = """
.map a, array, key=4, value=8, entries=2
.map b, array, key=4, value=8, entries=2
    *(u32 *)(r10 - 4) = 1
    call get_prandom_u32
    r1 = a ll
    if r0 & 1 goto look
    r1 = b ll
look:
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r1 = *(u64 *)(r0 + 0)
    r1 += 5
    *(u64 *)(r0 + 0) = r1
out:
    r0 = 0
    exit
"""
    prog = Program(source, name="two_maps")
    assert len(_lookup_calls(prog)) == 1
    for seed in range(4):  # both maps get looked up
        (vm, jit), _ = run_both(prog)
        assert vm == jit
        prog.maps["a"].update(bytes(4), (seed + 1).to_bytes(8, "little"))


def test_a_hash_lookup_keeps_the_helper():
    decls = ".map m, hash, key=4, value=8, entries=4"
    prog = Program(ONE_LOOKUP.format(decls=decls, key=2), name="hash")
    assert len(_lookup_calls(prog)) == 1
    prog.maps["m"].update((2).to_bytes(4, "little"), (41).to_bytes(8, "little"))
    (vm, jit), _ = run_both(prog)
    assert vm == jit and vm[0] == 42


def test_a_traced_array_lookup_records_one_entry_in_both_engines():
    decls = ".map m, array, key=4, value=8, entries=3"
    prog = Program(ONE_LOOKUP.format(decls=decls, key=2), name="traced")
    (vm, jit), _ = run_both(prog)
    assert vm == jit and vm[0] == 1
    base = prog.value_bases[MAP_PTR_BASE]
    assert vm[1] == (("map_lookup_elem", (MAP_PTR_BASE, SkbContext.stack_top - 4), base + 2 * 8),)
