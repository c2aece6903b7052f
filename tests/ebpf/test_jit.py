"""JIT correctness: differential testing against the interpreter."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.net  # noqa: F401  — helper registration
from repro.ebpf import (
    ArrayMap,
    HelperContext,
    JitProgram,
    Memory,
    Program,
    SkbContext,
    isa,
    link,
    parse_asm,
)
from repro.ebpf.vm import Interpreter
from repro.progs import add_tlv_prog, end_prog, tag_increment_prog

PKT = bytes.fromhex("60") + b"\x00" * 63


def run_both(source: str) -> tuple[int, int]:
    """Execute the same bytecode in both engines on fresh contexts."""
    insns = link(parse_asm(source)).insns
    results = []
    for engine in (Interpreter(insns), JitProgram(insns)):
        mem = Memory()
        skb = SkbContext(mem, PKT)
        hctx = HelperContext(mem, skb)
        results.append(engine.run(hctx, skb.ctx_addr, skb.stack_top))
    return tuple(results)


# (case name — the program in bpf_asm mnemonics, as the suite has always
# printed it and the floor list names it —, source)
FIXED_CASES = [
    ("mov r0, 123\nexit", "r0 = 123\nexit"),
    ("mov r0, -1\nadd r0, 1\nexit", "r0 = -1\nr0 += 1\nexit"),
    ("mov r0, 42\ndiv r0, 5\nmod r0, 3\nexit", "r0 = 42\nr0 /= 5\nr0 %= 3\nexit"),
    ("mov r0, 0x1234\nbe16 r0\nexit", "r0 = 0x1234\nr0 = be16 r0\nexit"),
    (
        "lddw r0, 0x0102030405060708\nbe64 r0\nexit",
        "r0 = 0x0102030405060708 ll\nr0 = be64 r0\nexit",
    ),
    ("mov r0, -16\narsh r0, 2\nexit", "r0 = -16\nr0 s>>= 2\nexit"),
    ("mov32 r0, -1\nexit", "w0 = -1\nexit"),
    (
        "mov r1, 5\nstxdw [r10-8], r1\nldxdw r0, [r10-8]\nexit",
        "r1 = 5\n*(u64 *)(r10 - 8) = r1\nr0 = *(u64 *)(r10 - 8)\nexit",
    ),
    (
        "mov r1, 3\njeq r1, 3, y\nmov r0, 0\nexit\ny:\nmov r0, 1\nexit",
        "r1 = 3\nif r1 == 3 goto y\nr0 = 0\nexit\ny:\nr0 = 1\nexit",
    ),
    (
        "mov r1, -1\nmov r2, 1\njsgt r1, r2, y\nmov r0, 0\nexit\ny:\nmov r0, 9\nexit",
        "r1 = -1\nr2 = 1\nif r1 s> r2 goto y\nr0 = 0\nexit\ny:\nr0 = 9\nexit",
    ),
    ("ldxw r0, [r1+0]\nexit", "r0 = *(u32 *)(r1 + 0)\nexit"),  # ctx len
]


@pytest.mark.parametrize(
    "source", [pytest.param(source, id=name) for name, source in FIXED_CASES]
)
def test_differential_fixed_cases(source):
    interp, jit = run_both(source)
    assert interp == jit


_ALU_OPS = ["+", "-", "*", "/", "|", "&", "<<", ">>", "%", "^", "s>>"]


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(_ALU_OPS),
            st.booleans(),  # 32-bit?
            st.integers(0, 4),  # dst in r0..r4
            st.integers(-(1 << 31), (1 << 31) - 1),
        ),
        min_size=1,
        max_size=25,
    ),
    seeds=st.lists(st.integers(-(1 << 31), (1 << 31) - 1), min_size=5, max_size=5),
)
def test_differential_random_alu_programs(ops, seeds):
    """Random straight-line ALU programs behave identically in both engines."""
    lines = [f"r{i} = {seed}" for i, seed in enumerate(seeds)]
    for op, is32, dst, imm in ops:
        if op in ("/", "%") and imm == 0:
            imm = 1
        lines.append(f"{'w' if is32 else 'r'}{dst} {op}= {imm}")
    lines += ["r0 = r0", "exit"]
    interp, jit = run_both("\n".join(lines))
    assert interp == jit


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(0, isa.U64),
    b=st.integers(0, isa.U64),
    op=st.sampled_from(["==", "!=", ">", ">=", "<", "<=", "s>", "s>=", "s<", "s<=", "&"]),
    is32=st.booleans(),
)
def test_differential_comparisons(a, b, op, is32):
    reg = "w" if is32 else "r"
    source = f"""
    r1 = {a:#x} ll
    r2 = {b:#x} ll
    if {reg}1 {op} {reg}2 goto y
    r0 = 0
    exit
    y:
    r0 = 1
    exit
    """
    interp, jit = run_both(source)
    assert interp == jit


@pytest.mark.parametrize("order", ["be", "le"])
@pytest.mark.parametrize("width", [16, 32, 64])
@pytest.mark.parametrize(
    "value", [0x0102030405060708, 0xFFFFFFFFFFFFFFFF, 0x8000000000008001, 0xA5A5_0000_1234_00FF]
)
def test_byte_swap_truncates_a_wider_operand_to_its_width(value, width, order):
    """One ``be`` / ``le`` instruction on a register wider than its width."""
    interp, jit = run_both(f"r0 = {value:#x} ll\nr0 = {order}{width} r0\nexit")
    low = value & ((1 << width) - 1)
    expected = int.from_bytes(low.to_bytes(width // 8, "little"), "big") if order == "be" else low
    assert interp == jit == expected


def _run_paper_prog(prog: Program, packet: bytes) -> tuple[int, bytes]:
    hctx = prog.make_context(packet)
    hctx.hook = "seg6local"
    ret = prog.run(hctx)
    return ret, bytes(hctx.skb.packet_region.data)


def test_paper_programs_identical_across_engines():
    """The §3.2 programs produce identical packets under JIT and interpreter."""
    from repro.net import make_srv6_udp_packet

    pkt = make_srv6_udp_packet(
        "fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1234, 5678, b"x" * 64, tag=7
    )
    # Pre-advance the SRH as End.BPF would before the program runs.
    raw = bytes(pkt.data)
    for loader in (end_prog, tag_increment_prog, add_tlv_prog):
        out = []
        for jit in (False, True):
            ret, data = _run_paper_prog(loader(jit=jit), raw)
            out.append((ret, data))
        assert out[0] == out[1], f"engines disagree on {loader.__name__}"


def test_jit_source_is_valid_python():
    jit = JitProgram(link(parse_asm("r0 = 0\nexit")).insns)
    assert "def _ebpf_jitted" in jit.source
    compile(jit.source, "<check>", "exec")


def test_jit_map_program_state_shared_with_interpreter():
    counter = ArrayMap("c", value_size=8, max_entries=1)
    source = """
    *(u32 *)(r10 - 4) = 0
    r1 = c ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r1 = *(u64 *)(r0 + 0)
    r1 += 1
    *(u64 *)(r0 + 0) = r1
    out:
    r0 = 0
    exit
    """
    jit_prog = Program(source, maps={"c": counter}, jit=True)
    interp_prog = Program(source, maps={"c": counter}, jit=False)
    jit_prog.run_on_packet(PKT)
    interp_prog.run_on_packet(PKT)
    assert int.from_bytes(counter.lookup(b"\x00" * 4), "little") == 2


# --- map values: the fourth specialised region -------------------------------


def _wrr():
    from repro.net import Node
    from repro.usecases import install_wrr

    node = Node("A")
    node.add_address("fc00:aa::1")
    handle = install_wrr(node, "fc00:2::/64", "fc00:bb::d0", "fc00:bb::d1", 5, 3)
    return node, handle


def _accesses(prog: Program) -> tuple[list, list]:
    """(load tags, store tags) the verifier recorded, one per access pc."""
    from repro.ebpf import isa
    from repro.ebpf.insn import flatten

    loads, stores = [], []
    for pc, insn in enumerate(flatten(prog.insns)):
        if insn is not None and insn.klass in (isa.BPF_LDX, isa.BPF_ST, isa.BPF_STX):
            (loads if insn.klass == isa.BPF_LDX else stores).append(prog.region_hints[pc])
    return loads, stores


def test_wrr_translation_makes_no_generic_memory_call():
    """Ten map-value load pcs and six store pcs, every one of them specialised."""
    _node, handle = _wrr()
    prog = handle.lwt.prog_out
    loads, stores = _accesses(prog)
    assert sum(type(tag) is tuple for tag in loads) == 10
    assert sum(type(tag) is tuple for tag in stores) == 6
    assert "mixed" not in loads + stores
    assert (prog._jit.region_loads, prog._jit.region_stores) == (len(loads), len(stores))
    source = prog._jit.source
    for generic in ("_load(", "_store(", "mem.load", "mem.store"):
        assert generic not in source
    assert "_values = mem.values" in source


def test_array_lookups_compile_inline_and_other_lookups_keep_the_helper():
    """Linux's ``array_map_gen_lookup``: WRR's two lookups, each hinted with
    its array and the key at fp-4, become a bounds check and an index with
    no ``map_lookup_elem`` call left; the corpus's hash and LPM lookups
    call the helper."""
    from pathlib import Path

    prog = _wrr()[1].lwt.prog_out
    hints = [tag for tag in prog.region_hints.values() if tag[0] == "map_key"]
    assert [(type(m), key_off, base) for _tag, m, key_off, base in hints] == [
        (ArrayMap, -4, base) for base in prog.value_bases.values()
    ]
    source = prog._jit.source
    assert source.count("_k = _lu32(_stkd, 508)[0]") == 2
    assert "_h1" not in source
    corpus = Path(__file__).parent / "corpus"
    for name in ("map_hash", "map_lpm"):
        hashed = link(parse_asm((corpus / f"{name}.s").read_text())).load(name=name)
        assert "_h1(hctx, r1, r2)" in hashed._jit.source and "_k =" not in hashed._jit.source


def test_unverified_translation_of_the_same_program_runs_through_memory():
    from repro.net import make_udp_packet

    node, handle = _wrr()
    prog = handle.lwt.prog_out
    raw = JitProgram(prog.insns)  # no verifier proof: nothing to trust
    assert "_load = mem.load" in raw.source and "_store = mem.store" in raw.source
    assert "_values" not in raw.source

    packet = bytes(make_udp_packet("fc00:1::1", "fc00:2::2", 40000, 5201, bytes(64)).data)
    outcomes = []
    for engine in (prog._jit, raw, Interpreter(prog.insns)):
        handle.state.update(bytes(4), bytes(16))
        hctx = prog.make_context(packet)
        hctx.node, hctx.hook = node, "lwt_out"
        ret = engine.run(hctx, hctx.skb.ctx_addr, hctx.skb.stack_top)
        outcomes.append((ret, bytes(hctx.skb.packet_region.data), handle.state.lookup(bytes(4))))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert len(outcomes[0][1]) == len(packet) + 64


def test_load_reached_with_two_value_offsets_stays_generic():
    """``map_value_paths.s``: one pc, offsets 0 and 4 — ``mixed``, one ``_load(``."""
    from pathlib import Path

    from repro.ebpf import link, parse_asm

    path = Path(__file__).parent / "corpus" / "map_value_paths.s"
    prog = link(parse_asm(path.read_text())).load(name=path.stem)
    loads, stores = _accesses(prog)
    assert loads.count("mixed") == 1 and "mixed" not in stores
    assert {("map_value", 15), ("map_value", 14), ("map_value", 12), ("map_value", 8)} <= set(loads)
    assert prog._jit.source.count("_load(") == 1
    assert "_store" not in prog._jit.source


def test_map_value_only_specialisation_needs_no_skb():
    """Value buffers come from ``mem``: a bare context runs the specialised function."""
    from repro.ebpf import Memory
    from repro.ebpf.helpers import HelperContext

    mem = Memory()
    addr = mem.map_value(0x1000_0000, bytearray((7).to_bytes(8, "little")))
    insns = link(parse_asm("r0 = *(u64 *)(r1 + 0)\nexit")).insns
    jitp = JitProgram(insns, regions={0: ("map_value", 0)})
    assert "_skb" not in jitp.source and "_load" not in jitp.source
    assert jitp.run(HelperContext(mem), addr, 0) == 7


def test_jit_is_faster_than_interpreter():
    """The central premise of the §3.2 JIT experiment."""
    import timeit

    from repro.net import make_srv6_udp_packet

    pkt = bytes(
        make_srv6_udp_packet(
            "fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, b"x" * 64
        ).data
    )
    jit_prog = tag_increment_prog(jit=True)
    interp_prog = tag_increment_prog(jit=False)

    def run_once(prog):
        hctx = prog.make_context(pkt)
        hctx.hook = "seg6local"
        prog.run(hctx)

    def bench(prog):
        return timeit.timeit(lambda: run_once(prog), number=300)

    bench(jit_prog), bench(interp_prog)  # warm up
    assert bench(jit_prog) < bench(interp_prog)
