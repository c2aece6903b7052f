"""Robustness fuzzing: the safety contracts the paper depends on.

Two invariants matter most for a system that runs operator-supplied code
in the forwarding path (§3: eBPF code cannot compromise the kernel):

1. **Verified programs never fault.**  Whatever the verifier accepts
   must execute without memory faults in both engines, and both engines
   must agree on the result.
2. **Parsers never crash on wire garbage.**  Malformed SRHs, TLVs and
   headers raise clean ``ValueError``s (and the datapath drops), never
   arbitrary exceptions.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.net  # noqa: F401
from repro.ebpf import (
    HelperContext,
    JitProgram,
    Memory,
    Program,
    SkbContext,
    VerifierError,
    disassemble,
    encode_program,
    parse_asm,
)
from repro.ebpf.errors import AsmError, BpfError
from repro.ebpf.vm import Interpreter
from repro.net import IPv6Header, Packet, SRH, validate_srh_bytes
from repro.net.srh import parse_tlvs

PKT = b"\x60" + b"\x00" * 63


# --- random-program construction ---------------------------------------------

_REGS = [f"r{i}" for i in range(10)]
_SIZES = ["u64", "u32", "u16", "u8"]


def _stack(size: str, off: int) -> str:
    return f"*({size} *)(r10 {'-' if off < 0 else '+'} {abs(off)})"


def _closes_the_loop(source: str) -> None:
    """``disassemble`` prints what ``parse_asm`` reads, byte for byte."""
    (section,) = parse_asm(source).sections.values()
    (again,) = parse_asm(disassemble(section.items)).sections.values()
    assert encode_program(again.items) == encode_program(section.items)


_line = st.one_of(
    st.tuples(
        st.sampled_from(["=", "+=", "-=", "*=", "/=", "|=", "&=", "^=",
                         "<<=", ">>=", "s>>=", "%="]),
        st.sampled_from(_REGS),
        st.one_of(st.sampled_from(_REGS), st.integers(-1000, 1000)),
    ).map(lambda t: f"{t[1]} {t[0]} {t[2]}"),
    st.tuples(
        st.sampled_from(_SIZES),
        st.sampled_from(_REGS),
        st.integers(-64, 8),
    ).map(lambda t: f"{t[1]} = {_stack(t[0], t[2])}"),
    st.tuples(
        st.sampled_from(_SIZES),
        st.integers(-64, 8),
        st.sampled_from(_REGS),
    ).map(lambda t: f"{_stack(t[0], t[1])} = {t[2]}"),
    st.tuples(
        st.sampled_from(["==", "!=", ">", "<", "s>", "s<"]),
        st.sampled_from(_REGS),
        st.integers(-100, 100),
    ).map(lambda t: f"if {t[1]} {t[0]} {t[2]} goto out"),
    st.sampled_from(["call ktime_get_ns", "call get_prandom_u32", "r1 = be16 r1",
                     "r2 = be32 r2", "r3 = le64 r3", "r4 = -r4"]),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_line, min_size=1, max_size=30))
def test_verified_programs_never_fault(lines):
    """Anything the verifier accepts runs cleanly and deterministically."""
    source = "\n".join(lines) + "\nout:\nr0 = 0\nexit"
    _closes_the_loop(source)
    try:
        prog = Program(source, jit=False)
    except (VerifierError, AsmError, BpfError):
        return  # rejected — also a correct outcome
    # Accepted: must run without faulting in both engines and agree.
    import random

    results = []
    for engine in (Interpreter(prog.insns), JitProgram(prog.insns)):
        mem = Memory()
        skb = SkbContext(mem, PKT)
        hctx = HelperContext(mem, skb, clock_ns=lambda: 42, rng=random.Random(1))
        results.append(engine.run(hctx, skb.ctx_addr, skb.stack_top))
    assert results[0] == results[1]


# --- same property from known-scalar registers, helper traces compared --------

_EASM_REGS = [f"r{i}" for i in range(10)]
_EASM_WREGS = [f"w{i}" for i in range(10)]

# A prologue makes every register a known scalar and initialises the
# stack window the generated loads touch, so most samples *verify* and
# the differential property gets real coverage instead of 99% rejects.
_EASM_PROLOGUE = [f"r{i} = {i + 1}" for i in range(10)] + [
    f"*(u64 *)(r10 - {off}) = r{off % 8}" for off in range(8, 72, 8)
]

_easm_line = st.one_of(
    # alu64 / alu32 compound assignments and moves
    st.tuples(
        st.sampled_from(["=", "+=", "-=", "*=", "&=", "|=", "^="]),
        st.sampled_from(_EASM_REGS),
        st.one_of(st.sampled_from(_EASM_REGS), st.integers(-1000, 1000)),
    ).map(lambda t: f"{t[1]} {t[0]} {t[2]}"),
    # shifts stay in range; div/mod immediates stay non-zero (a zero
    # immediate is a verifier reject — covered by the corpus instead)
    st.tuples(
        st.sampled_from(["<<=", ">>=", "s>>="]),
        st.sampled_from(_EASM_REGS),
        st.integers(0, 63),
    ).map(lambda t: f"{t[1]} {t[0]} {t[2]}"),
    st.tuples(
        st.sampled_from(["/=", "%="]),
        st.sampled_from(_EASM_REGS),
        st.one_of(st.sampled_from(_EASM_REGS), st.integers(1, 1000)),
    ).map(lambda t: f"{t[1]} {t[0]} {t[2]}"),
    st.tuples(
        st.sampled_from(["=", "+=", "&="]),
        st.sampled_from(_EASM_WREGS),
        st.one_of(st.sampled_from(_EASM_WREGS), st.integers(0, 1000)),
    ).map(lambda t: f"{t[1]} {t[0]} {t[2]}"),
    # stack traffic
    st.tuples(
        st.sampled_from(["u8", "u16", "u32", "u64"]),
        st.integers(-64, -8),
        st.sampled_from(_EASM_REGS),
    ).map(lambda t: f"{_stack(t[0], t[1])} = {t[2]}"),
    st.tuples(
        st.sampled_from(["u8", "u16", "u32", "u64"]),
        st.sampled_from(_EASM_REGS),
        st.integers(-64, -8),
    ).map(lambda t: f"{t[1]} = {_stack(t[0], t[2])}"),
    # branches, swaps, negation, helpers
    st.tuples(
        st.sampled_from(["==", "!=", ">", "<", "s>", "s<", "&"]),
        st.sampled_from(_EASM_REGS),
        st.integers(-100, 100),
    ).map(lambda t: f"if {t[1]} {t[0]} {t[2]} goto out"),
    st.sampled_from([
        "r1 = be16 r1", "r2 = be32 r2", "r3 = le64 r3", "r4 = -r4",
        "call ktime_get_ns", "call get_prandom_u32", "call get_smp_processor_id",
    ]),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_easm_line, min_size=1, max_size=30))
def test_easm_programs_agree_across_engines_including_helper_traces(lines):
    """load_text acceptances run identically on VM and JIT — return value,
    helper-call trace (name, args, ret) and printk log all match."""
    from repro.ebpf.text import load_text

    source = "\n".join(f"    {line}" for line in (*_EASM_PROLOGUE, *lines))
    source += "\nout:\n    r0 = 0\n    exit"
    _closes_the_loop(source)
    try:
        prog = load_text(source, name="fuzz", jit=True)
    except (VerifierError, AsmError, BpfError):
        return  # rejected — also a correct outcome
    import random

    outcomes = []
    for engine in (prog._interp, prog._jit):
        hctx = prog.make_context(
            PKT, clock_ns=lambda: 42, rng=random.Random(7)
        )
        hctx.helper_trace = []
        ret = engine.run(hctx, hctx.skb.ctx_addr, hctx.skb.stack_top)
        outcomes.append((ret, tuple(hctx.helper_trace), tuple(hctx.trace_log)))
    vm_out, jit_out = outcomes
    assert vm_out == jit_out
    # Helper calls were actually traced when the source contains any.
    if any(line.startswith("call") for line in lines) and vm_out[1]:
        name, args, ret = vm_out[1][0]
        assert isinstance(name, str) and isinstance(args, tuple)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=120))
def test_srh_parser_never_crashes(data):
    try:
        srh = SRH.parse(data)
    except ValueError:
        return
    # Successfully parsed SRHs re-serialise to the bytes they came from.
    assert srh.pack() == data[: srh.wire_len]


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=60))
def test_tlv_parser_never_crashes(data):
    try:
        tlvs = parse_tlvs(data)
    except ValueError:
        return
    assert sum(t.wire_len for t in tlvs) == len(data)


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=80))
def test_ipv6_parser_never_crashes(data):
    try:
        header = IPv6Header.parse(data)
    except ValueError:
        return
    assert header.pack() == data[:40]


@settings(max_examples=200, deadline=None)
@given(data=st.binary(min_size=40, max_size=200))
def test_datapath_survives_wire_garbage(data):
    """A router fed arbitrary bytes must drop or forward, never raise."""
    node = repro.net.Node("F")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00::1")
    node.add_route("::/0", via="fc00::2", dev="eth1")
    node.receive(Packet(data), node.devices["eth0"])


@settings(max_examples=150, deadline=None)
@given(data=st.binary(min_size=40, max_size=200))
def test_end_bpf_survives_wire_garbage(data):
    """Garbage routed into an End.BPF segment is handled cleanly."""
    from repro.net import EndBPF, SEG6LOCAL_HELPERS
    from repro.progs import tag_increment_prog

    node = repro.net.Node("F")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00::1")
    node.add_route("::/0", encap=EndBPF(tag_increment_prog()))
    node.receive(Packet(data), node.devices["eth0"])


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=150))
def test_validate_srh_bytes_never_crashes(data):
    try:
        validate_srh_bytes(data)
    except ValueError:
        pass
