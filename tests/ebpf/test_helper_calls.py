"""One helper calling convention: exact arity, one trace from either engine.

A helper takes exactly its own arguments.  The interpreter passes
``len(helper.args)`` registers, and the JIT emits ``_hN(hctx, r1, ..., rk)``
and binds the helper's plain function unless the invocation traces, which
its prologue decides once.  Over every corpus and library program that
calls a helper, on seeded packets of every shape:

* the interpreter and the JIT leave the same helper trace, and each
  ``(name, args, ret)`` entry carries exactly its helper's arity;
* a JIT run with tracing on and one with tracing off return the same
  ``r0`` and leave the same packet bytes and map contents.
"""

from __future__ import annotations

import random

import pytest

from repro.ebpf.errors import BpfError
from repro.ebpf.helpers import HELPER_IDS_BY_NAME, HELPERS_BY_ID
from repro.ebpf.vm import Interpreter
from repro.net import Packet, make_controller_tlv, make_dm_tlv, make_srh, make_udp_packet, push_outer_encap
from test_corpus import _dump_map, _make_clock, _restore_map, _snapshot_map
from test_handler_differential import PROGRAMS, SEG, SINK, _attach_point, _load, _node, _packet

PACKETS = 25

CALLERS = [
    pytest.param(name, text, id=name)
    for name, text in PROGRAMS
    if _load(name, text, jit=True).facts.helpers
]


def _any_packet(rng: random.Random, index: int) -> bytes:
    """The differential's four shapes, and every fifth packet a §4.1 DM probe (OWD or TWD)."""
    if index % 5 != 4:
        return _packet(rng, index)
    tlvs = [make_dm_tlv(rng.getrandbits(64), kind=index % 2), make_controller_tlv("fc00:c::1", 9000)]
    plain = make_udp_packet("fc00:1::1", SINK, 4000 + index, 5201, bytes(16)).data
    return push_outer_encap(plain, bytes(16), make_srh([SEG, SINK], next_header=41, tlvs=tlvs))


def _run(prog, engine, raw: bytes, hook: str, node, seed: int, traced: bool):
    """One fresh-context run; (r0 or the fault, trace, printk log, packet bytes)."""
    hctx = prog.make_context(raw, clock_ns=_make_clock(), rng=random.Random(seed))
    hctx.hook, hctx.node = hook, node
    hctx.packet = Packet(raw, rx_tstamp_ns=seed)
    hctx.helper_trace = [] if traced else None
    try:
        ret = engine.run(hctx, hctx.skb.ctx_addr, hctx.skb.stack_top)
    except BpfError as exc:
        ret = f"{type(exc).__name__}: {exc}"
    trace = None if hctx.helper_trace is None else tuple(hctx.helper_trace)
    return ret, trace, tuple(hctx.trace_log), bytes(hctx.skb.packet_region.data)


@pytest.mark.parametrize("name, text", CALLERS)
def test_engines_trace_the_same_exact_arity_calls(name, text):
    prog = _load(name, text, jit=True)
    hook = _attach_point(text)
    node = _node("A", lambda: 0, 1)
    rng = random.Random(name.removeprefix("library_"))
    calls = 0
    for index in range(PACKETS):
        raw = _any_packet(rng, index)
        baseline = {n: _snapshot_map(m) for n, m in prog.maps.items()}
        outcomes = {}
        for run, engine, traced in (
            ("vm", Interpreter(prog.insns), True),
            ("jit", prog._jit, True),
            ("jit_untraced", prog._jit, False),
        ):
            for n, m in prog.maps.items():
                _restore_map(m, baseline[n])
            result = _run(prog, engine, raw, hook, node, index, traced)
            outcomes[run] = result, {n: _dump_map(m) for n, m in prog.maps.items()}

        (vm, vm_maps), (jit, jit_maps) = outcomes["vm"], outcomes["jit"]
        assert (vm, vm_maps) == (jit, jit_maps), index
        for name, args, _ret in jit[1]:
            assert len(args) == len(HELPERS_BY_ID[HELPER_IDS_BY_NAME[name]].args), (name, args)
        calls += len(jit[1])

        quiet, quiet_maps = outcomes["jit_untraced"]
        assert quiet[1] is None  # nothing was traced
        assert (quiet[0], quiet[2:], quiet_maps) == (jit[0], jit[2:], jit_maps), index
    assert calls, f"{name} called no helper on {PACKETS} packets"
