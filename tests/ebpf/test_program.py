"""Program loading: relocation, engines, stats."""

import pytest

from repro.ebpf import ArrayMap, LinkError, Program, VerifierError
from repro.ebpf.helpers import map_handle_addr

PKT = b"\x60" + b"\x00" * 39

COUNTER_PROG = """
    *(u32 *)(r10 - 4) = 0
    r1 = m ll
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


def test_relocation_sets_map_handle():
    m = ArrayMap("m", value_size=8, max_entries=1)
    prog = Program(COUNTER_PROG, maps={"m": m})
    lddw = next(insn for insn in prog.insns if insn.is_lddw)
    assert lddw.imm64 == map_handle_addr(m)
    assert prog.maps_by_addr[map_handle_addr(m)] is m


def test_unknown_map_reference_raises():
    with pytest.raises(LinkError, match="undefined map symbol 'm'"):
        Program(COUNTER_PROG)  # no maps supplied


def test_load_runs_verifier():
    with pytest.raises(VerifierError):
        Program("r0 = r7\nexit")


def test_program_accepts_prebuilt_instructions():
    from repro.ebpf import link, parse_asm

    insns = link(parse_asm("r0 = 4\nexit")).insns
    prog = Program(insns)
    assert prog.run_on_packet(PKT)[0] == 4


def test_stats_accumulate():
    prog = Program("r0 = 0\nexit")
    for _ in range(3):
        prog.run_on_packet(PKT)
    assert prog.stats.invocations == 3
    assert prog.stats.last_return == 0


def test_jit_flag_selects_engine():
    jit = Program("r0 = 1\nexit", jit=True)
    interp = Program("r0 = 1\nexit", jit=False)
    assert jit._jit is not None
    assert interp._jit is None
    assert jit.run_on_packet(PKT)[0] == interp.run_on_packet(PKT)[0] == 1


def test_num_insns_counts_slots():
    prog = Program("r0 = 5 ll\nexit")
    assert prog.num_insns == 3  # lddw takes two slots


def test_allowed_helpers_enforced_at_load():
    with pytest.raises(VerifierError, match="not available"):
        Program("call ktime_get_ns\nexit", allowed_helpers={1})


def test_context_isolated_between_runs():
    # A fresh context per invocation: stack garbage cannot leak.
    prog = Program(
        """
        r0 = *(u32 *)(r1 + 8)
        r2 = 1
        *(u32 *)(r1 + 8) = r2
        exit
        """
    )
    ret1, _ = prog.run_on_packet(PKT, mark=0)
    ret2, _ = prog.run_on_packet(PKT, mark=0)
    assert ret1 == ret2 == 0


def test_map_state_persists_between_runs():
    m = ArrayMap("m", value_size=8, max_entries=1)
    prog = Program(COUNTER_PROG, maps={"m": m})
    for _ in range(5):
        prog.run_on_packet(PKT)
    assert int.from_bytes(m.lookup(b"\x00" * 4), "little") == 5
