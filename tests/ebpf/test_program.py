"""Program loading: relocation, engines, stats."""

import pytest

from repro.ebpf import ArrayMap, HashMap, LinkError, Program, VerifierError
from repro.ebpf.errors import BpfError
from repro.ebpf.memory import MAP_PTR_BASE

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
    """A program's first map gets handle MAP_PTR_BASE, whichever program
    loaded the same map before it."""
    m = ArrayMap("m", value_size=8, max_entries=1)
    for _ in range(2):
        prog = Program(COUNTER_PROG, maps={"m": m})
        lddw = next(insn for insn in prog.insns if insn.is_lddw)
        assert lddw.imm64 == MAP_PTR_BASE
        assert prog.maps_by_addr == {MAP_PTR_BASE: m}


def test_a_program_may_reference_at_most_64_maps():
    maps = {f"m{i}": ArrayMap(f"m{i}", value_size=8, max_entries=1) for i in range(65)}
    text = "\n".join(f"r1 = m{i} ll" for i in range(64)) + "\nr0 = 0\nexit"
    prog = Program(text, maps=maps, allowed_helpers=None)
    assert sorted(prog.maps_by_addr) == [MAP_PTR_BASE + 16 * i for i in range(64)]
    with pytest.raises(BpfError, match="references 65 maps, more than 64"):
        Program(text.replace("r0 = 0", "r1 = m64 ll\nr0 = 0"), maps=maps, allowed_helpers=None)


def test_map_values_must_fit_below_the_map_handles():
    big = HashMap("big", key_size=4, value_size=1 << 20, max_entries=1 << 10)  # 1 GiB
    prog = Program("r1 = big ll\nr0 = 0\nexit", maps={"big": big}, allowed_helpers=None)
    assert prog.value_bases == {MAP_PTR_BASE: 0x1000_0000}
    other = HashMap("other", key_size=4, value_size=1 << 20, max_entries=1 << 10)
    with pytest.raises(BpfError, match="map values need 0x80000000 bytes, more than the 0x6f000000 below"):
        Program(
            "r1 = big ll\nr1 = other ll\nr0 = 0\nexit",
            maps={"big": big, "other": other},
            allowed_helpers=None,
        )


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
    assert jit._interp is None and interp._interp is not None  # one engine each
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
