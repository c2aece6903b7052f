"""Verifier scaling: path pruning keeps branchy programs tractable."""

import time

import pytest

from repro.ebpf import Program, VerifierError


def test_branch_chain_verifies_in_linear_time():
    """25 sequential data-dependent branches: 2^25 paths naively, but
    states converge after each diamond, so pruning keeps it linear."""
    lines = ["r2 = *(u32 *)(r1 + 0)"]
    for i in range(25):
        lines += [
            f"if r2 == {i} goto l{i}",
            "r3 = 1",
            f"l{i}:",
            "r3 = 2",  # both paths converge to the same state
        ]
    lines += ["r0 = 0", "exit"]
    start = time.perf_counter()
    Program("\n".join(lines), jit=False)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


def test_divergent_states_hit_budget_not_hang():
    """Branches that keep states distinct must trip the state budget
    rather than hang: each diamond doubles the live constant sets."""
    lines = ["r2 = *(u32 *)(r1 + 0)", "r4 = 0"]
    for i in range(40):
        lines += [
            f"if r2 == {i} goto l{i}",
            f"r4 += {1 << min(i, 20)}",
            f"l{i}:",
            "r5 = 0",
        ]
    lines += ["r0 = 0", "exit"]
    start = time.perf_counter()
    try:
        Program("\n".join(lines), jit=False)
    except VerifierError as exc:
        assert "budget" in str(exc)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_deep_straightline_program_fast():
    lines = [f"r{1 + (i % 5)} = {i}" for i in range(2000)]
    lines += ["r0 = 0", "exit"]
    start = time.perf_counter()
    Program("\n".join(lines), jit=True)
    assert time.perf_counter() - start < 5.0


def test_all_paper_programs_verify_quickly():
    from repro.ebpf import ArrayMap, PerfEventArrayMap
    from repro.progs import (
        dm_encap_prog,
        end_dm_prog,
        end_oamp_prog,
        wrr_prog,
    )

    start = time.perf_counter()
    dm_encap_prog(ArrayMap("vsc", 40, 1))
    end_dm_prog(PerfEventArrayMap("vse"))
    end_oamp_prog(PerfEventArrayMap("vse2"))
    wrr_prog(ArrayMap("vsc2", 40, 1), ArrayMap("vss2", 16, 1))
    assert time.perf_counter() - start < 5.0
