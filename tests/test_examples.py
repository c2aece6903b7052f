"""The example scripts stay runnable (fast ones run in-process)."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quickstart_runs(capsys):
    load("quickstart").main()
    out = capsys.readouterr().out
    assert "verifier OK" in out
    assert "forwarded 20 packets" in out
    assert "tag 0: 7 packets" in out


def test_ecmp_traceroute_runs(capsys):
    load("ecmp_traceroute").main()
    out = capsys.readouterr().out
    assert "ecmp=[fc00:2a::1, fc00:2b::1]" in out
    assert "(destination)" in out


def test_service_chaining_runs(capsys):
    load("service_chaining").main()
    out = capsys.readouterr().out
    assert "6/6 dropped at fw" in out
    assert "label 3: 2 packets" in out


def test_delay_monitoring_example_logic(capsys):
    """The delay-monitoring example, with the flow shortened for CI."""
    module = load("delay_monitoring")
    # Patch the flow duration down by monkeying the scheduler horizon:
    # the example itself is parameter-free, so just run it — it completes
    # in a few seconds of host time.
    module.main()
    out = capsys.readouterr().out
    assert "mean one-way delay: 3.0" in out
    # set_ratio(20) half way through: the probe count follows the new ratio.
    found = re.search(r"probes: (\d+) .*then 1:20 \(expected ≈ (\d+)\)", out)
    probes, expected = map(int, found.groups())
    assert abs(probes - expected) <= expected // 50


def test_hybrid_access_runs(capsys):
    """The hybrid-access example, with warmup/flow durations cut for CI.

    The storyline must survive shortening: TCP over the uncompensated
    bond collapses, delay compensation recovers most of the aggregate.
    """
    module = load("hybrid_access")
    module.WARMUP_S = 1
    module.DURATION_S = 2
    module.main()
    out = capsys.readouterr().out
    assert "UDP over the bond" in out
    # set_weights(1, 1) at 1 s: the bond splits evenly from then on.
    found = re.search(r"set_weights\(1, 1\) at 1 s: (\d+) / (\d+)", out)
    since0, since1 = map(int, found.groups())
    assert since0 > 0 and abs(since0 - since1) <= 1
    assert "summary: disaster" in out
    assert "compensating link" in out


def test_frr_reroute_runs(capsys):
    """The control-plane example: IGP convergence, then TI-LFA reroute."""
    load("frr_reroute").main()
    out = capsys.readouterr().out
    assert "--- IGP only ---" in out
    assert "--- FRR armed ---" in out
    # Converged primary path, and a seg6 repair visible right after the
    # carrier event in the FRR pass.
    assert "A's converged route: fc00:d::1/128 via" in out
    assert "encap seg6 mode encap segs" in out
    assert "frr fired on A" in out
    # "Only what was in flight" holds because no destination is bare.
    assert "0 left unprotected" in out


# Keep this in sync with the per-example tests above: the quickstart
# commands in README.md point at these scripts, so every script must have
# an executing smoke test here — docs can't rot silently.
EXERCISED = {
    "quickstart",
    "ecmp_traceroute",
    "service_chaining",
    "delay_monitoring",
    "hybrid_access",
    "frr_reroute",
}


def test_every_example_is_smoke_tested():
    on_disk = {path.stem for path in EXAMPLES.glob("*.py")}
    assert on_disk == EXERCISED, (
        "examples/ changed: add an executing smoke test above and list the "
        f"script here (disk: {sorted(on_disk)}, exercised: {sorted(EXERCISED)})"
    )


def test_all_examples_have_docstrings_and_main():
    for path in sorted(EXAMPLES.glob("*.py")):
        source = path.read_text()
        assert source.startswith("#!/usr/bin/env python3"), path
        assert '"""' in source, path
        assert 'if __name__ == "__main__":' in source, path
