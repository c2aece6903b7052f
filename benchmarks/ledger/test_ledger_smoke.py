"""Smoke test of the perf ledger at ``--quick`` sizes.

Every workload named in ``BENCHMARK.json``, and the one the ledger runs
beside them, runs once untraced and once traced, each in its own process
as the driver would start it, and must print exactly the declared
metrics with nothing failed; ``run.py ledger``
runs for one workload and feeds ``run.py compare``.  Timing values are
not judged here — only that the benchmark runs, checks its outputs and
speaks the contract.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN = [sys.executable, str(LEDGER / "run.py")]
# In ``run.py ledger`` but not in BENCHMARK.json: two workers need both
# cores at once, which no run on a shared host measures steadily.
LEDGER_ONLY = ["regions_shard2"]


def _run_one(job) -> tuple:
    workload, trace, out_dir = job
    if trace is None:
        args = ["ledger", workload, "--out", str(out_dir / "ledger.json")]
    else:
        args = ["--workload", workload, "--trace", str(trace)]
        args += ["--out", str(out_dir / f"{workload}.{trace}.json")]
    done = subprocess.run(
        RUN + args + ["--seed", "5", "--quick"], capture_output=True, text=True, timeout=120
    )
    return workload, trace, done


@pytest.fixture(scope="module")
def all_runs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("ledger")
    names = [w["name"] for w in SPEC["workloads"]] + LEDGER_ONLY
    jobs = [(name, trace, out_dir) for name in names for trace in (0, 1)]
    jobs.append(("setup1_events", None, out_dir))  # one small ledger beside the single runs
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        return out_dir, list(pool.map(_run_one, jobs))


@pytest.fixture(scope="module")
def runs(all_runs):
    out_dir, results = all_runs
    return out_dir, [r for r in results if r[1] is not None]


def test_every_workload_emits_every_declared_metric(runs):
    _out_dir, results = runs
    for workload, trace, done in results:
        assert done.returncode == 0, f"{workload} trace={trace}:\n{done.stdout}\n{done.stderr}"
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, (workload, trace)
        assert result["attempted"] >= 1
        declared = SPEC["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in declared], (workload, trace)
        for metric in declared:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"]), (workload, metric["name"])
            if not trace:
                assert got["value"] > 0, (workload, metric["name"])


def test_result_files_explain_themselves(runs):
    out_dir, results = runs
    for workload, trace, _done in results:
        report = json.loads((out_dir / f"{workload}.{trace}.json").read_text())
        assert {"commit", "python", "nproc", "loadavg", "seed", "sizes"} <= set(report["env"])
        for entry in report["metrics"].values():
            assert {"value", "unit", "n", "q1", "q3"} <= set(entry)
        if trace:
            spans = (out_dir / f"spans.{workload}.jsonl").read_text().splitlines()
            assert {"name", "start_ns", "end_ns", "parent", "workload"} <= set(json.loads(spans[0]))
        else:
            assert report["extra"]["failed_frac"]["value"] == 0


def test_names_follow_the_contract():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        LEDGER, tmp_path / "benchmarks" / "ledger", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "fwd_ipv6", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_ledger_merges_runs_and_compares_with_itself(all_runs):
    out_dir, results = all_runs
    done = next(d for _w, trace, d in results if trace is None)
    assert done.returncode == 0, done.stdout + done.stderr
    ledger = json.loads((out_dir / "ledger.json").read_text())
    assert {"commit", "nproc", "loadavg", "seed", "sizes"} <= set(ledger["env"])
    assert set(ledger["bounds"]) == {m["name"] for m in SPEC["end_to_end"]}
    entry = ledger["workloads"]["setup1_events"]
    assert entry["failed"] == 0 and len(entry["digests"]) == 1
    assert set(entry["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["end_to_end"]:
        row = entry["end_to_end"][metric["name"]]
        assert row["n_runs"] == 3 and row["q1"] <= row["median"] <= row["q3"]
    same = subprocess.run(
        RUN + ["compare", str(out_dir / "ledger.json"), str(out_dir / "ledger.json")],
        capture_output=True,
        text=True,
    )
    assert same.returncode == 0, same.stdout + same.stderr
    assert "REGRESSION" not in same.stdout and "MISMATCH" not in same.stdout


def _ledger(path: Path, runs: list, digest: str = "d0", bound: float = 0.10) -> Path:
    ordered = sorted(runs)
    median = ordered[len(ordered) // 2]
    row = {
        "unit": "ns",
        "runs": runs,
        "median": median,
        "spread": (ordered[-1] - ordered[0]) / 2 / median,
    }
    ledger = {
        "env": {"commit": "0" * 40, "seed": 5, "sizes": "quick"},
        "bounds": {"pkt_ns_p50": {"better": "lower", "bound": bound}},
        "workloads": {
            "end_bpf": {
                "end_to_end": {"pkt_ns_p50": row},
                "failed": 0,
                "exact": {},
                "digests": [digest],
            }
        },
    }
    path.write_text(json.dumps(ledger))
    return path


@pytest.mark.parametrize(
    "runs, digest, word, code",
    [
        ([104.0, 105.0, 106.0], "d0", "ok", 0),
        ([120.0, 121.0, 122.0], "d0", "REGRESSION", 1),
        ([85.0, 121.0, 160.0], "d0", "unresolved", 0),  # too noisy to call
        ([150.0, 200.0, 260.0], "d0", "REGRESSION", 1),  # noisy, but every run is worse
        ([40.0, 60.0, 80.0], "d0", "ok", 0),  # noisy, but every run is better
        ([100.0, 101.0, 102.0], "d1", "MISMATCH", 1),  # same inputs, other simulation
    ],
)
def test_compare(tmp_path, runs, digest, word, code):
    a = _ledger(tmp_path / "a.json", [100.0, 101.0, 102.0])
    # B's own bounds are ignored: a ledger is judged by its baseline's.
    b = _ledger(tmp_path / "b.json", runs, digest, bound=10.0)
    done = subprocess.run(RUN + ["compare", str(a), str(b)], capture_output=True, text=True)
    assert done.returncode == code, done.stdout + done.stderr
    assert word in done.stdout
