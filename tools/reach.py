#!/usr/bin/env python3
"""The reach list: the functions under src/repro/ that no run enters.

The runs are the entry points a user has: every script in examples/,
the two scripted CLI sessions of CI's cli-smoke job, and the perf
ledger at smoke sizes (``benchmarks/ledger/run.py ledger --quick``).
Each runs in a fresh interpreter whose ``sitecustomize`` records every
code object entered (``sys.settrace`` / ``threading.settrace`` call
events), in the subprocesses the ledger starts too; a forked shard
worker writes its record before ``os._exit``.  Comprehensions,
generator expressions and lambdas are left out of the list: CPython
3.12 inlines comprehensions, and a lambda has no name of its own.

    python tools/reach.py           # exit 1 when a function joins tools/reach.txt
    python tools/reach.py --write   # rewrite tools/reach.txt, keeping each reason

tools/reach.txt has one ``module:qualname`` a line, sorted, each with the
committed reason it stays (``  # reason``) where it has one.  A function
that a run enters, or that is deleted, leaves the list with ``--write``.
Stdlib only; it takes a few minutes (the hybrid-access example is most
of it), so it runs in CI's examples-smoke job, not in tier-1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LIST = ROOT / "tools" / "reach.txt"

# CI's cli-smoke sessions (.github/workflows/ci.yml), command for command.
SQUARE_FEED = (
    "help; trace on; run 150; nodes; links; routes A; events -f; fail A B; run 200; "
    "trace top 3; trace show 1:0; trace follow 1; recover A B; run 50; counters A; "
    "bpf A; sample; exit"
)
SETUP2_STDIN = "run 300\nnodes\ncounters R\nevents -n 0\nexit\n"

RECORDER = '''\
import atexit
import os
import sys
import threading

_OUT = {out!r}
_codes = {{}}


def _call(frame, event, arg):
    code = frame.f_code
    if id(code) not in _codes:
        _codes[id(code)] = code


def _dump():
    with open(os.path.join(_OUT, f"{{os.getpid()}}.txt"), "a") as out:
        for code in _codes.values():
            out.write(f"{{code.co_filename}}\\t{{code.co_firstlineno}}\\t{{code.co_qualname}}\\n")
    _codes.clear()


def _exit(status, _real=os._exit):
    _dump()
    _real(status)


atexit.register(_dump)
os._exit = _exit
sys.settrace(_call)
threading.settrace(_call)
'''


def entry_points(scratch: Path) -> list[tuple[str, list[str], str | None]]:
    """(label, argv, stdin) per run."""
    python = sys.executable
    runs = [(path.name, [python, str(path)], None) for path in sorted((ROOT / "examples").glob("*.py"))]
    runs.append(
        ("cli square", [python, "-m", "repro.cli", "--setup", "square", "--frr", "--seed", "7",
                        "--feed", SQUARE_FEED], None)
    )  # fmt: skip
    runs.append(("cli setup2", [python, "-m", "repro.cli", "--setup", "setup2", "--frr"], SETUP2_STDIN))
    ledger = [python, str(ROOT / "benchmarks" / "ledger" / "run.py"), "ledger", "--quick"]
    runs.append(("ledger --quick", ledger + ["--out", str(scratch / "ledger.json")], None))
    return runs


def run_traced() -> set[tuple[str, int, str]]:
    """Run every entry point; return (src-relative path, line, qualname) entered."""
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        (scratch / "site").mkdir()
        (scratch / "records").mkdir()
        (scratch / "site" / "sitecustomize.py").write_text(RECORDER.format(out=str(scratch / "records")))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(scratch / "site"), str(SRC)]))
        for label, argv, stdin in entry_points(scratch):
            print(f"== {label}", flush=True)
            done = subprocess.run(argv, cwd=scratch, env=env, input=stdin, text=True,
                                  stdout=subprocess.DEVNULL)  # fmt: skip
            if done.returncode != 0:
                sys.exit(f"reach: {label} exited {done.returncode}")
        entered = set()
        for record in (scratch / "records").iterdir():
            for line in record.read_text().splitlines():
                filename, first, qualname = line.split("\t")
                path = Path(os.path.realpath(filename))
                if path.is_relative_to(SRC):
                    entered.add((path.relative_to(SRC).as_posix(), int(first), qualname))
    return entered


def functions() -> dict[tuple[str, int, str], tuple[str, bool]]:
    """Every code object under src/repro/: key -> ("module:qualname", named
    function).  Module and class bodies are left out."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC)
        module = ".".join(rel.with_suffix("").parts).removesuffix(".__init__")
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if code.co_flags & 0x2:  # CO_NEWLOCALS: a function, not a module or class body
                named = not code.co_name.startswith("<")
                found[(rel.as_posix(), code.co_firstlineno, code.co_qualname)] = (
                    f"{module}:{code.co_qualname}",
                    named,
                )
    return found


def read_list() -> dict[str, str]:
    """The committed list: "module:qualname" -> reason ("" for none)."""
    listed = {}
    for line in LIST.read_text().splitlines():
        if line and not line.startswith("#"):
            name, _, reason = line.partition("  # ")
            listed[name.strip()] = reason.strip()
    return listed


def write_list(never: list[str], reasons: dict[str, str], total: int) -> None:
    lines = [
        "# Functions under src/repro/ that no run enters: examples/*.py, CI's two",
        "# scripted CLI sessions and `benchmarks/ledger/run.py ledger --quick`.",
        "# Written by `python tools/reach.py --write`, which keeps each reason;",
        "# `python tools/reach.py` fails when a function joins the list.  A line",
        "# without a reason is undecided: it gets a run, goes, or gets a reason.",
        f"# {len(never)} of {total} functions.",
    ]
    for name in never:
        reason = reasons.get(name, "")
        lines.append(f"{name}  # {reason}" if reason else name)
    LIST.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite tools/reach.txt")
    args = parser.parse_args(argv)

    entered = run_traced()
    code = functions()
    never_all = {key for key in code if key not in entered}
    never = sorted({code[key][0] for key in never_all if code[key][1]})
    named = sum(1 for _, is_named in code.values() if is_named)
    print(
        f"never entered: {len(never)} of {named} functions "
        f"({len(never_all)} of {len(code)} with comprehensions and lambdas)"
    )
    listed = read_list() if LIST.exists() else {}
    if args.write:
        write_list(never, listed, named)
        print(f"wrote {LIST.relative_to(ROOT)}")
        return 0
    joined = [name for name in never if name not in listed]
    left = [name for name in listed if name not in never]
    if left:
        print("entered or deleted since the list was written (--write drops them):")
        print("".join(f"  {name}\n" for name in left), end="")
    if joined:
        print("never entered and not in tools/reach.txt: give each a run, or delete it:")
        print("".join(f"  {name}\n" for name in joined), end="")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
