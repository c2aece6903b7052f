"""tools/reach.txt, the list of functions no run enters, names only live code.

Running the entry points takes minutes, so ``tools/reach.py`` itself runs
in CI's examples-smoke job; this reads the committed list against the
functions under ``src/repro/`` as they are, so a deleted or renamed
function leaves the list in the change that deletes it.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_listed_function_exists():
    reach = load_reach()
    named = {name for name, is_named in reach.functions().values() if is_named}
    stale = sorted(set(reach.read_list()) - named)
    assert not stale, "in tools/reach.txt but not under src/repro/ (drop them):\n" + "\n".join(stale)


def test_functions_leave_out_module_and_class_bodies():
    found = {name for name, _ in load_reach().functions().values()}
    assert "repro.lab.network:Network.run" in found
    assert "repro.lab.network:Network" not in found
    assert "repro.lab.network:<module>" not in found
