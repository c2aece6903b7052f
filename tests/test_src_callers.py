"""Static gate: every function, class and method in ``src/`` has a caller.

A definition counts as reached when its name is referenced (as a Name
or an Attribute) from code that is itself reached:

* module-level code under ``src/`` — not the ``__init__`` re-exports,
  which are import aliases and ``__all__`` strings, not references;
* any file under ``benchmarks/`` or ``examples/``;
* a name that ``docs/API.md`` or ``README.md`` documents in code;
* the body of a definition already reached, up to a fixpoint — so a
  cluster that only calls itself (a factory and the class it builds)
  stays unreached, and so does a definition that only calls itself.

Names are matched bare (``x.find_tlv`` reaches every ``find_tlv``), which
over-approximates what is reached and never flags a live definition.
Tests are not callers: code that only a test calls belongs in the test.
Dunders, ``@register_helper`` functions (the helper table calls them)
and ``NetCli.cmd_*`` (dispatched by command word) are exempt; anything
else unreached must sit in ``ALLOWED`` with its reason.
"""

import ast
import re
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
CALLER_DIRS = ("benchmarks", "examples")
DOCS = ("docs/API.md", "README.md")

# Unreached on purpose, one reason each: "module:Qualname" -> reason.
# A copy under tests/ would only move these, not remove them.
ALLOWED = {
    "repro.net.checksum:verify_l4": "the L4 checksum oracle every rewrite is checked against",
    "repro.net.packet:Packet.udp_payload": "how tests read a delivered packet's UDP payload",
    "repro.ebpf.insn:encode_program": "the kernel's bytecode format; corpus goldens compare by it",
    "repro.ebpf.insn:decode_program": "reads that format back; the corpus round-trip oracle",
    "repro.ebpf.program:Program.run_on_packet": "the package docstring's one-packet run",
}

_CODE_SPAN = re.compile(r"```.*?```|`[^`\n]+`", re.S)
_IDENT = re.compile(r"[A-Za-z_]\w*")


def _names(node: ast.AST) -> set[str]:
    """Every Name id and Attribute attr under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _exempt(cls: str | None, fn: ast.AST) -> bool:
    name = fn.name
    if name.startswith("__") and name.endswith("__"):
        return True
    if cls == "NetCli" and name.startswith("cmd_"):
        return True
    return any(
        isinstance(dec, ast.Call) and "register_helper" in _names(dec.func)
        for dec in fn.decorator_list
    )


def _scan_src(src: Path = SRC):
    """(definitions, roots): definitions map "module:Qualname" to (bare
    name, names its body references, the class it sits in, exempt)."""
    defs: dict[str, tuple[str, set[str], str | None, bool]] = {}
    roots: set[str] = set()
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, funcs):
                defs[f"{module}:{top.name}"] = (top.name, _names(top), None, _exempt(None, top))
            elif isinstance(top, ast.ClassDef):
                head: set[str] = set()
                for part in top.bases + top.keywords + top.decorator_list:
                    head |= _names(part)
                for stmt in top.body:
                    if isinstance(stmt, funcs):
                        key = f"{module}:{top.name}.{stmt.name}"
                        defs[key] = (stmt.name, _names(stmt), top.name, _exempt(top.name, stmt))
                    else:
                        head |= _names(stmt)
                defs[f"{module}:{top.name}"] = (top.name, head, None, False)
            elif not isinstance(top, (ast.Import, ast.ImportFrom)):
                roots |= _names(top)
    return defs, roots


def _documented(text: str) -> set[str]:
    """Identifiers inside the Markdown code spans and blocks of ``text``."""
    names = set()
    for span in _CODE_SPAN.findall(text):
        names |= set(_IDENT.findall(span))
    return names


def _caller_roots() -> set[str]:
    roots = set()
    for folder in CALLER_DIRS:
        for path in (REPO / folder).rglob("*.py"):
            roots |= _names(ast.parse(path.read_text()))
    for doc in DOCS:
        roots |= _documented((REPO / doc).read_text())
    return roots


def unreached(allowed: dict[str, str], src: Path = SRC, callers: set[str] | None = None) -> list[str]:
    """Every definition no caller reaches, less the ``allowed`` ones.

    ``callers`` are the names reached from outside ``src``; by default
    those of ``benchmarks/``, ``examples/`` and the documented names.
    """
    defs, reached = _scan_src(src)
    reached |= _caller_roots() if callers is None else callers
    # An exempt method is called without being named (a dunder by the
    # language, cmd_* by the CLI): it is reached when its class is, not
    # when another class's method of the same name is.
    grew = True
    while grew:
        grew = False
        for name, refs, owner, exempt in defs.values():
            live = (owner is None or owner in reached) if exempt else name in reached
            if live and not refs <= reached:
                reached |= refs
                grew = True
    return sorted(
        key
        for key, (name, _refs, _owner, exempt) in defs.items()
        if name not in reached and not exempt and key not in allowed
    )


def test_every_src_definition_has_a_caller_outside_tests():
    dead = unreached(ALLOWED)
    assert not dead, (
        "reached from no src/, benchmarks/, examples/ code and documented in "
        "neither docs/API.md nor README.md — delete it, or allow-list it in "
        "tests/test_src_callers.py with its reason:\n" + "\n".join(dead)
    )


def test_allow_list_names_live_definitions():
    """An allow-list entry whose definition is gone or now reached is stale."""
    defs, _roots = _scan_src()
    missing = sorted(key for key in ALLOWED if key not in defs)
    assert not missing, f"allow-listed but not defined: {missing}"
    flagged = set(unreached({}))
    stale = sorted(key for key in ALLOWED if key not in flagged)
    assert not stale, f"allow-listed but reached, drop the entry: {stale}"


# --- the scan itself, on small source trees -------------------------------------------


def _tree(tmp_path, **modules: str) -> Path:
    """A ``pkg`` package under ``tmp_path`` holding the given modules."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    for name, text in modules.items():
        (pkg / f"{name}.py").write_text(textwrap.dedent(text))
    return tmp_path


def test_scan_leaves_a_self_calling_cluster_unreached(tmp_path):
    src = _tree(
        tmp_path,
        __init__="""
            from .m import counter
            __all__ = ["counter"]
        """,
        m="""
            class Counter:
                def inc(self):
                    self.inc()

            def counter():
                return Counter()

            def used():
                return 1

            VALUE = used()
        """,
    )
    # The re-export and __all__ string are not references; the factory
    # and the class only reach each other.
    assert unreached({}, src, callers=set()) == ["pkg.m:Counter", "pkg.m:Counter.inc", "pkg.m:counter"]
    # A caller outside src reaches the factory, the factory the class;
    # the method stays unreached until something names it.
    assert unreached({}, src, callers={"counter"}) == ["pkg.m:Counter.inc"]
    assert unreached({"pkg.m:Counter.inc": "why"}, src, callers={"counter"}) == []


def test_scan_reaches_a_dunder_through_its_own_class_only(tmp_path):
    src = _tree(
        tmp_path,
        m="""
            def helper_a():
                return 1

            def helper_b():
                return 2

            class A:
                def __len__(self):
                    return helper_a()

            class B:
                def __len__(self):
                    return helper_b()

            SIZE = len(A())
        """,
    )
    assert unreached({}, src, callers=set()) == ["pkg.m:B", "pkg.m:helper_b"]


def test_scan_reaches_a_class_head_with_its_class(tmp_path):
    src = _tree(
        tmp_path,
        m="""
            def base():
                return object

            def default():
                return 0

            class Plain(base()):
                value = default()

            class Unused:
                value = default()
        """,
    )
    # Bases and class-level statements belong to the class: reached when
    # the class is, and not before.
    assert unreached({}, src, callers=set()) == ["pkg.m:Plain", "pkg.m:Unused", "pkg.m:base", "pkg.m:default"]
    assert unreached({}, src, callers={"Plain"}) == ["pkg.m:Unused"]


def test_scan_exempts_helper_table_entries_and_cli_commands(tmp_path):
    src = _tree(
        tmp_path,
        m="""
            def for_helper():
                return 1

            def for_command():
                return 2

            @register_helper(7)
            def bpf_thing(vm):
                return for_helper()

            class NetCli:
                def cmd_go(self):
                    return for_command()
        """,
    )
    # The helper table calls bpf_thing unnamed; cmd_go runs only once
    # its class is reached, and nothing here reaches NetCli.
    assert unreached({}, src, callers=set()) == ["pkg.m:NetCli", "pkg.m:for_command"]
    assert unreached({}, src, callers={"NetCli"}) == []


def test_documented_names_come_from_code_spans_only():
    text = "Call `parse_tlvs(srh)` in prose_word.\n\n```python\nout = decode(raw)\n```\n"
    # A fence's info string ("python") counts too, which only adds to
    # what is reached.
    assert _documented(text) == {"parse_tlvs", "srh", "python", "out", "decode", "raw"}
