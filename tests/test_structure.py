"""Static gate: deleted names and second paths stay out, read from one table.

``ROWS`` names what may not come back, each row with the trees it
covers, its reason (pointing into docs/ARCHITECTURE.md or docs/API.md
where the one path it protects is described) and the PR that deleted
it.  A Python file is matched on its ``ast``: a definition, a name or
attribute, an import, a call, an annotation, a ``global`` or an ``is``
comparison.  So a comment or a backquoted docstring mention passes, and
a deleted ``repro`` class is matched by its definition or its import
from ``repro``, not by an unrelated ``collections.Counter``.  Program
text is matched line by line: the lines of ``.s`` sources and corpus
goldens, and of every ``str`` constant but a docstring.

Two kinds of row bound a form instead of forbidding it:

* a count row (``count=``) holds the number of matches in its file;
* an allowed-site row (``allow=``) names the (file, site) pairs where a
  match is sanctioned: the site is the dotted name of the enclosing
  definition, the name of a module-level table, or ``"*"`` for the
  whole file.

Every file is parsed at most once, and one pass over its nodes
dispatches every row that covers it.  The one test below checks, per
row, that it flags each of its ``flags`` snippets, that it passes the
near-misses (its ``passes`` snippet plus each flagged snippet as a
comment, as a backquoted docstring mention, and
``collections.Counter``), and that the tree holds no match.  A deleted
name gets a row here.
"""

from __future__ import annotations

import ast
import operator
import re
from fnmatch import fnmatchcase
from functools import cache
from pathlib import Path
from typing import NamedTuple

import pytest

REPO = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples")
TEXT_SUFFIXES = (".s", ".expected")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name / Attribute chain; any other receiver reads ``?``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return "?"


def _ends(dotted: str, pattern: str) -> bool:
    """``pattern`` is the tail of ``dotted`` at a name boundary; a leading
    dot asks for an attribute of any receiver."""
    if pattern.startswith("."):
        return dotted.endswith(pattern)
    return dotted == pattern or dotted.endswith("." + pattern)


def _alternatives(names) -> re.Pattern:
    return re.compile("|".join(names))


class File(NamedTuple):
    module: str  # dotted, ``__init__`` kept: relative imports resolve against it
    skip: set  # ids of the str constants that are not program text: docstrings, f-string parts


def _import_base(node: ast.ImportFrom, module: str) -> str:
    if not node.level:
        return node.module or ""
    package = module.split(".")[: -node.level]
    return ".".join(package + ([node.module] if node.module else []))


# -- the forbidden forms ---------------------------------------------------------------------
# Each form names the node types it looks at; ``hits`` gives the lines
# a node matches on (most forms: the node's own line, or none).  Its
# ``needle`` is a pattern the raw text of any file it could hit
# contains, so a file no needle of a row matches skips that row and,
# when no row is left, is not parsed.


class Ident:
    """An identifier anywhere in code: a name, attribute, definition,
    parameter, keyword or import.  ``part``: the names may sit inside a
    longer identifier; ``but``: an attribute form that passes."""

    types = (ast.Name, ast.Attribute, *DEFS, ast.arg, ast.keyword, ast.alias, ast.ImportFrom, ast.Global)

    def __init__(self, *names: str, part: bool = False, but: str | None = None):
        self.label = ("name containing " if part else "name ") + " | ".join(names)
        regex = _alternatives(names)
        self.match = regex.search if part else regex.fullmatch
        self.needle = "|".join(names)
        self.but = but

    def hits(self, node, file):
        if isinstance(node, ast.Name):
            found = (node.id,)
        elif isinstance(node, ast.Attribute):
            if self.but and _ends(_dotted(node), self.but):
                return ()
            found = (node.attr,)
        elif isinstance(node, ast.alias):
            found = (*node.name.split("."), node.asname or "")
        elif isinstance(node, ast.ImportFrom):
            found = (node.module or "").split(".")
        elif isinstance(node, ast.Global):
            found = node.names
        else:  # a definition, parameter or keyword
            found = (getattr(node, "name", None) or getattr(node, "arg", None) or "",)
        return (node.lineno,) if any(self.match(name) for name in found) else ()


class Def:
    """A ``def`` or ``class`` of that name."""

    types = DEFS

    def __init__(self, *names: str):
        self.label = "definition of " + " | ".join(names)
        self.regex = _alternatives(names)
        self.needle = "|".join(names)

    def hits(self, node, file):
        return (node.lineno,) if self.regex.fullmatch(node.name) else ()


class Defined(Def):
    """A definition, a binding (name or attribute) or an import from ``repro``."""

    types = (*DEFS, ast.Name, ast.Attribute, ast.ImportFrom)

    def hits(self, node, file):
        if isinstance(node, DEFS):
            return super().hits(node, file)
        if isinstance(node, ast.ImportFrom):
            if _import_base(node, file.module).split(".")[0] != "repro":
                return ()
            return [alias.lineno for alias in node.names if self.regex.fullmatch(alias.name)]
        if not isinstance(node.ctx, ast.Store):
            return ()
        name = node.id if isinstance(node, ast.Name) else node.attr
        return (node.lineno,) if self.regex.fullmatch(name) else ()


class Call:
    """A call of a dotted name (see ``_ends``); ``args``: its positional
    arguments, dotted, must be exactly these."""

    types = (ast.Call,)

    def __init__(self, *funcs: str, args: tuple[str, ...] | None = None):
        shown = f"({', '.join(args)})" if args is not None else "(...)"
        self.label = "call " + " | ".join(f + shown for f in funcs)
        self.funcs = funcs
        self.args = args
        self.needle = "|".join(a.split(".")[-1] for a in (args or funcs))

    def hits(self, node, file):
        func = _dotted(node.func)
        if not any(_ends(func, f) for f in self.funcs):
            return ()
        if self.args is not None and tuple(map(_dotted, node.args)) != self.args:
            return ()
        return (node.lineno,)


class Attr:
    """An attribute chain ending in a dotted tail."""

    types = (ast.Attribute,)

    def __init__(self, *tails: str):
        self.label = "attribute " + " | ".join(tails)
        self.tails = tails
        self.needle = "|".join(t.split(".")[-1] for t in tails)

    def hits(self, node, file):
        dotted = _dotted(node)
        return (node.lineno,) if any(_ends(dotted, t) for t in self.tails) else ()


class Import:
    """An import of the module or anything below it, in any form:
    ``import``, ``from … import`` (relative ones resolved),
    ``__import__`` or ``import_module``."""

    types = (ast.Import, ast.ImportFrom, ast.Call)

    def __init__(self, *modules: str):
        self.label = "import of " + " | ".join(modules)
        self.modules = modules
        self.needle = "|".join(m.split(".")[-1] for m in modules)

    def hits(self, node, file):
        if isinstance(node, ast.Import):
            found = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(node, file.module)
            found = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif _dotted(node.func).split(".")[-1] in ("__import__", "import_module"):
            found = [arg.value for arg in node.args if isinstance(getattr(arg, "value", None), str)]
        else:
            return ()
        hit = any(name == m or name.startswith(m + ".") for name in found for m in self.modules)
        return (node.lineno,) if hit else ()


class Code:
    """A node of that type whose source, as ``ast.unparse`` prints it,
    matches the pattern; ``needle``: a word that source must contain."""

    def __init__(self, kind: type, pattern: str, needle: str):
        self.types = (kind,)
        self.label = f"{kind.__name__} /{pattern}/"
        self.regex = re.compile(pattern)
        self.needle = needle

    def hits(self, node, file):
        return (node.lineno,) if self.regex.search(ast.unparse(node)) else ()


class Text:
    """A line of program text: a line of a ``.s`` source or golden, or of
    a ``str`` constant that is not a docstring."""

    types = (ast.Constant, ast.JoinedStr)

    def __init__(self, pattern: str, needle: str | None = None):
        self.label = f"program text /{pattern}/"
        self.regex = re.compile(pattern)
        self.needle = needle or pattern

    def lines(self, text: str, first: int = 1, last: int | None = None):
        found = [first + i for i, line in enumerate(text.splitlines()) if self.regex.search(line)]
        return found if last is None else [min(line, last) for line in found]

    def hits(self, node, file):
        if isinstance(node, ast.JoinedStr):  # an f-string reads as its text, "{}" for each field
            text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
        elif isinstance(node.value, str) and id(node) not in file.skip:
            text = node.value
        else:
            return ()
        # A "\n" escape starts a program line but not a source line.
        return self.lines(text, node.lineno, node.end_lineno)


class Row(NamedTuple):
    id: str
    what: tuple  # the forbidden forms
    trees: tuple[str, ...]  # "dir/" is everything below it; otherwise a path, "*" within one directory
    reason: str
    pr: str  # the PR that deleted it
    flags: tuple[str, ...]  # snippets the row must flag, one per form
    passes: str = ""  # a near-miss the row must pass; the derived near-misses extend it
    count: tuple | None = None  # (operator, n): the matches a file must keep
    allow: tuple = ()  # (file, enclosing function or "*"): the sanctioned sites
    at: str | None = None  # where the snippets sit; default: in the first tree


DATAPATH = tuple(f"src/repro/net/{m}.py" for m in ("node", "seg6", "seg6local", "seg6_helpers", "lwt_bpf"))
SRC = ("src/",)
SRC_BENCH = ("src/", "benchmarks/*.py")
TEXT_TREES = ("src/", "examples/", "tests/")
MNEMONIC = (
    r"(mov(32)?|ldx(b|h|w|dw)|stx?(b|h|w|dw)|lddw|j(eq|ne|gt|ge|lt|le|set|sgt|sge|slt|sle)(32)?|ja)"
    r"\s+[\[r]"
)
DIRECTIVE = r"\.(section|globl|global|text)\b"

ROWS = [
    Row(
        "lab-builder",
        (Call("Node", "Link", "Scheduler", ".add_device"),),
        ("examples/", "benchmarks/", "src/repro/usecases/"),
        "scenario construction goes through repro.lab: build with Network / Topo, not raw "
        "Node, Link or Scheduler wiring (docs/API.md, repro.lab)",
        "3",
        ('router = Node("R")\n', 'router.add_device("eth0")\n'),
        passes='counters = NodeCounters()\nnet.add_node("R")\n',
    ),
    Row(
        "datapath-object-parse",
        (Call("SRH.parse", "IPv6Header.parse", "IPv6Header", ".srh"),),
        DATAPATH,
        "the SRv6 datapath works on wire bytes, held to tests/spec/srv6.py "
        "(docs/ARCHITECTURE.md, SRv6 on wire bytes)",
        "18",
        ("srh = SRH.parse(pkt.data, offset)\n", "hdr = IPv6Header(src, dst)\n", "srh = pkt.srh()\n"),
        passes="span = srh_wire_span(pkt.data, offset)\n",
    ),
    Row(
        "spec-imports-repro",
        (Import("repro"),),
        ("tests/spec/",),
        "the SRv6 spec is the oracle the datapath is checked against, so it shares none of "
        "its code (docs/ARCHITECTURE.md, SRv6 on wire bytes)",
        "40",
        (
            "import repro\n",
            "import repro.net as n\n",
            "from repro.net import SRH\n",
            "def f():\n    from repro import net\n",
            "__import__('repro.net')\n",
            "importlib.import_module('repro.net.srh')\n",
        ),
        passes="from spec import srv6\nimport reprolib\n",
    ),
    Row(
        "one-arm",
        (
            Ident(
                "arm_resident", "rearm_resident", "process_resident", "group_armed", "group_handler",
                "_group_call", "compiled_handler", "_HANDLER_CACHE", "FIB_GENERATION_GUARD", "alloc_scratch",
                part=True,
            ),
        ),  # fmt: skip
        SRC,
        "an attached program is armed and run one way: seg6local.run_attached on its "
        "CompiledHandler's plan, one handler per attach site (docs/ARCHITECTURE.md, eBPF invocation)",
        "19",
        ("handler = compiled_handler(prog)\n", "def alloc_scratch(size):\n    return bytearray(size)\n"),
        passes="handler = CompiledHandler(prog)\n",
    ),
    Row(
        "one-buffer",
        (
            Ident("replace_packet", "_VALIDATE_MEMO", "_validate_verdict", "hmac_tlv", "PerfPoller",
                  "_const_alu", "_eval_cond", part=True),
            Def("packet_bytes"),
            Call("packet_bytes"),
            Call("bytearray", args=("region_data",)),
            Import("repro.userspace.bcc"),
        ),  # fmt: skip
        SRC,
        "a program runs on pkt.data: no second packet buffer, cache or copy of the reference "
        "semantics (docs/ARCHITECTURE.md, eBPF invocation)",
        "21",
        (
            "hctx.replace_packet(data)\n",
            "def packet_bytes(self):\n    pass\n",
            "data = packet_bytes(pkt)\n",
            "copy = bytearray(region_data)\n",
            "from ..userspace import bcc\n",
        ),
        passes="copy = bytearray(size)\n",
        at="src/repro/ebpf/snippet.py",
    ),
    Row(
        "program-facts",
        (Ident("touches_stack", but="facts.touches_stack"),),
        SRC,
        "what an invocation resets is read off the verifier's ProgramFacts, no flag of its own "
        "beside it (docs/ARCHITECTURE.md, eBPF invocation)",
        "25",
        ("self.touches_stack = verdict.touches_stack\n",),
        passes="self.zeroes_stack = facts.touches_stack\n",
        allow=(("src/repro/ebpf/verifier.py", "*"),),
    ),
    Row(
        "helper-cpu-reset",
        (Code(ast.Assign, r"^hctx\.cpu = ", "cpu"),),
        SRC,
        "no reset of helper state nothing else ever sets (docs/ARCHITECTURE.md, eBPF invocation)",
        "25",
        ("hctx.cpu = 0\n",),
        passes="return hctx.cpu\n",
    ),
    Row(
        "process-wide-state",
        (
            Code(ast.Global, "^global ", "global"),
            Import("itertools.count", "threading"),
            Attr("itertools.count"),
            Ident("threading", "_JIT_V2_STATS", "_HANDLER_CACHE_GENERATION", "cache_generation",
                  "jit_samples", "_flow_ids", "_value_addr_cursor", "_fd_counter", part=True),
        ),  # fmt: skip
        SRC,
        "what a run reports depends on that run alone: state lives on the object it describes, "
        "no module global is rebound (docs/ARCHITECTURE.md, One pin)",
        "27",
        (
            "def bump():\n    global _NEXT\n    _NEXT += 1\n",
            "from itertools import count\n",
            "ids = itertools.count()\n",
            "import threading\n",
            "_fd_counter = 0\n",
        ),
        passes="from itertools import chain\n",
    ),
    Row(
        "jit-helper-call",
        (Ident("_bswap", part=True), Text(r"_bswap|r1, r2, r3, r4, r5\)")),
        ("src/repro/ebpf/jit.py",),
        "the JIT emits _hN(hctx, r1..rk) with exactly the helper's arguments and inlines its "
        "byte swaps: no five-register call, no bound byte-swap function (docs/ARCHITECTURE.md, Helpers)",
        "28",
        (
            "_bswap16 = lambda v: v\n",
            'emit(f"r0 = _h{n}(hctx, r1, r2, r3, r4, r5)")\n',
            'emit(f"{dst} = _bswap({dst}, {insn.imm})")\n',
        ),
        passes='emit(f"r0 = _h{n}(hctx, {args})")\n',
    ),
    Row(
        "helper-arity",
        (Ident("register_value_region", part=True), Code(ast.Subscript, r"^regs\[:len\(", "regs")),
        SRC,
        "a helper is called with exactly its arguments: no per-call slice to arity, no "
        "value-region registration (docs/ARCHITECTURE.md, Helpers)",
        "28",
        ("map.register_value_region(mem)\n", "args = regs[: len(helper.args)]\n"),
        passes="args = regs[1:]\n",
    ),
    Row(
        "map-value-sites",
        (Call("map_value"),),
        SRC,
        "a map value is mapped in _map_lookup_elem and Program.make_context only, so no "
        "translated code maps one per packet (docs/ARCHITECTURE.md, inline array-map lookups)",
        "28",
        ("def lookup(mem, addr, data):\n    return mem.map_value(addr, data)\n",),
        passes="def _map_lookup_elem(hctx, map_addr, key_addr):\n    return mem.map_value(addr, data)\n",
        allow=(
            ("src/repro/ebpf/memory.py", "*"),
            ("src/repro/ebpf/helpers.py", "_map_lookup_elem"),
            ("src/repro/ebpf/program.py", "Program.make_context"),
        ),
        at="src/repro/ebpf/helpers.py",
    ),
    Row(
        "endbpf-type-test",
        (Code(ast.Compare, r"\bis (not )?EndBPF\b", "EndBPF"),),
        ("src/repro/net/node.py",),
        "one forwarding rule for every packet of a batch: a seg6local action runs inline through "
        "action.process (docs/ARCHITECTURE.md, the batch loop)",
        "26",
        ("if type(action) is EndBPF:\n    pass\n",),
        passes="if action is None:\n    pass\n",
    ),
    Row(
        "seg6local-handler-param",
        (Code(ast.arg, r"^handler: CompiledHandler \| None$", "handler"),),
        ("src/repro/net/seg6local.py",),
        "End.BPF takes no handler argument of its own: the action holds its handler "
        "(docs/ARCHITECTURE.md, the batch loop)",
        "26",
        ("def process(self, pkt, node, handler: CompiledHandler | None = None):\n    pass\n",),
        passes="def process(self, pkt, node):\n    pass\n",
    ),
    Row(
        "needs-srh",
        (Ident("needs_srh", part=True),),
        SRC,
        "a flag no code ever read (docs/ARCHITECTURE.md, the batch loop)",
        "26",
        ("needs_srh = True\n",),
    ),
    Row(
        "seg6local-group",
        (Ident("_run_group", "group_flushes", "grouped_packets", "bpf_group", part=True),),
        SRC_BENCH,
        "no seg6local group with its lookahead scan, flush protocol and counters: one "
        "per-packet rule in Node.receive_batch (docs/ARCHITECTURE.md, the batch loop)",
        "30",
        ("self._run_group(batch)\n", "stats.group_flushes += 1\n"),
    ),
    Row(
        "one-nexthop-selection",
        (Call("select_nexthop"),),
        ("src/repro/net/node.py",),
        "Node._transmit is the only nexthop selection in node.py (docs/ARCHITECTURE.md, the batch loop)",
        "26",
        ("nh = route.select_nexthop(pkt)\nnh = route.select_nexthop(pkt)\n",),
        passes="nh = route.select_nexthop(pkt)\n",
        count=(operator.le, 1),
    ),
    Row(
        "one-handoff",
        (Ident("process_batch", "_flush_egress", part=True), Ident(r"\w*_execute"), Call("._emit")),
        SRC_BENCH,
        "a link delivers to the peer node, a device is egress only and the dispatch flushes "
        "egress in place (docs/ARCHITECTURE.md, Link / Device)",
        "31",
        ("dev.process_batch(pkts)\n", "self._emit(pkt)\n"),
        passes="self._emit_count = 1\n",
    ),
    Row(
        "one-event-loop",
        (Call("heappop"),),
        ("src/repro/sim/scheduler.py",),
        "Scheduler.run is the one event loop, and it runs each callback in place "
        "(docs/ARCHITECTURE.md, Sharded execution)",
        "31",
        ("event = heappop(heap)\nevent = heappop(heap)\n", "pop = heappop\n"),
        passes="event = heappop(heap)\n",
        count=(operator.eq, 1),
    ),
    Row(
        "batch-of-one-prologue",
        (
            Def("_push", "_make_packet"),
            Ident("now_fn", "_schedule_timer", "_emit_batch", "_egress_batch", "_in_flight", part=True),
        ),
        SRC_BENCH,
        "the Setup 1 event path at batch size one: no push frame, clock lambda, timer shim, "
        "emit or egress frame, in-flight books or per-packet builder (docs/ARCHITECTURE.md, the "
        "scheduler, Device and the batch loop)",
        "33",
        ("def _push(self, event):\n    pass\n", "self.now_fn = lambda: 0\n"),
        passes="self.push = heap.append\n",
    ),
    Row(
        "event-class",
        (Def("Event"), Call("Event")),
        SRC_BENCH,
        "an event is a plain list cancelled through Scheduler.cancel (docs/ARCHITECTURE.md, "
        "the scheduler)",
        "49",
        ("class Event(list):\n    pass\n", "event = Event((when, stream, seq))\n"),
        passes="event = CtrlEvent(now, node, kind)\n",
    ),
    Row(
        "link-key-tuple",
        (Code(ast.keyword, r"^key=\(", "key"),),
        ("src/repro/sim/link.py",),
        "a link schedules its delivery by positional (stream, seq) (docs/ARCHITECTURE.md, the scheduler)",
        "49",
        ("sched.schedule_batch(t, deliver, pkts, key=(self.stream, seq))\n",),
        passes="sched.schedule_batch(t, deliver, pkts, self.stream, seq)\n",
    ),
    Row(
        "flowmeter-payload",
        (Call(".udp_payload"),),
        ("src/repro/sim/stats.py",),
        "the flow meter reads the L4 offset it is handed, no second header walk "
        "(docs/ARCHITECTURE.md, the batch loop)",
        "33",
        ("payload = pkt.udp_payload()\n",),
        passes="payload = pkt.data[offset + 8 :]\n",
    ),
    Row(
        "deleted-invocation-names",
        (
            Ident("_advance_verdict", "_sees_ctx", "_zero_stack", "_HANDLER_CACHE_STATS", part=True),
            Def("arm"),
            Call(".arm"),
            Attr("handler.call"),
        ),
        SRC_BENCH,
        "an attached program is armed inside seg6local.run_attached by the plan its "
        "CompiledHandler reads off the verifier's facts (docs/ARCHITECTURE.md, eBPF invocation)",
        "35",
        (
            "verdict = _advance_verdict(pkt)\n",
            "def arm(self, pkt):\n    pass\n",
            "handler.arm(pkt)\n",
            "ret = handler.call(ctx)\n",
        ),
        passes="ret = run_attached(handler, pkt)\n",
    ),
    Row(
        "packet-trace",
        (
            Attr("trace.append", "clone.trace", "pkt.trace"),
            Code(ast.keyword, "^trace=trace$", "trace"),
            Call("len", args=("trace",)),
        ),
        SRC_BENCH,
        "a packet keeps no list of the nodes it crossed: its trace's stage:transmit spans are "
        "that record (docs/ARCHITECTURE.md, Packet)",
        "35",
        ("pkt.trace.append(node.name)\n", "make(data, trace=trace)\n", "hops = len(trace)\n"),
        passes="tracer = net.trace(sample=1)\n",
    ),
    Row(
        "test-only-code",
        (
            Defined(
                "Counter", "Gauge", "Histogram", "DEFAULT_BUCKETS_NS", "_owned_metric", "_owned",
                "flag_names", "is_error", "to_unsigned64", "tlv_offset", "find_tlv", "first_segment",
                "final_segment", "set_dst", "matches_prefix", "pop_srh", "decap_outer", "verify_program",
                "echo_request", "_work",
            ),
            Def("counter", "gauge", "histogram", "submit", "utilisation", "mapped", "cb", "ipv6"),
        ),  # fmt: skip
        SRC_BENCH,
        "the registry's owned metrics and the functions only tests called stay gone: register a "
        "collector, or give the code a caller outside tests/ (tests/test_src_callers.py)",
        "37",
        (
            "class Counter:\n    pass\n",
            "from repro.telemetry import Gauge\n",
            "def find_tlv(srh, kind):\n    pass\n",
            "class CpuQueue:\n    def submit(self, pkt, process):\n        pass\n",
        ),
        passes="from collections import Counter\nseen = Counter(words)\npool.submit(job)\n",
    ),
    Row(
        "second-srh-rule",
        (Ident("srh_wire_len", "validate_srh_bytes", "reference_seg6", "_generic_fn", "_needs_skb"),),
        ("src/", "benchmarks/*.py", "tests/"),
        "one SRH accept rule, srh_wire_span plus the TLV walk in validate_srh_wire, checked "
        "against tests/spec/srv6.py (docs/ARCHITECTURE.md, SRv6 on wire bytes)",
        "40",
        ("n = srh_wire_len(data, off)\n", "from repro.net import reference_seg6\n"),
        passes="n = srh_wire_span(data, off)\n",
    ),
    Row(
        "tcp-header-copy",
        (Call("TcpHeader.parse"), Call("bytes", args=("pkt.data",))),
        ("src/repro/sim/tcp.py",),
        "a TCP endpoint reads arriving headers in place (docs/ARCHITECTURE.md, TCP)",
        "29",
        ("hdr = TcpHeader.parse(pkt.data, off)\n", "data = bytes(pkt.data)\n"),
        passes="seq = int.from_bytes(pkt.data[off + 4 : off + 8], 'big')\n",
    ),
    Row(
        "tcp-one-image",
        (Call("make_tcp_packet"),),
        ("src/repro/sim/tcp.py",),
        "a TCP endpoint stamps seq, ack and the checksum into a copy of one image per "
        "connection (docs/ARCHITECTURE.md, TCP)",
        "29",
        ("a = make_tcp_packet(src, dst, hdr)\nb = make_tcp_packet(src, dst, hdr)\n",),
        passes="image = make_tcp_packet(src, dst, hdr)\n",
        count=(operator.eq, 1),
    ),
    Row(
        "one-assembler",
        (Import("repro.ebpf.asm"), Call("assemble"), Def("assemble"), Ident("[A-Z_]+_ASM")),
        ("src/", "examples/"),
        "there is one eBPF text language, the kernel syntax repro.ebpf.text reads and "
        "disassemble() prints (docs/API.md, The eBPF text toolchain)",
        "20",
        ("from .asm import assemble\n", "prog = assemble(src)\n", "END_ASM = 'exit'\n"),
        passes="prog = Program(src)\n",
        at="src/repro/ebpf/snippet.py",
    ),
    Row(
        "classic-mnemonics",
        (Text(rf"^\s*(\w+:\s*)?{MNEMONIC}", needle=MNEMONIC),),
        TEXT_TREES,
        "eBPF text is kernel syntax: write r6 = r1, not mov r6, r1 (docs/API.md, Instruction syntax)",
        "20",
        ("SRC = '''\nmov r6, r1\nexit\n'''\n", 'SRC = "ldxw r0, [r1+0]"\n'),
        passes="SRC = '''\nr6 = r1\nexit\n'''\n",
        # The case tables that name each test by its bpf_asm mnemonic, the
        # id the suite has always printed.
        allow=(
            ("tests/ebpf/test_asm.py", "ROUNDTRIP_SOURCES"),
            ("tests/ebpf/test_easm.py", "FORMS"),
            ("tests/ebpf/test_jit.py", "FIXED_CASES"),
            ("tests/ebpf/test_vm.py", "ALU64_CASES"),
        ),
        at="tests/ebpf/test_asm.py",
    ),
    Row(
        "one-text-door",
        (Ident("load_text", "link_text", "PendingBranch", "Section"), Attr(".sections")),
        ("src/", "examples/", "tests/", "benchmarks/*.py"),
        "one .s source is one program through Program(src) or net.load: no section object, "
        "second text door or multi-object link (docs/API.md, The eBPF text toolchain)",
        "44",
        ("prog = load_text(src)\n", "for s in obj.sections:\n    pass\n"),
        passes="prog = Program(src)\n",
    ),
    Row(
        "section-directives",
        (Text(rf"^\s*{DIRECTIVE}", needle=DIRECTIVE),),
        ("src/", "examples/", "tests/", "benchmarks/*.py"),
        "one .s source is one program, as one ELF section is to a 4.18 LWT hook "
        "(docs/API.md, Directives)",
        "44",
        ("SRC = '''\n.section lwt_in\nexit\n'''\n",),
        passes="SRC = '''\n.map counts array 4 8 1\nexit\n'''\n",
        allow=(("tests/ebpf/test_easm.py", "test_asm_errors"),),  # the parser refuses each one
        at="tests/ebpf/test_easm.py",
    ),
    Row(
        "pcap-tap",
        (
            Import("repro.sim.pcap"),
            Ident("PcapWriter", "PcapCapture", "read_pcap", "tap_device", "_pcaps"),
            Def("pcap"),
            Call(".pcap"),
        ),
        ("src/", "tests/", "benchmarks/*.py", "examples/"),
        "a node's traffic is read through net.trace() records and the metrics registry; no "
        "capture wraps Node.receive_batch on the instance (docs/API.md, repro.trace)",
        "51",
        (
            "from repro.sim.pcap import PcapWriter\n",
            "tap_device(dev, writer, 'rx')\n",
            "def pcap(self, node, dev=None):\n    pass\n",
            "capture = net.pcap('R', 'eth0')\n",
        ),
        passes="path = tmp_path / 'tx.pcap'\nsink = FileSink(path)\n",
    ),
    Row(
        "input-batch-alias",
        (Ident("_input_batch"),),
        ("src/", "tests/", "benchmarks/*.py"),
        "a node's own dispatches (a send, a CPU completion) enter Node.receive_batch like a "
        "link's delivery: no alias to bypass a wrapper (docs/ARCHITECTURE.md, the batch loop)",
        "51",
        ("_input_batch = receive_batch\n", "self._input_batch(pkts, None, False, False)\n"),
        passes="self.receive_batch(pkts, None, False, False)\n",
    ),
    Row(
        "topo-delegates",
        (
            Def("add_node", "add_link", "netem", "cpu", "config", "attach", "load", "trafgen",
                "sink", "tcp", "run", "node", "__getitem__", "scheduler"),
            Call("self.add_node", "self.add_link", "self.netem", "self.cpu", "self.config",
                 "self.attach", "self.load", "self.trafgen", "self.sink", "self.tcp", "self.run"),
        ),  # fmt: skip
        ("src/repro/lab/topo.py", "src/repro/lab/setups.py"),
        "a Topo builds through its Network: build() bodies write self.net.add_node(...), "
        "with no second spelling of each builder call (docs/API.md, repro.lab)",
        "51",
        (
            "class Topo:\n    def add_node(self, *args, **kwargs):\n"
            "        return self.net.add_node(*args, **kwargs)\n",
            "def build(self):\n    self.add_node('R', addr='fc00:e::1')\n",
        ),
        passes="def build(self):\n    self.net.add_node('R', addr='fc00:e::1')\n",
    ),
    Row(
        "run-result",
        (Ident("RunResult"), Code(ast.With, r"^with [^\n]*\.run\(", "run")),
        ("src/", "tests/", "benchmarks/*.py", "examples/"),
        "net.run returns the executed-event count as an int: no context manager that does "
        "nothing (docs/API.md, repro.lab)",
        "51",
        ("from repro.lab import RunResult\n", "with net.run(until_ns=10) as executed:\n    pass\n"),
        passes="executed = net.run(until_ns=10)\nresult = ShardRunResult(executed, shards=2)\n",
    ),
    Row(
        "one-cpu-door",
        (Ident("cpu_queue_limit", "cpe_cpu"), Code(ast.Call, r"\badd_node\(.*\bcpu=", "add_node")),
        ("src/", "tests/", "benchmarks/*.py", "examples/"),
        "a CPU cost model is attached one way, net.cpu(node, model, queue_limit=), as "
        "net.netem attaches a qdisc (docs/API.md, repro.lab)",
        "51",
        (
            "net.add_node('M', addr=M_ADDR, cpu=CostModel())\n",
            "def build_setup2(link0, cpe_cpu=None):\n    pass\n",
            "net.add_node('M', cpu=model, cpu_queue_limit=5)\n",
        ),
        passes="net.add_node('M', addr=M_ADDR)\nnet.cpu('M', CostModel(), queue_limit=5)\n",
    ),
]


# -- the scan -----------------------------------------------------------------------------------


def _covers(row: Row, path: str) -> bool:
    reads_text = any(isinstance(form, Text) for form in row.what)
    if not (path.endswith(".py") or reads_text and path.endswith(TEXT_SUFFIXES)):
        return False
    for tree in row.trees:
        if tree.endswith("/"):
            if path.startswith(tree):
                return True
        elif fnmatchcase(path, tree) and path.count("/") == tree.count("/"):
            return True
    return False


def _allowed(row: Row, path: str, tree: ast.Module, line: int) -> bool:
    sites = [fn for file, fn in row.allow if file == path]
    if not sites:
        return False
    scope = _scope_at(tree.body, line)
    return any(fn == "*" or scope == fn or scope.startswith(fn + ".") for fn in sites)


def _scope_at(body: list, line: int, scope: str = "") -> str:
    """The dotted name of the definition enclosing ``line`` (decorators
    included); a module-level assignment is the site of its table."""
    for stmt in body:
        start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
        if not start <= line <= stmt.end_lineno:
            continue
        if isinstance(stmt, DEFS):
            scope = f"{scope}.{stmt.name}" if scope else stmt.name
        elif not scope and isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
            return stmt.targets[0].id
        inner = [s for field in ("body", "orelse", "finalbody", "handlers") for s in getattr(stmt, field, ())]
        return _scope_at(inner, line, scope)
    return scope


def _nodes(tree: ast.Module) -> list:
    """Every node of ``tree``, in one pass."""
    out = [tree]
    for node in out:  # grows as it goes
        for field in node._fields:
            value = getattr(node, field, None)
            if type(value) is list:
                out.extend([v for v in value if isinstance(v, ast.AST)])
            elif isinstance(value, ast.AST):
                out.append(value)
    return out


def _not_text(nodes: list) -> set:
    """The ids of docstrings and of f-string parts (read with their f-string)."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.JoinedStr):
            found.update(map(id, node.values))
        elif isinstance(node, (ast.Module, *DEFS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _module_of(path: str) -> str:
    parts = Path(path).with_suffix("").parts
    return ".".join(parts[1:] if parts[0] == "src" else parts)


@cache
def _needle(row: Row) -> re.Pattern:
    return re.compile("|".join(form.needle for form in row.what))


def scan(files: dict[str, str], rows=ROWS) -> dict[str, list[str]]:
    """Findings per row id over ``files`` (repo-relative path -> text),
    each ``path:line: [row] form — reason (deleted in PR n)``."""
    findings: dict[str, list[str]] = {}
    for path in sorted(files):
        covering = tuple(row for row in rows if _covers(row, path))
        if not covering:
            continue
        text = files[path]
        # A count row must see its file even where nothing matches.
        mine = [row for row in covering if row.count or _needle(row).search(text)]
        if not mine:
            continue
        hits: dict[int, set] = {i: set() for i in range(len(mine))}
        if path.endswith(".py"):
            dispatch: dict[type, list] = {}
            for i, row in enumerate(mine):
                for form in row.what:
                    for kind in form.types:
                        dispatch.setdefault(kind, []).append((i, form))
            tree = ast.parse(text, path)
            nodes = _nodes(tree)
            file = File(_module_of(path), _not_text(nodes))
            for node in nodes:
                for i, form in dispatch.get(type(node), ()):
                    for line in form.hits(node, file):
                        if not _allowed(mine[i], path, tree, line):
                            hits[i].add((line, form.label))
        else:
            for i, row in enumerate(mine):
                for form in row.what:
                    hits[i] |= {(line, form.label) for line in form.lines(text)}
        for i, row in enumerate(mine):
            found = sorted(hits[i])
            if row.count is not None:
                op, bound = row.count
                if op(len(found), bound):
                    continue
                want = f"{'at most' if op is operator.le else 'exactly'} {bound}"
                found = [
                    (line, f"{len(found)} x {label}, want {want}")
                    for line, label in found or [(1, row.what[0].label)]
                ]
            for line, label in found:
                findings.setdefault(row.id, []).append(
                    f"{path}:{line}: [{row.id}] {label} — {row.reason} (deleted in PR {row.pr})"
                )
    return findings


@cache
def _tree_findings() -> dict[str, list[str]]:
    own = Path(__file__).resolve()
    files = {}
    for top in SCANNED:
        for path in sorted((REPO / top).rglob("*")):
            if path.suffix in (".py", *TEXT_SUFFIXES) and path != own and path.is_file():
                files[path.relative_to(REPO).as_posix()] = path.read_text()
    return scan(files)


def _snippet_path(row: Row) -> str:
    if row.at:
        return row.at
    tree = row.trees[0]
    return tree + "snippet.py" if tree.endswith("/") else tree.replace("*", "snippet")


def _near_misses(row: Row) -> list[str]:
    """``row.passes`` extended by each flagged snippet as a comment and as a
    backquoted docstring mention, and by an unrelated ``Counter``."""
    out = [row.passes + "from collections import Counter\nseen = Counter(words)\n"]
    for snippet in row.flags:
        lines = snippet.splitlines()
        out.append(row.passes + "".join(f"# {line}\n" for line in lines))
        mention = "".join(f"    ``{line}``\n" for line in lines)
        out.append(row.passes + f'def gone():\n    """Once:\n\n{mention}    """\n')
    return out


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_structure(row):
    missing = [t for t in row.trees if "*" not in t and not (REPO / t).exists()]
    assert not missing, f"[{row.id}] covers trees that do not exist: {missing}"
    at = _snippet_path(row)
    for snippet in row.flags:
        assert scan({at: snippet}, [row]), f"[{row.id}] does not flag its snippet at {at}:\n{snippet}"
    for near in _near_misses(row):
        assert not scan({at: near}, [row]), f"[{row.id}] flags a near-miss at {at}:\n{near}"
    found = _tree_findings().get(row.id, [])
    assert not found, "\n".join(found)
