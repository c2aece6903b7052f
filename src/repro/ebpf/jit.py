"""Just-in-time compilation of eBPF bytecode to specialised Python.

The kernel JIT removes the interpreter's per-instruction fetch/decode/
dispatch by emitting native code.  We do the moral equivalent for a Python
host: each program is translated once into a dedicated Python function in
which

* registers are local variables (no register-file indexing),
* instruction semantics are inlined expressions (no dispatch), byte
  swaps included: ``be16`` / ``be32`` / ``be64`` truncate to their width
  and swap in one expression each, where the interpreter calls a function,
* a helper call passes exactly the helper's arguments,
  ``_hN(hctx, r1, ..., rk)``, to the plain ``Helper.fn`` — or, when the
  invocation records a ``helper_trace``, to the tracing
  :class:`~repro.ebpf.helpers.Helper` — chosen once in the prologue,
* an array-map lookup the verifier tied to one map and a stack key is no
  call at all: a bounds check and an index, as Linux's ``array_map_gen_lookup``,
* control flow is *threaded*: basic blocks are laid out in program order
  and guarded by a single integer state variable, so a straight-line
  program runs top to bottom without ever returning to a dispatcher
  (and a single-block program compiles to a plain function body);
* memory accesses whose region the verifier already proved —
  context, stack, packet or a map value — compile to direct byte-array
  indexing on that region's backing buffer, skipping the generic
  :class:`repro.ebpf.memory.Memory` bisect and bounds/permission check.
  The safety argument is the verifier's: a ctx access is within
  ``CTX_FIELDS``, a stack access within the 512-byte frame, a packet
  access below a runtime-checked ``data_end``, a map-value access at a
  constant offset inside ``value_size`` of a value this invocation looked
  up (so ``Memory.values`` holds its buffer) — exactly how the kernel JIT
  trusts verifier proofs instead of re-checking at runtime.

There is one translator; "v2" in the archived ``BENCH_pr4.json`` rows
refers to it.  What it specialised is counted on the :class:`JitProgram`
it built; the one process-wide counter is the handler hit/miss pair.

The translated function is exactly semantics-preserving with respect to
:class:`repro.ebpf.vm.Interpreter`; the test suite runs differential
checks between the engines (including the golden corpus, 64 seeded
packets per program).  The speedup this buys over the interpreter is the
quantity the paper's §3.2 JIT experiment measures (÷1.8 throughput with
the JIT disabled).
"""

from __future__ import annotations

import struct

from . import isa
from .context import OFF_MARK
from .errors import VmFault
from .helpers import HELPERS_BY_ID, HelperContext
from .insn import Instruction, flatten
from .maps import ArrayMap
from .memory import CTX_BASE, PACKET_BASE, STACK_BASE

_M64 = "0xFFFFFFFFFFFFFFFF"
_M32 = "0xFFFFFFFF"

_STRUCT_U16 = struct.Struct("<H")
_STRUCT_U32 = struct.Struct("<I")
_STRUCT_U64 = struct.Struct("<Q")


def _s64(value: int) -> int:
    return value - 0x10000000000000000 if value & 0x8000000000000000 else value


def _s32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value & 0x80000000 else value


# Names bound into every compiled function's globals.  The _lu/_su entries
# are pre-bound struct methods: unpack_from/pack_into read and write the
# region bytearrays in place without slicing (no per-access allocation).
_BASE_NAMESPACE = {
    "_s64": _s64,
    "_s32": _s32,
    "VmFault": VmFault,
    "_lu16": _STRUCT_U16.unpack_from,
    "_lu32": _STRUCT_U32.unpack_from,
    "_lu64": _STRUCT_U64.unpack_from,
    "_su16": _STRUCT_U16.pack_into,
    "_su32": _STRUCT_U32.pack_into,
    "_su64": _STRUCT_U64.pack_into,
}

# Region-specialisation tables: verifier tag -> (buffer local, guest base).
_REGION_BUF = {"ctx": "_ctxd", "stack": "_stkd", "pkt": "_pktd"}
_REGION_BASE = {"ctx": CTX_BASE, "stack": STACK_BASE, "pkt": PACKET_BASE}
_REGION_BIND = {
    "ctx": "_ctxd = _skb.ctx_region.data",
    "stack": "_stkd = _skb.stack_region.data",
    "pkt": "_pktd = _skb.packet_region.data",
}

def _compile(source: str):
    namespace = dict(_BASE_NAMESPACE)
    exec(compile(source, "<ebpf-jit>", "exec"), namespace)
    return namespace["_ebpf_jitted"]


class JitProgram:
    """A compiled program; call :meth:`run` like the interpreter.

    ``regions`` is the verifier's slot-pc → region-tag annotation map
    (see :attr:`repro.ebpf.verifier.Verifier.region_hints`).  Accesses
    tagged ``ctx``/``stack``/``pkt``/``("map_value", offset)`` compile to
    direct byte-array access, a lookup tagged ``("map_key", array, key
    offset, values' base)`` inline; without annotations (or for ``mixed``
    ones) the generic ``Memory`` path and the helper are emitted, so a
    :class:`JitProgram` built from raw instructions still runs unverified
    test programs faithfully.  A function specialised on ctx, stack or
    packet needs ``hctx.skb``; map values come from ``mem``.

    :attr:`region_loads` / :attr:`region_stores` count the memory accesses
    the translation compiled to direct region indexing instead of the
    generic ``Memory`` path.
    """

    def __init__(self, insns: list[Instruction], helpers=None, regions=None):
        self.helpers = helpers if helpers is not None else HELPERS_BY_ID
        self.source, spec = _translate(list(insns), self.helpers, regions)
        self._fn = _compile(self.source)
        self.region_loads = spec.loads
        self.region_stores = spec.stores

    def run(self, hctx: HelperContext, ctx_addr: int, stack_top: int) -> int:
        return self._fn(hctx, hctx.mem, self.helpers, ctx_addr, stack_top)


class CompiledHandler:
    """One attach site's reusable guest address space (§3.2's invocation cost).

    ``Program.make_context`` assembles a fresh guest address space —
    memory object, packet/context/stack regions, map-handle regions,
    helper context — for every packet.  That setup dominates the cost of
    running small programs, the way program fetch/setup dominates an
    eBPF invocation in the kernel before batching.

    A handler belongs to the attach site that built it (an ``EndBPF``,
    one hook of a ``BpfLwt``; built on the site's first packet) and
    builds the address space once, here.  The one invocation,
    :func:`repro.net.seg6local.run_attached`, re-arms it for every
    packet: ``pkt.data`` itself becomes :attr:`packet_region`'s buffer,
    and only what the program can observe is reset, by a plan computed
    here once from the verifier's
    :class:`~repro.ebpf.verifier.ProgramFacts` — so the result is
    observably identical to a fresh context whichever node, batch or
    group the previous packet belonged to:

    * :attr:`rearms_ctx` — a ctx field load or store, or a helper call:
      rewrite the fields for the bound packet and zero ``cb``;
    * :attr:`zeroes_stack` — the frame is touched: wipe it;
    * :attr:`calls_helpers` — clear the trace log and metadata and bind
      the packet and node; then :attr:`restores_regions` only with a
      non-array lookup, :attr:`binds_clock` only with a clock reader
      (``ktime_get_ns``, ``perf_event_output``) and :attr:`binds_rng`
      only with ``get_prandom_u32``: no other helper reads the three;
    * :attr:`resets` — any of these.  A program with trivial facts
      (``end.s``: no ctx access, helper call or stack use) gets the
      packet bind alone.

    After the call, :attr:`reads_back` gates the read-back: the mark if
    the program stores ``skb->mark`` (:attr:`writes_mark`), the §3.1 SRH
    re-validation after a helper call.  :attr:`fn` is the translated
    function (``None``: interpret), called with :attr:`hctx` and its
    invariant arguments :attr:`mem` and :attr:`helpers`.
    """

    def __init__(self, program, attach_point: str):
        self.program = program
        self.attach_point = attach_point
        HANDLER_COUNTS.misses += 1
        hctx = self.hctx = program.make_context(b"")
        hctx.hook = attach_point
        hctx.clock_ns = hctx.rng = None  # bound per invocation, where a helper reads them
        self.packet_region = hctx.skb.packet_region
        self.mem = hctx.mem
        self.snapshot = hctx.mem.snapshot()
        jitp = program._jit
        self.fn = None if jitp is None else jitp._fn
        self.helpers = None if jitp is None else jitp.helpers

        facts = program.facts
        helpers = {HELPERS_BY_ID[helper_id].name for helper_id in facts.helpers}
        self.calls_helpers = bool(helpers)
        self.writes_mark = OFF_MARK in facts.ctx_writes
        self.rearms_ctx = self.calls_helpers or bool(facts.ctx_reads or facts.ctx_writes)
        self.zeroes_stack = facts.touches_stack
        arrays_only = all(isinstance(m, ArrayMap) for m in program.maps_by_addr.values())
        self.restores_regions = "map_lookup_elem" in helpers and not arrays_only
        self.binds_clock = not helpers.isdisjoint(("ktime_get_ns", "perf_event_output"))
        self.binds_rng = "get_prandom_u32" in helpers
        self.resets = self.rearms_ctx or self.zeroes_stack
        self.reads_back = self.writes_mark or self.calls_helpers


class _HandlerCounts:
    """Process-wide, for benchmarks/ledger (read through the two functions
    below): a miss is an address space built, a hit an invocation
    re-arming one (counted by ``run_attached``)."""

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = self.misses = 0


HANDLER_COUNTS = _HandlerCounts()


def handler_cache_stats() -> dict:
    """Handler hits and misses, summed over every attach site in the process.

    ``handler_misses`` counts guest address spaces built (one per
    :class:`CompiledHandler`), ``handler_hits`` the invocations that
    re-armed one (every :func:`~repro.net.seg6local.run_attached`).
    """
    return {"handler_hits": HANDLER_COUNTS.hits, "handler_misses": HANDLER_COUNTS.misses}


def clear_handler_cache() -> None:
    """Zero the handler hit/miss counters.

    A handler lives on its attach site and is rebuilt only when the
    site's program is replaced: a run that should start cold builds new
    sites.
    """
    HANDLER_COUNTS.hits = HANDLER_COUNTS.misses = 0


def _block_starts(slots) -> list[int]:
    """Compute basic-block leader slots."""
    leaders = {0}
    for pc, insn in enumerate(slots):
        if insn is None or insn.klass not in (isa.BPF_JMP, isa.BPF_JMP32):
            continue
        op = insn.opcode & isa.OP_MASK
        if op == isa.BPF_CALL:
            continue
        if op != isa.BPF_EXIT:
            leaders.add(pc + 1 + insn.off)
        if pc + 1 < len(slots):
            leaders.add(pc + 1)
    return sorted(leaders)


def _used_registers(slots) -> set[int]:
    """Registers the program can observe; only these get a prologue init.

    Trivial programs (the common End.BPF case) touch two or three
    registers — initialising all ten costs more than their whole body.
    Any register referenced anywhere is initialised, so a (non-verified)
    read-before-write still sees 0, exactly as before.
    """
    used = {isa.R0}  # every program returns r0
    for insn in slots:
        if insn is None:
            continue
        klass = insn.klass
        if klass in (isa.BPF_JMP, isa.BPF_JMP32):
            op = insn.opcode & isa.OP_MASK
            if op == isa.BPF_CALL:
                used.update(range(6))  # r0 result, r1-r5 arguments
                continue
            if op in (isa.BPF_EXIT, isa.BPF_JA):
                continue
            used.add(insn.dst_reg)
            if insn.opcode & isa.BPF_X:
                used.add(insn.src_reg)
            continue
        used.add(insn.dst_reg)
        if klass in (isa.BPF_LDX, isa.BPF_STX):
            used.add(insn.src_reg)
        elif klass in (isa.BPF_ALU, isa.BPF_ALU64):
            op = insn.opcode & isa.OP_MASK
            if insn.opcode & isa.BPF_X and op not in (isa.BPF_END, isa.BPF_NEG):
                used.add(insn.src_reg)
    return used


def _translate(insns: list[Instruction], helpers, regions=None):
    """The translator: threaded blocks + region-specialised memory.

    Returns ``(source, spec)``; ``spec`` counts the specialised accesses.
    """
    slots = flatten(insns)
    leaders = _block_starts(slots)
    block_id = {pc: i for i, pc in enumerate(leaders)}
    regions = regions or {}

    # Which region buffers the specialised sites need, and whether any
    # access still goes through the generic Memory path.
    spec = _Spec(slots, regions)

    arity = {}  # helper id -> argument count, for each helper the program calls
    for pc, insn in enumerate(slots):
        if insn is not None and insn.opcode == (isa.BPF_JMP | isa.BPF_CALL):
            if insn.imm not in helpers:
                raise VmFault(f"JIT: unknown helper id {insn.imm}")
            if pc not in spec.lookups:
                arity[insn.imm] = len(helpers[insn.imm].args)

    lines = ["def _ebpf_jitted(hctx, mem, helpers, ctx_addr, stack_top):"]
    if spec.generic_loads:
        lines.append("    _load = mem.load")
    if spec.generic_stores:
        lines.append("    _store = mem.store")
    if spec.buffers:
        lines.append("    _skb = hctx.skb")
        for tag in ("ctx", "stack", "pkt"):
            if tag in spec.buffers:
                lines.append("    " + _REGION_BIND[tag])
    if spec.values:
        lines.append("    _values = mem.values")
    if spec.lookups:
        lines.append("    _tr = hctx.helper_trace")
    if arity:
        # Once per invocation: the plain functions, or the tracing Helpers.
        lines.append("    if hctx.helper_trace is None:")
        lines.extend(f"        _h{hid} = helpers[{hid}].fn" for hid in arity)
        lines.append("    else:")
        lines.extend(f"        _h{hid} = helpers[{hid}]" for hid in arity)

    used = _used_registers(slots)
    zero_regs = sorted(r for r in used if r not in (isa.R1, isa.R10))
    if zero_regs:
        lines.append("    " + " = ".join(f"r{r}" for r in zero_regs) + " = 0")
    if isa.R1 in used or not zero_regs:
        lines.append("    r1 = ctx_addr")
    if isa.R10 in used:
        lines.append("    r10 = stack_top")

    if len(leaders) == 1:
        # Single basic block: no dispatch state at all — the program is
        # a straight-line function body.
        body = _emit_block(slots, 0, leaders, block_id, spec, arity)
        lines.extend("    " + stmt for stmt in body)
        return "\n".join(lines) + "\n", spec

    # Threaded layout: blocks in program order, each guarded by one
    # integer compare.  A forward transfer assigns ``_b`` and falls
    # through the remaining guards (at most one compare per block per
    # run); the enclosing loop only ever re-runs for a backward jump,
    # which verified programs cannot contain.
    lines.append("    _b = 0")
    lines.append("    while True:")
    for index, leader in enumerate(leaders):
        lines.append(f"        if _b == {index}:")
        body = _emit_block(slots, leader, leaders, block_id, spec, arity)
        lines.extend("            " + stmt for stmt in body)
    return "\n".join(lines) + "\n", spec


class _Spec:
    """Which accesses specialise to which region buffers (translation plan)."""

    def __init__(self, slots, regions):
        self.regions = regions
        self.lookups = {  # call pc -> hint of each array-map lookup compiled inline
            pc: t for pc, t in regions.items() if t[0] == "map_key" and isinstance(t[1], ArrayMap)
        }
        # Of ctx/stack/pkt, bound from hctx.skb; an inline lookup reads its key from the stack.
        self.buffers: set[str] = {"stack"} if self.lookups else set()
        self.values = False  # some access indexes mem.values
        self.generic_loads = False
        self.generic_stores = False
        self.loads = 0
        self.stores = 0
        for pc, insn in enumerate(slots):
            if insn is None or insn.klass not in (isa.BPF_LDX, isa.BPF_ST, isa.BPF_STX):
                continue
            tag = self.tag_for(pc)
            if tag in _REGION_BUF:
                self.buffers.add(tag)
            elif tag is not None:
                self.values = True
            elif insn.klass == isa.BPF_LDX:
                self.generic_loads = True
            else:
                self.generic_stores = True

    def tag_for(self, pc: int):
        """``ctx``/``stack``/``pkt``, ``("map_value", offset)``, or None for the generic path."""
        tag = self.regions.get(pc)
        return tag if tag in _REGION_BUF or type(tag) is tuple else None


_LOAD_FN = {2: "_lu16", 4: "_lu32", 8: "_lu64"}
_STORE_FN = {2: "_su16", 4: "_su32", 8: "_su64"}
_SIZE_MASKS = {1: "0xFF", 2: "0xFFFF", 4: "0xFFFFFFFF"}


def _spec_site(reg: int, insn_off: int, tag) -> tuple[str, str]:
    """(buffer, index) expressions of a specialised access through ``r<reg> + insn_off``."""
    if type(tag) is tuple:
        # ("map_value", offset): the access is at ``offset`` inside the value,
        # so the value's base address is the register plus ``insn_off - offset``.
        back = insn_off - tag[1]
        return (f"_values[r{reg} + {back}]" if back else f"_values[r{reg}]"), str(tag[1])
    off = insn_off - _REGION_BASE[tag]
    return _REGION_BUF[tag], (f"r{reg} + {off}" if off else f"r{reg}")


def _emit_spec_load(insn, tag, size) -> str:
    buf, idx = _spec_site(insn.src_reg, insn.off, tag)
    if size == 1:
        return f"r{insn.dst_reg} = {buf}[{idx}]"
    return f"r{insn.dst_reg} = {_LOAD_FN[size]}({buf}, {idx})[0]"


def _emit_spec_store(insn, tag, size, value: str) -> str:
    buf, idx = _spec_site(insn.dst_reg, insn.off, tag)
    if size == 1:
        return f"{buf}[{idx}] = {value}"
    return f"{_STORE_FN[size]}({buf}, {idx}, {value})"


def _emit_block(slots, start, leaders, block_id, spec, arity) -> list[str]:
    out: list[str] = []
    pc = start
    next_leader_idx = leaders.index(start) + 1
    block_end = leaders[next_leader_idx] if next_leader_idx < len(leaders) else len(slots)

    while pc < block_end:
        insn = slots[pc]
        if insn is None:
            pc += 1
            continue
        klass = insn.klass
        if klass in (isa.BPF_ALU, isa.BPF_ALU64):
            out.append(_emit_alu(insn))
            pc += 1
        elif klass == isa.BPF_LD:
            out.append(f"r{insn.dst_reg} = {insn.lddw_value:#x}")
            pc += 2
        elif klass == isa.BPF_LDX:
            size = isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK]
            tag = spec.tag_for(pc)
            if tag is not None:
                out.append(_emit_spec_load(insn, tag, size))
                spec.loads += 1
            else:
                out.append(
                    f"r{insn.dst_reg} = _load((r{insn.src_reg} + {insn.off}) & {_M64}, {size})"
                )
            pc += 1
        elif klass == isa.BPF_STX:
            size = isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK]
            tag = spec.tag_for(pc)
            if tag is not None:
                # Registers invariantly hold 0..2^64-1, so only narrow
                # stores need a mask before packing.
                value = f"r{insn.src_reg}"
                if size != 8:
                    value = f"{value} & {_SIZE_MASKS[size]}"
                out.append(_emit_spec_store(insn, tag, size, value))
                spec.stores += 1
            else:
                out.append(
                    f"_store((r{insn.dst_reg} + {insn.off}) & {_M64}, {size}, r{insn.src_reg})"
                )
            pc += 1
        elif klass == isa.BPF_ST:
            size = isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK]
            tag = spec.tag_for(pc)
            if tag is not None:
                value = f"{insn.imm & ((1 << (8 * size)) - 1):#x}"
                out.append(_emit_spec_store(insn, tag, size, value))
                spec.stores += 1
            else:
                out.append(
                    f"_store((r{insn.dst_reg} + {insn.off}) & {_M64}, {size}, "
                    f"{insn.imm & isa.U64:#x})"
                )
            pc += 1
        elif klass in (isa.BPF_JMP, isa.BPF_JMP32):
            op = insn.opcode & isa.OP_MASK
            if op == isa.BPF_EXIT:
                out.append("return r0")
                return out
            if op == isa.BPF_CALL:
                if pc in spec.lookups:  # the u32 stack key, one bounds check, one index
                    _tag, m, key_off, base = spec.lookups[pc]
                    out.append(f"_k = _lu32(_stkd, {isa.STACK_SIZE + key_off})[0]")
                    out.append(f"r0 = {base:#x} + _k * {m._stride} if _k < {m.max_entries} else 0")
                    out.append("if _tr is not None: _tr.append(('map_lookup_elem', (r1, r2), r0))")
                else:
                    args = "".join(f", r{reg}" for reg in range(1, arity[insn.imm] + 1))
                    out.append(f"r0 = int(_h{insn.imm}(hctx{args})) & {_M64}")
                pc += 1
                continue
            if op == isa.BPF_JA:
                out.append(f"_b = {block_id[pc + 1 + insn.off]}")
                return out
            cond = _emit_cond(insn)
            out.append(f"if {cond}:")
            out.append(f"    _b = {block_id[pc + 1 + insn.off]}")
            out.append("else:")
            out.append(f"    _b = {block_id[pc + 1]}")
            return out
        else:
            raise VmFault(f"JIT: unknown class {klass:#x} at {pc}")

    # Fallthrough into the next block.
    if pc < len(slots):
        out.append(f"_b = {block_id[pc]}")
    else:
        out.append("raise VmFault('fell off the end of the program')")
    return out


def _emit_alu(insn: Instruction) -> str:
    op = insn.opcode & isa.OP_MASK
    is64 = insn.klass == isa.BPF_ALU64
    mask = _M64 if is64 else _M32
    shift_mask = 63 if is64 else 31
    dst = f"r{insn.dst_reg}"

    if op == isa.BPF_END:
        # Truncate to the width (a register already fits 64 bits), then swap.
        width = insn.imm
        if not insn.opcode & isa.BPF_TO_BE:
            return f"{dst} = {dst} & {(1 << width) - 1:#x}"
        if width == 16:
            return f"{dst} = (({dst} & 0xFF) << 8) | (({dst} >> 8) & 0xFF)"
        low = dst if width == 64 else f"({dst} & {(1 << width) - 1:#x})"
        return f"{dst} = int.from_bytes({low}.to_bytes({width // 8}, 'little'), 'big')"
    if op == isa.BPF_NEG:
        return f"{dst} = (-{dst}) & {mask}"

    if insn.opcode & isa.BPF_X:
        src = f"r{insn.src_reg}" if is64 else f"(r{insn.src_reg} & {_M32})"
    else:
        value = insn.imm & isa.U64 if is64 else insn.imm & isa.U32
        src = f"{value:#x}"

    lhs = dst if is64 else f"({dst} & {_M32})"

    if op == isa.BPF_MOV:
        return f"{dst} = {src}" if is64 else f"{dst} = {src} & {_M32}"
    if op == isa.BPF_ADD:
        return f"{dst} = ({lhs} + {src}) & {mask}"
    if op == isa.BPF_SUB:
        return f"{dst} = ({lhs} - {src}) & {mask}"
    if op == isa.BPF_MUL:
        return f"{dst} = ({lhs} * {src}) & {mask}"
    if op == isa.BPF_DIV:
        return f"{dst} = (({lhs} // {src}) & {mask}) if {src} else 0"
    if op == isa.BPF_MOD:
        return f"{dst} = (({lhs} % {src}) & {mask}) if {src} else {lhs}"
    if op == isa.BPF_OR:
        return f"{dst} = ({lhs} | {src}) & {mask}"
    if op == isa.BPF_AND:
        return f"{dst} = {lhs} & {src}"
    if op == isa.BPF_XOR:
        return f"{dst} = ({lhs} ^ {src}) & {mask}"
    if op == isa.BPF_LSH:
        return f"{dst} = ({lhs} << ({src} & {shift_mask})) & {mask}"
    if op == isa.BPF_RSH:
        return f"{dst} = ({lhs} >> ({src} & {shift_mask})) & {mask}"
    if op == isa.BPF_ARSH:
        sign = "_s64" if is64 else "_s32"
        return f"{dst} = ({sign}({lhs}) >> ({src} & {shift_mask})) & {mask}"
    raise VmFault(f"JIT: unknown ALU op {op:#x}")


def _emit_cond(insn: Instruction) -> str:
    op = insn.opcode & isa.OP_MASK
    is32 = insn.klass == isa.BPF_JMP32
    a = f"r{insn.dst_reg}"
    if insn.opcode & isa.BPF_X:
        b = f"r{insn.src_reg}"
    else:
        b = f"{insn.imm & (isa.U32 if is32 else isa.U64):#x}"
    if is32:
        a = f"({a} & {_M32})"
        b = f"({b} & {_M32})"
    signed_fn = "_s32" if is32 else "_s64"
    unsigned = {
        isa.BPF_JEQ: "==",
        isa.BPF_JNE: "!=",
        isa.BPF_JGT: ">",
        isa.BPF_JGE: ">=",
        isa.BPF_JLT: "<",
        isa.BPF_JLE: "<=",
    }
    if op in unsigned:
        return f"{a} {unsigned[op]} {b}"
    if op == isa.BPF_JSET:
        return f"({a} & {b}) != 0"
    signed = {
        isa.BPF_JSGT: ">",
        isa.BPF_JSGE: ">=",
        isa.BPF_JSLT: "<",
        isa.BPF_JSLE: "<=",
    }
    if op in signed:
        return f"{signed_fn}({a}) {signed[op]} {signed_fn}({b})"
    raise VmFault(f"JIT: unknown jump op {op:#x}")
