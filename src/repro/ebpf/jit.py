"""Just-in-time compilation of eBPF bytecode to specialised Python.

The kernel JIT removes the interpreter's per-instruction fetch/decode/
dispatch by emitting native code.  We do the moral equivalent for a Python
host: each program is translated once into a dedicated Python function in
which

* registers are local variables (no register-file indexing),
* instruction semantics are inlined expressions (no dispatch),
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

There is one translator; "v2" in the counter names and in the archived
``BENCH_pr4.json`` rows refers to it.

The translated function is exactly semantics-preserving with respect to
:class:`repro.ebpf.vm.Interpreter`; the test suite runs differential
checks between the engines (including the golden corpus, 64 seeded
packets per program).  The speedup this buys over the interpreter is the
quantity the paper's §3.2 JIT experiment measures (÷1.8 throughput with
the JIT disabled).
"""

from __future__ import annotations

import random
import struct

from . import isa
from .errors import VmFault
from .helpers import HELPERS_BY_ID, HelperContext
from .insn import Instruction, flatten
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


def _bswap(value: int, width: int) -> int:
    nbytes = width // 8
    return int.from_bytes((value & ((1 << width) - 1)).to_bytes(nbytes, "little"), "big")


# Names bound into every compiled function's globals.  The _lu/_su entries
# are pre-bound struct methods: unpack_from/pack_into read and write the
# region bytearrays in place without slicing (no per-access allocation).
_BASE_NAMESPACE = {
    "_s64": _s64,
    "_s32": _s32,
    "_bswap": _bswap,
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

# v2 runtime/translation counters, reported through handler_cache_stats()
# (and from there into repro.bench.amortisation_stats / benchmark JSON).
_JIT_V2_STATS = {
    # Translation-time: memory accesses compiled to direct region indexing
    # instead of the generic Memory path.
    "v2_region_loads": 0,
    "v2_region_stores": 0,
    # Runtime: End.BPF groups (see Node._run_group).
    "bpf_groups": 0,
    "bpf_grouped_packets": 0,
    "bpf_group_flushes": 0,
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
    direct byte-array access; without annotations (or for ``mixed`` ones)
    the generic ``Memory`` path is emitted, so a :class:`JitProgram` built
    from raw instructions still runs unverified test programs faithfully.

    A function specialised on ctx, stack or packet needs ``hctx.skb`` (map
    values come from ``mem``); for the rare caller running a bare
    :class:`~repro.ebpf.helpers.HelperContext` without one, :meth:`run`
    lazily compiles and uses the generic variant.
    """

    def __init__(self, insns: list[Instruction], helpers=None, regions=None):
        self.helpers = helpers if helpers is not None else HELPERS_BY_ID
        self._insns = list(insns)
        self.source, spec = _translate(self._insns, self.helpers, regions)
        self._fn = _compile(self.source)
        self._needs_skb = bool(spec.buffers)
        self._generic_fn = None if self._needs_skb else self._fn
        _JIT_V2_STATS["v2_region_loads"] += spec.loads
        _JIT_V2_STATS["v2_region_stores"] += spec.stores

    def run(self, hctx: HelperContext, ctx_addr: int, stack_top: int) -> int:
        fn = self._fn
        if hctx.skb is None and self._needs_skb:
            fn = self._generic_fn
            if fn is None:
                fn = self._generic_fn = _compile(_translate(self._insns, self.helpers)[0])
        return fn(hctx, hctx.mem, self.helpers, ctx_addr, stack_top)


class CompiledHandler:
    """One attach site's reusable guest address space (§3.2's invocation cost).

    ``Program.make_context`` assembles a fresh guest address space —
    memory object, packet/context/stack regions, map-handle regions,
    helper context — for every packet.  That setup dominates the cost of
    running small programs, the way program fetch/setup dominates an
    eBPF invocation in the kernel before batching.

    A handler belongs to the attach site that built it (an ``EndBPF``,
    one hook of a ``BpfLwt``), builds the address space on its first
    :meth:`arm` and *re-arms* it for every later packet.  There is one
    arming and it has no precondition: every call, the first included,
    restores the region table, binds the packet buffer, rewrites the
    context and rebinds clock, rng, packet and node, so the result is
    observably identical to a fresh context whichever node, batch or
    group the previous packet belonged to.
    :attr:`call` is what the datapath invokes after arming:
    ``(fn | None, mem, helpers)`` — the translated function (``None``:
    interpret) and its invariant arguments, fixed by the program and the
    address space.
    """

    def __init__(self, program, attach_point: str):
        self.program = program
        self.attach_point = attach_point
        self.cache_generation = _HANDLER_CACHE_GENERATION
        self.call = None
        self._hctx: HelperContext | None = None
        self._snapshot = None
        self._zero_stack = program.touches_stack

    def arm(
        self, data: bytearray, clock_ns, rng, mark: int = 0, packet=None, node=None
    ) -> HelperContext:
        """Return the context bound to ``data`` itself — the only reset of a reused one.

        ``data`` (``pkt.data`` on the datapath) becomes the guest packet
        region's buffer: nothing is copied in or back out.
        """
        hctx = self._hctx
        if hctx is None:
            _HANDLER_CACHE_STATS["handler_misses"] += 1
            program = self.program
            hctx = self._hctx = program.make_context(b"")
            hctx.hook = self.attach_point
            self._snapshot = hctx.mem.snapshot()
            jitp = program._jit if program.jit_enabled else None
            self.call = (
                (None, hctx.mem, None) if jitp is None else (jitp._fn, hctx.mem, jitp.helpers)
            )
        else:
            _HANDLER_CACHE_STATS["handler_hits"] += 1
        # Regions the last run mapped (map values) go; the packet region is
        # bound to ``data``, ctx and cb are rewritten.  The stack wipe is
        # skipped for a program the verifier proved never touches its
        # frame: it cannot have dirtied it, and every verified stack read
        # follows a same-run write.
        hctx.mem.restore(self._snapshot)
        hctx.skb.rearm(data, mark, self._zero_stack)
        hctx.clock_ns = clock_ns
        hctx.rng = rng or random.Random(0)
        hctx.cpu = 0
        hctx.trace_log.clear()
        hctx.helper_trace = None
        hctx.metadata.clear()
        hctx.packet = packet
        hctx.node = node
        return hctx


# A miss is an address space built, a hit is one re-armed.
_HANDLER_CACHE_STATS = {"handler_hits": 0, "handler_misses": 0}
# Bumped by clear_handler_cache(); a handler carries the generation it was
# built under, and the attach site that owns it drops it on a mismatch.
_HANDLER_CACHE_GENERATION = 0


def handler_cache_stats() -> dict:
    """Handler hits/misses plus the JIT v2 counters.

    ``handler_misses`` counts guest address spaces built (the first
    :meth:`CompiledHandler.arm` of each attach site's handler),
    ``handler_hits`` the invocations that re-armed one.  The v2 entries
    cover both translation (``v2_region_loads``/``v2_region_stores``:
    accesses compiled to direct region indexing) and the End.BPF groups
    of :meth:`repro.net.node.Node._run_group` (``bpf_groups``,
    ``bpf_grouped_packets``, ``bpf_group_flushes`` — the last counts
    groups cut short because a FIB-generation bump was observed after
    one of their packets).
    """
    stats = dict(_HANDLER_CACHE_STATS)
    stats.update(_JIT_V2_STATS)
    return stats


def clear_handler_cache() -> None:
    """Make every attach site rebuild its handler; reset the hit/miss + v2 counters.

    Handlers live on their attach sites (``EndBPF``, ``BpfLwt``), which
    compare :attr:`CompiledHandler.cache_generation` against the
    generation bumped here before reusing one.  Benchmarks call this so
    a run starts cold: the next packet through each site pays the
    assembly of a fresh guest address space.
    """
    global _HANDLER_CACHE_GENERATION
    _HANDLER_CACHE_GENERATION += 1
    _HANDLER_CACHE_STATS["handler_hits"] = 0
    _HANDLER_CACHE_STATS["handler_misses"] = 0
    for key in _JIT_V2_STATS:
        _JIT_V2_STATS[key] = 0


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

    used_helpers = sorted(
        {insn.imm for insn in insns if insn.opcode == (isa.BPF_JMP | isa.BPF_CALL)}
    )
    for hid in used_helpers:
        if hid not in helpers:
            raise VmFault(f"JIT: unknown helper id {hid}")

    # Which region buffers the specialised sites need, and whether any
    # access still goes through the generic Memory path.
    spec = _Spec(slots, regions)

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
    for hid in used_helpers:
        lines.append(f"    _h{hid} = helpers[{hid}]")

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
        body = _emit_block(slots, 0, leaders, block_id, spec)
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
        body = _emit_block(slots, leader, leaders, block_id, spec)
        lines.extend("            " + stmt for stmt in body)
    return "\n".join(lines) + "\n", spec


class _Spec:
    """Which accesses specialise to which region buffers (translation plan)."""

    def __init__(self, slots, regions):
        self.regions = regions
        self.buffers: set[str] = set()  # of ctx/stack/pkt: bound from hctx.skb
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


def _emit_block(slots, start, leaders, block_id, spec) -> list[str]:
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
            out.append(f"r{insn.dst_reg} = {(insn.imm64 or 0) & isa.U64:#x}")
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
                out.append(
                    f"r0 = int(_h{insn.imm}(hctx, r1, r2, r3, r4, r5)) & {_M64}"
                )
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
        if insn.opcode & isa.BPF_TO_BE:
            return f"{dst} = _bswap({dst}, {insn.imm})"
        return f"{dst} = {dst} & {(1 << insn.imm) - 1:#x}"
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
