"""Static verifier for eBPF programs.

Before a program may attach to a hook it must pass this verifier, which
enforces the safety contract the paper depends on (§3: *"eBPF code cannot
compromise the stability of the kernel"*).  The rules implemented match
the Linux verifier of the 4.18 era the paper targets:

* register-state tracking along **every execution path** (uninitialised
  reads rejected; pointer provenance tracked: context, stack, packet,
  map values);
* forward-only control flow (no loops — back edges are rejected, as the
  pre-5.3 kernel did) and a bounded instruction budget;
* the stack is 512 bytes, with spill/fill tracking of saved pointers and
  byte-granular initialisation tracking for data passed to helpers;
* context accesses restricted to the whitelisted ``__sk_buff`` fields
  (:data:`repro.ebpf.context.CTX_FIELDS`), packet reads only after an
  explicit ``data + k <= data_end`` bounds check, map-value accesses
  bounded by the map's value size;
* helper calls checked against per-helper argument specifications
  (context/scalar/map pointers, memory+size pairs with initialisation
  requirements), with R1–R5 clobbered and R0 typed by the helper's
  return contract (including the null-check discipline for
  ``map_lookup_elem``);
* division/modulo by a zero immediate rejected; shifts, stores to the
  read-only packet, and arithmetic on pointers beyond ``ptr += const``
  rejected;
* a non-zero reserved field rejected, so an ISA-v4 encoding 4.18 lacks
  is a verdict, not a silently different instruction.

The packet in LWT/seg6local programs is read-only (the paper's helpers are
the only mutation channel), so any store through a packet pointer is
rejected — stricter than tc/XDP hooks, faithful to the End.BPF design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import isa
from .context import CTX_FIELDS
from .errors import VerifierError
from .helpers import HELPERS_BY_ID, Helper
from .insn import Instruction, flatten
from .vm import _alu, _jump_taken

# Register-state kinds.
UNINIT = "uninit"
SCALAR = "scalar"
CTX = "ctx"
STACK = "stack"  # off relative to the frame pointer (r10), always <= 0
PKT = "pkt"  # off relative to skb->data
PKT_END = "pkt_end"
MAP_PTR = "map_ptr"
MAP_VALUE = "map_value"
MAP_VALUE_OR_NULL = "map_value_or_null"

_POINTER_KINDS = {CTX, STACK, PKT, PKT_END, MAP_PTR, MAP_VALUE, MAP_VALUE_OR_NULL}

_MAX_INSN_VISITS = 500_000
_MAX_HELPER_MEM = 4096

# Helpers that (may) rewrite the packet: as in the kernel, calling one
# invalidates every packet pointer the program holds, forcing a fresh
# data/data_end reload and bounds check before further packet access.
PKT_MODIFYING_HELPERS = frozenset(
    {
        "lwt_push_encap",
        "lwt_seg6_store_bytes",
        "lwt_seg6_adjust_srh",
        "lwt_seg6_action",
    }
)


@dataclass(frozen=True)
class ProgramFacts:
    """What a verified program can observe on its explored paths: helper ids
    called, ctx field offsets loaded / stored, and whether it touches its
    frame (any helper call counts: a pointer argument reaches it).  The
    attach site's invocation skips what these rule out, as the kernel's
    ``cb_access`` / ``dst_needed`` bits do (``jit.CompiledHandler``)."""

    helpers: frozenset[int]
    ctx_reads: frozenset[int]
    ctx_writes: frozenset[int]
    touches_stack: bool


@dataclass(frozen=True)
class Reg:
    """Abstract value of one register on one path."""

    kind: str = UNINIT
    off: int = 0
    const: int | None = None  # known value, for scalars only
    map: object = None  # repro.ebpf.maps.Map for map kinds
    null_id: int = 0  # identity group for map_value_or_null refinement

    def key(self):
        map_id = id(self.map) if self.map is not None else -1
        return (self.kind, self.off, self.const, map_id, self.null_id)


_UNINIT = Reg()
_SCALAR_UNKNOWN = Reg(SCALAR)


def _scalar(const: int | None = None) -> Reg:
    if const is None:
        return _SCALAR_UNKNOWN
    return Reg(SCALAR, const=const & isa.U64)


class _State:
    """Verifier state for one point on one execution path."""

    __slots__ = ("regs", "stack_init", "spills", "pkt_safe")

    def __init__(self, regs, stack_init, spills, pkt_safe):
        self.regs: list[Reg] = regs
        self.stack_init: bytes = stack_init  # 512 bool bytes, index 0 = fp-512
        self.spills: dict[int, Reg] = spills  # slot offset (<=-8, 8-aligned) -> Reg
        self.pkt_safe: int = pkt_safe  # bytes of packet proven readable

    @classmethod
    def initial(cls) -> "_State":
        regs = [_UNINIT] * isa.NUM_REGS
        regs[isa.R1] = Reg(CTX)
        regs[isa.R10] = Reg(STACK)
        return cls(regs, bytes(isa.STACK_SIZE), {}, 0)

    def clone(self) -> "_State":
        return _State(list(self.regs), self.stack_init, dict(self.spills), self.pkt_safe)

    def key(self):
        return (
            tuple(reg.key() for reg in self.regs),
            self.stack_init,
            tuple(sorted((off, reg.key()) for off, reg in self.spills.items())),
            self.pkt_safe,
        )

    # -- stack bookkeeping ---------------------------------------------------
    def mark_stack_init(self, off: int, size: int) -> None:
        start = off + isa.STACK_SIZE
        init = bytearray(self.stack_init)
        init[start : start + size] = b"\x01" * size
        self.stack_init = bytes(init)
        # Partial overwrite of a spill slot destroys the saved pointer.
        for slot in range(off & ~7, off + size, 8):
            if slot in self.spills and not (slot == off and size == 8):
                del self.spills[slot]

    def stack_is_init(self, off: int, size: int) -> bool:
        start = off + isa.STACK_SIZE
        return all(self.stack_init[start + i] for i in range(size))


def _stack_bounds_ok(off: int, size: int) -> bool:
    return -isa.STACK_SIZE <= off and off + size <= 0


class Verifier:
    """Path-exploring verifier for one program."""

    def __init__(
        self,
        insns: list[Instruction],
        slot_maps: dict[int, object] | None = None,
        helpers: dict[int, Helper] | None = None,
        allowed_helpers: Iterable[int] | None = None,
    ):
        self.insns = insns
        self.slots = flatten(insns)
        self.slot_maps = slot_maps or {}
        self.helpers = helpers if helpers is not None else HELPERS_BY_ID
        self.allowed = set(allowed_helpers) if allowed_helpers is not None else None
        self._null_counter = 0
        self._visits = 0
        # Region annotations for the JIT (slot pc -> "ctx"|"stack"|"pkt"|
        # ("map_value", offset in the value)|"mixed").  Every load/store
        # this verifier proves safe records which memory region its base
        # pointer addressed; an instruction reached with different
        # provenances (or value offsets) on different paths degrades to
        # "mixed".  The JIT's region-specialised translation emits direct
        # byte-array access for every unambiguous access and the generic
        # bounds-checked path for "mixed" — the proof that makes the direct
        # access safe is exactly the check performed here.
        self.region_hints: dict[int, str | tuple[str, int]] = {}
        # ProgramFacts, gathered where each access or call is proved safe.
        self._helpers: set[int] = set()
        self._ctx_reads: set[int] = set()
        self._ctx_writes: set[int] = set()
        self._stack = False

    def _note_region(self, pc: int, tag: str | tuple[str, int]) -> None:
        prev = self.region_hints.get(pc)
        if prev is None:
            self.region_hints[pc] = tag
        elif prev != tag:
            self.region_hints[pc] = "mixed"

    # -- public API --------------------------------------------------------
    def verify(self) -> None:
        self._structural_checks()
        worklist: list[tuple[int, _State]] = [(0, _State.initial())]
        visited: set = set()
        while worklist:
            pc, state = worklist.pop()
            self._explore(pc, state, worklist, visited)
        helpers, reads, writes = map(frozenset, (self._helpers, self._ctx_reads, self._ctx_writes))
        self.facts = ProgramFacts(helpers, reads, writes, self._stack or bool(helpers))

    # -- structural checks ----------------------------------------------------
    def _structural_checks(self) -> None:
        if not self.insns:
            raise VerifierError("empty program")
        n_slots = len(self.slots)
        if n_slots > isa.MAX_INSNS:
            raise VerifierError(f"program too large ({n_slots} > {isa.MAX_INSNS})")
        for pc, insn in enumerate(self.slots):
            if insn is None:
                continue
            verdict = _reserved_fields(insn)
            if verdict is not None:
                raise VerifierError(f"{verdict} uses reserved fields", pc)
            klass = insn.klass
            if klass not in (isa.BPF_JMP, isa.BPF_JMP32):
                continue
            op = insn.opcode & isa.OP_MASK
            if op in (isa.BPF_CALL, isa.BPF_EXIT):
                continue
            if insn.off < 0:
                raise VerifierError("back-edge (loops are not allowed)", pc)
            target = pc + 1 + insn.off
            if not 0 <= target < n_slots:
                raise VerifierError(f"jump out of range (target {target})", pc)
            if self.slots[target] is None:
                raise VerifierError("jump into the middle of an lddw", pc)
        last = self.slots[-1]
        if last is None or last.opcode not in (
            isa.BPF_JMP | isa.BPF_EXIT,
            isa.BPF_JMP | isa.BPF_JA,
        ):
            # A final unconditional jump is fine (it must go forward, hence
            # nowhere) — so in practice the last insn must be exit.
            if last is None or last.opcode != (isa.BPF_JMP | isa.BPF_EXIT):
                raise VerifierError("program does not end with exit", len(self.slots) - 1)

    # -- path exploration ------------------------------------------------------
    def _explore(self, pc, state, worklist, visited) -> None:
        while True:
            if pc >= len(self.slots):
                raise VerifierError("execution fell off the end of the program", pc)
            insn = self.slots[pc]
            if insn is None:
                raise VerifierError("execution reached the middle of an lddw", pc)
            key = (pc, state.key())
            if key in visited:
                return
            visited.add(key)
            self._visits += 1
            if self._visits > _MAX_INSN_VISITS:
                raise VerifierError("verification state budget exceeded", pc)

            klass = insn.klass
            if klass in (isa.BPF_ALU, isa.BPF_ALU64):
                self._check_alu(insn, state, pc)
                pc += 1
            elif klass == isa.BPF_LD:
                self._check_lddw(insn, state, pc)
                pc += 2
            elif klass == isa.BPF_LDX:
                self._check_load(insn, state, pc)
                pc += 1
            elif klass in (isa.BPF_ST, isa.BPF_STX):
                self._check_store(insn, state, pc)
                pc += 1
            elif klass in (isa.BPF_JMP, isa.BPF_JMP32):
                op = insn.opcode & isa.OP_MASK
                if op == isa.BPF_EXIT:
                    if klass != isa.BPF_JMP:
                        raise VerifierError("exit must use the JMP class", pc)
                    r0 = state.regs[isa.R0]
                    if r0.kind != SCALAR:
                        raise VerifierError("R0 not a scalar at exit", pc)
                    return
                if op == isa.BPF_CALL:
                    if klass != isa.BPF_JMP:
                        raise VerifierError("call must use the JMP class", pc)
                    self._check_call(insn, state, pc)
                    pc += 1
                    continue
                if op == isa.BPF_JA:
                    if klass != isa.BPF_JMP:
                        raise VerifierError("ja must use the JMP class", pc)
                    pc = pc + 1 + insn.off
                    continue
                pc = self._check_branch(insn, state, pc, worklist)
                if pc is None:
                    return
            else:
                raise VerifierError(f"unknown instruction class {klass:#x}", pc)

    # -- ALU ------------------------------------------------------------------
    def _check_alu(self, insn: Instruction, state: _State, pc: int) -> None:
        op = insn.opcode & isa.OP_MASK
        is64 = insn.klass == isa.BPF_ALU64
        dst = state.regs[insn.dst_reg]

        if insn.dst_reg == isa.R10:
            raise VerifierError("cannot write to frame pointer R10", pc)

        if op == isa.BPF_END:
            if dst.kind != SCALAR:
                raise VerifierError("byte swap on non-scalar", pc)
            if insn.imm not in (16, 32, 64):
                raise VerifierError(f"bad byte-swap width {insn.imm}", pc)
            state.regs[insn.dst_reg] = _scalar()
            return

        if op == isa.BPF_NEG:
            if dst.kind != SCALAR:
                raise VerifierError("negation of non-scalar", pc)
            const = None if dst.const is None else _alu(op, dst.const, 0, is64, pc)
            state.regs[insn.dst_reg] = _scalar(const)
            return

        use_reg = bool(insn.opcode & isa.BPF_X)
        if use_reg:
            src = state.regs[insn.src_reg]
            if src.kind == UNINIT:
                raise VerifierError(f"read of uninitialised R{insn.src_reg}", pc)
            src_const = src.const if src.kind == SCALAR else None
        else:
            src = _scalar(insn.imm)
            src_const = insn.imm & isa.U64 if is64 else insn.imm & isa.U32
            if insn.imm < 0 and is64:
                src_const = insn.imm & isa.U64

        if op == isa.BPF_MOV:
            if use_reg:
                if not is64 and src.kind in _POINTER_KINDS:
                    state.regs[insn.dst_reg] = _scalar()
                else:
                    state.regs[insn.dst_reg] = src
            else:
                imm = insn.imm & isa.U64 if is64 else insn.imm & isa.U32
                state.regs[insn.dst_reg] = _scalar(imm)
            return

        if dst.kind == UNINIT:
            raise VerifierError(f"read of uninitialised R{insn.dst_reg}", pc)

        if (op in (isa.BPF_DIV, isa.BPF_MOD)) and not use_reg and insn.imm == 0:
            raise VerifierError("division by zero immediate", pc)

        # Pointer arithmetic: only ptr += const-scalar / ptr -= const-scalar,
        # only in the 64-bit class, and never on pkt_end or map handles.
        if dst.kind in _POINTER_KINDS:
            if not is64:
                raise VerifierError("32-bit arithmetic on pointer", pc)
            if op not in (isa.BPF_ADD, isa.BPF_SUB):
                raise VerifierError(
                    f"{isa.ALU_OP_NAMES[op]} on pointer is not allowed", pc
                )
            if dst.kind in (PKT_END, MAP_PTR, MAP_VALUE_OR_NULL):
                raise VerifierError(f"arithmetic on {dst.kind} pointer", pc)
            if src.kind in _POINTER_KINDS:
                raise VerifierError("pointer +/- pointer is not allowed", pc)
            if src_const is None:
                raise VerifierError("pointer arithmetic with unknown scalar", pc)
            delta = isa.to_signed64(src_const)
            if op == isa.BPF_SUB:
                delta = -delta
            new_off = dst.off + delta
            if abs(new_off) > (1 << 29):
                raise VerifierError("pointer offset out of range", pc)
            state.regs[insn.dst_reg] = Reg(
                dst.kind, new_off, None, dst.map, dst.null_id
            )
            return

        if src.kind in _POINTER_KINDS:
            raise VerifierError("scalar op with pointer operand", pc)

        const = None
        if dst.const is not None and src_const is not None:
            # The interpreter's own arithmetic (as for NEG above): a fold that
            # differed from it would prune a branch the program can take.
            const = _alu(op, dst.const, src_const, is64, pc)
        state.regs[insn.dst_reg] = _scalar(const)

    # -- lddw -------------------------------------------------------------------
    def _check_lddw(self, insn: Instruction, state: _State, pc: int) -> None:
        if insn.src_reg == isa.BPF_PSEUDO_MAP_FD:
            map_obj = self.slot_maps.get(pc)
            if map_obj is None:
                raise VerifierError("unresolved map reference in lddw", pc)
            state.regs[insn.dst_reg] = Reg(MAP_PTR, map=map_obj)
        elif insn.src_reg == 0:
            state.regs[insn.dst_reg] = _scalar(insn.imm64 or 0)
        else:
            raise VerifierError(f"unsupported lddw pseudo src {insn.src_reg}", pc)

    # -- memory ---------------------------------------------------------------
    def _check_load(self, insn: Instruction, state: _State, pc: int) -> None:
        if (insn.opcode & isa.MODE_MASK) != isa.BPF_MEM:
            raise VerifierError("only BPF_MEM loads are supported on this hook", pc)
        size = isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK]
        base = state.regs[insn.src_reg]
        off = base.off + insn.off

        if base.kind == CTX:
            field = CTX_FIELDS.get(off)
            if field is None:
                raise VerifierError(f"invalid ctx read at offset {off:#x}", pc)
            fsize, _writable, kind = field
            if size != fsize:
                raise VerifierError(
                    f"ctx field at {off:#x} must be read with size {fsize}", pc
                )
            self._note_region(pc, "ctx")
            self._ctx_reads.add(off)
            if kind == "pkt_ptr":
                state.regs[insn.dst_reg] = Reg(PKT, 0)
            elif kind == "pkt_end_ptr":
                state.regs[insn.dst_reg] = Reg(PKT_END)
            else:
                state.regs[insn.dst_reg] = _scalar()
        elif base.kind == STACK:
            if not _stack_bounds_ok(off, size):
                raise VerifierError(f"stack read out of bounds at {off}", pc)
            self._note_region(pc, "stack")
            self._stack = True
            if size == 8 and off % 8 == 0 and off in state.spills:
                state.regs[insn.dst_reg] = state.spills[off]
            elif state.stack_is_init(off, size):
                state.regs[insn.dst_reg] = _scalar()
            else:
                raise VerifierError(f"read of uninitialised stack at {off}", pc)
        elif base.kind == PKT:
            if off < 0 or off + size > state.pkt_safe:
                raise VerifierError(
                    f"packet read at {off}+{size} exceeds verified bounds "
                    f"({state.pkt_safe}); add a data_end check",
                    pc,
                )
            self._note_region(pc, "pkt")
            state.regs[insn.dst_reg] = _scalar()
        elif base.kind == MAP_VALUE:
            if off < 0 or off + size > base.map.value_size:
                raise VerifierError(
                    f"map value read at {off}+{size} out of bounds", pc
                )
            self._note_region(pc, (MAP_VALUE, off))
            state.regs[insn.dst_reg] = _scalar()
        elif base.kind == MAP_VALUE_OR_NULL:
            raise VerifierError("map value accessed before NULL check", pc)
        elif base.kind == UNINIT:
            raise VerifierError(f"read of uninitialised R{insn.src_reg}", pc)
        else:
            raise VerifierError(f"cannot load through {base.kind} pointer", pc)

    def _check_store(self, insn: Instruction, state: _State, pc: int) -> None:
        if (insn.opcode & isa.MODE_MASK) == isa.BPF_XADD:
            raise VerifierError("atomic XADD is not supported on this hook", pc)
        if (insn.opcode & isa.MODE_MASK) != isa.BPF_MEM:
            raise VerifierError("only BPF_MEM stores are supported", pc)
        size = isa.SIZE_BYTES[insn.opcode & isa.SIZE_MASK]
        base = state.regs[insn.dst_reg]
        off = base.off + insn.off

        if insn.klass == isa.BPF_STX:
            src = state.regs[insn.src_reg]
            if src.kind == UNINIT:
                raise VerifierError(f"store of uninitialised R{insn.src_reg}", pc)
        else:
            src = _scalar(insn.imm)

        if base.kind == STACK:
            if not _stack_bounds_ok(off, size):
                raise VerifierError(f"stack write out of bounds at {off}", pc)
            self._note_region(pc, "stack")
            self._stack = True
            if src.kind in _POINTER_KINDS:
                if size != 8 or off % 8:
                    raise VerifierError(
                        "pointer spill must be 8 bytes, 8-byte aligned", pc
                    )
                state.mark_stack_init(off, size)
                state.spills[off] = src
            else:
                state.mark_stack_init(off, size)
        elif base.kind == CTX:
            field = CTX_FIELDS.get(off)
            if field is None or not field[1]:
                raise VerifierError(f"invalid ctx write at offset {off:#x}", pc)
            if size != field[0]:
                raise VerifierError(
                    f"ctx field at {off:#x} must be written with size {field[0]}", pc
                )
            if src.kind in _POINTER_KINDS:
                raise VerifierError("cannot store a pointer into the context", pc)
            self._note_region(pc, "ctx")
            self._ctx_writes.add(off)
        elif base.kind == MAP_VALUE:
            if off < 0 or off + size > base.map.value_size:
                raise VerifierError(f"map value write at {off}+{size} out of bounds", pc)
            if src.kind in _POINTER_KINDS:
                raise VerifierError("cannot store a pointer into a map value", pc)
            self._note_region(pc, (MAP_VALUE, off))
        elif base.kind == PKT:
            raise VerifierError(
                "packet is read-only on seg6local/LWT hooks; use the seg6 helpers",
                pc,
            )
        elif base.kind == MAP_VALUE_OR_NULL:
            raise VerifierError("map value accessed before NULL check", pc)
        elif base.kind == UNINIT:
            raise VerifierError(f"write through uninitialised R{insn.dst_reg}", pc)
        else:
            raise VerifierError(f"cannot store through {base.kind} pointer", pc)

    # -- helper calls ----------------------------------------------------------
    def _check_call(self, insn: Instruction, state: _State, pc: int) -> None:
        helper = self.helpers.get(insn.imm)
        if helper is None:
            raise VerifierError(f"unknown helper id {insn.imm}", pc)
        if self.allowed is not None and insn.imm not in self.allowed:
            raise VerifierError(
                f"helper {helper.name!r} not available on this hook", pc
            )
        self._helpers.add(insn.imm)

        current_map = None
        for arg_idx, spec in enumerate(helper.args):
            reg_no = isa.HELPER_ARG_REGS[arg_idx]
            reg = state.regs[reg_no]
            kind = spec[0]
            if kind == "ctx":
                if reg.kind != CTX or reg.off != 0:
                    raise VerifierError(
                        f"{helper.name}: arg{arg_idx + 1} must be the context", pc
                    )
            elif kind in ("scalar", "anything"):
                if reg.kind != SCALAR:
                    raise VerifierError(
                        f"{helper.name}: arg{arg_idx + 1} must be a scalar", pc
                    )
            elif kind == "map_ptr":
                if reg.kind != MAP_PTR:
                    raise VerifierError(
                        f"{helper.name}: arg{arg_idx + 1} must be a map pointer", pc
                    )
                current_map = reg.map
            elif kind == "map_key":
                if current_map is None:
                    raise VerifierError(f"{helper.name}: map_key without map arg", pc)
                self._check_mem_arg(
                    state, reg, current_map.key_size, "r", helper, arg_idx, pc
                )
            elif kind == "map_value_src":
                if current_map is None:
                    raise VerifierError(
                        f"{helper.name}: map_value without map arg", pc
                    )
                self._check_mem_arg(
                    state, reg, current_map.value_size, "r", helper, arg_idx, pc
                )
            elif kind == "mem":
                _tag, rw, size_mode, size_param = spec
                if size_mode == "fixed":
                    size = size_param
                else:
                    size_reg = state.regs[size_param]
                    if size_reg.kind != SCALAR or size_reg.const is None:
                        raise VerifierError(
                            f"{helper.name}: size argument R{size_param} must be a "
                            "known constant",
                            pc,
                        )
                    size = size_reg.const
                if not 0 < size <= _MAX_HELPER_MEM:
                    raise VerifierError(
                        f"{helper.name}: memory size {size} out of range", pc
                    )
                self._check_mem_arg(state, reg, size, rw, helper, arg_idx, pc)
            else:
                raise VerifierError(f"{helper.name}: bad arg spec {spec!r}", pc)

        for reg_no in isa.CALLER_SAVED:
            state.regs[reg_no] = _UNINIT
        if helper.name in PKT_MODIFYING_HELPERS:
            state.pkt_safe = 0
            for idx, reg in enumerate(state.regs):
                if reg.kind in (PKT, PKT_END):
                    state.regs[idx] = _UNINIT
            for off, reg in list(state.spills.items()):
                if reg.kind in (PKT, PKT_END):
                    state.spills[off] = _SCALAR_UNKNOWN
        if helper.ret == "map_value_or_null":
            if current_map is None:
                raise VerifierError(f"{helper.name}: returns map value without map", pc)
            self._null_counter += 1
            state.regs[isa.R0] = Reg(
                MAP_VALUE_OR_NULL, 0, None, current_map, self._null_counter
            )
        else:
            state.regs[isa.R0] = _scalar()

    def _check_mem_arg(self, state, reg, size, rw, helper, arg_idx, pc) -> None:
        label = f"{helper.name}: arg{arg_idx + 1}"
        if reg.kind == STACK:
            if not _stack_bounds_ok(reg.off, size):
                raise VerifierError(f"{label} stack buffer out of bounds", pc)
            if rw == "r" and not state.stack_is_init(reg.off, size):
                raise VerifierError(f"{label} reads uninitialised stack", pc)
            if rw == "w":
                state.mark_stack_init(reg.off, size)
        elif reg.kind == MAP_VALUE:
            if reg.off < 0 or reg.off + size > reg.map.value_size:
                raise VerifierError(f"{label} map-value buffer out of bounds", pc)
        elif reg.kind == PKT:
            if rw == "w":
                raise VerifierError(f"{label} cannot write into the packet", pc)
            if reg.off < 0 or reg.off + size > state.pkt_safe:
                raise VerifierError(
                    f"{label} packet buffer exceeds verified bounds", pc
                )
        else:
            raise VerifierError(f"{label} must point to stack/map/packet memory", pc)

    # -- branches -----------------------------------------------------------------
    def _check_branch(self, insn, state, pc, worklist) -> int | None:
        """Handle a conditional jump; queue the taken path, return fallthrough.

        Returns ``None`` when only the taken path is feasible (the caller
        stops walking this path and the queued state takes over).
        """
        op = insn.opcode & isa.OP_MASK
        is32 = insn.klass == isa.BPF_JMP32
        dst = state.regs[insn.dst_reg]
        if dst.kind == UNINIT:
            raise VerifierError(f"branch on uninitialised R{insn.dst_reg}", pc)
        use_reg = bool(insn.opcode & isa.BPF_X)
        if use_reg:
            src = state.regs[insn.src_reg]
            if src.kind == UNINIT:
                raise VerifierError(f"branch on uninitialised R{insn.src_reg}", pc)
        else:
            src = _scalar(insn.imm & (isa.U32 if is32 else isa.U64))

        target = pc + 1 + insn.off
        fallthrough = pc + 1

        # NULL-check refinement for map_lookup_elem results.
        if (
            dst.kind == MAP_VALUE_OR_NULL
            and src.kind == SCALAR
            and src.const == 0
            and op in (isa.BPF_JEQ, isa.BPF_JNE)
            and not is32
        ):
            null_state = state.clone()
            _refine_null(null_state, dst.null_id, is_null=True)
            value_state = state.clone()
            _refine_null(value_state, dst.null_id, is_null=False)
            if op == isa.BPF_JEQ:  # taken branch is the NULL branch
                worklist.append((target, null_state))
                worklist.append((fallthrough, value_state))
            else:
                worklist.append((target, value_state))
                worklist.append((fallthrough, null_state))
            return None

        # Packet bounds refinement: comparisons of pkt+N against pkt_end.
        refined = _pkt_bounds_refinement(op, dst, src, is32)
        if refined is not None:
            safe_on_taken, length = refined
            taken_state = state.clone()
            fall_state = state
            if safe_on_taken:
                taken_state.pkt_safe = max(taken_state.pkt_safe, length)
            else:
                fall_state.pkt_safe = max(fall_state.pkt_safe, length)
            worklist.append((target, taken_state))
            return fallthrough

        if dst.kind in _POINTER_KINDS or src.kind in _POINTER_KINDS:
            if not (
                {dst.kind, src.kind} <= {PKT, PKT_END}
                or (dst.kind == src.kind and op in (isa.BPF_JEQ, isa.BPF_JNE))
            ):
                raise VerifierError("comparison between pointer and scalar", pc)

        # Constant folding: take only the feasible branch when both known.
        if (
            dst.kind == SCALAR
            and dst.const is not None
            and src.kind == SCALAR
            and src.const is not None
        ):
            if _jump_taken(op, dst.const, src.const, is32, pc):  # as for ALU: what the VM decides
                worklist.append((target, state.clone()))
                return None
            return fallthrough

        worklist.append((target, state.clone()))
        return fallthrough


def _reserved_fields(insn: Instruction) -> str | None:
    """The name in 4.18's "... uses reserved fields" verdict for ``insn``
    (``check_alu_op``, ``check_cond_jmp_op``, ``do_check``,
    ``replace_map_fd_with_map_ptr``), or None.  ISA v4 puts sdiv / smod /
    movsx in ``off`` and bswap in ALU64."""
    klass, op, x = insn.klass, insn.opcode & isa.OP_MASK, insn.opcode & isa.BPF_X
    src, dst, off, imm = insn.src_reg, insn.dst_reg, insn.off, insn.imm
    if klass == isa.BPF_ST:
        return "BPF_ST" if src else None
    if klass in (isa.BPF_STX, isa.BPF_LDX):
        return ("BPF_STX" if klass == isa.BPF_STX else "BPF_LDX") if imm else None
    if klass in (isa.BPF_ALU, isa.BPF_ALU64):
        if op == isa.BPF_END:  # the X bit is the byte order here
            return "BPF_END" if klass == isa.BPF_ALU64 or src or off else None
        if op == isa.BPF_NEG:
            return "BPF_NEG" if x or src or off or imm else None
        bad = off or (imm if x else src)
        return ("BPF_MOV" if op == isa.BPF_MOV else "BPF_ALU") if bad else None
    if klass not in (isa.BPF_JMP, isa.BPF_JMP32):
        return None
    if op == isa.BPF_CALL:
        return "BPF_CALL" if x or off or src or dst else None
    if op == isa.BPF_JA:
        return "BPF_JA" if x or imm or src or dst else None
    if op == isa.BPF_EXIT:
        return "BPF_EXIT" if x or off or imm or src or dst else None
    return "BPF_JMP" if (imm if x else src) else None


def _refine_null(state: _State, null_id: int, is_null: bool) -> None:
    for idx, reg in enumerate(state.regs):
        if reg.kind == MAP_VALUE_OR_NULL and reg.null_id == null_id:
            if is_null:
                state.regs[idx] = _scalar(0)
            else:
                state.regs[idx] = Reg(MAP_VALUE, reg.off, None, reg.map)
    for off, reg in list(state.spills.items()):
        if reg.kind == MAP_VALUE_OR_NULL and reg.null_id == null_id:
            if is_null:
                state.spills[off] = _scalar(0)
            else:
                state.spills[off] = Reg(MAP_VALUE, reg.off, None, reg.map)


def _pkt_bounds_refinement(op, dst: Reg, src: Reg, is32: bool):
    """Detect ``pkt+N <=> pkt_end`` checks.

    Returns ``(safe_on_taken, N)`` or None.  ``safe_on_taken`` says which
    branch proves that ``N`` bytes of packet are readable.
    """
    if is32:
        return None
    if dst.kind == PKT and src.kind == PKT_END:
        length = dst.off
        if length < 0:
            return None
        if op == isa.BPF_JGT:  # taken: pkt+N > end (unsafe)
            return (False, length)
        if op == isa.BPF_JLE:  # taken: pkt+N <= end (safe)
            return (True, length)
        if op == isa.BPF_JGE:  # taken: pkt+N >= end; fallthrough: pkt+N < end
            return (False, length)
        if op == isa.BPF_JLT:
            return (True, length)
    if dst.kind == PKT_END and src.kind == PKT:
        length = src.off
        if length < 0:
            return None
        if op == isa.BPF_JGE:  # taken: end >= pkt+N (safe)
            return (True, length)
        if op == isa.BPF_JLT:
            return (False, length)
        if op == isa.BPF_JGT:
            return (True, length)
        if op == isa.BPF_JLE:
            return (False, length)
    return None
