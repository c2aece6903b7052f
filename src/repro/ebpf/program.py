"""Program loading: link a ``.s`` source (or take linked instructions) →
relocate maps → verify → pick an engine.

A :class:`Program` is the equivalent of a loaded-and-verified kernel BPF
program: creating one runs the full pipeline and raises
:class:`~repro.ebpf.errors.VerifierError` on rejection, so an instance in
hand is always safe to attach to a hook.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import isa
from .errors import BpfError
from .helpers import HelperContext, install_map_regions
from .insn import Instruction, flatten
from .jit import JitProgram
from .maps import ArrayMap, Map
from .memory import MAP_PTR_BASE, MAP_VALUE_BASE, Memory
from .verifier import Verifier
from .vm import Interpreter


#: ``allowed_helpers`` default: the set the source's ``.hook`` directive
#: names (every registered helper when there is no hook).
AUTO_HELPERS = object()

_HOOK_HELPER_SETS = {
    "seg6local": "SEG6LOCAL_HELPERS",
    "lwt": "LWT_HELPERS",
}


def hook_helpers(hook: str | None):
    """The helper whitelist a ``.hook`` directive names (``None``: every helper)."""
    if hook is None or hook == "none":
        return None
    from repro.net import seg6_helpers

    return getattr(seg6_helpers, _HOOK_HELPER_SETS[hook])

# The kernel's MAX_USED_MAPS: distinct maps one program may reference.
_MAX_USED_MAPS = 64


@dataclass
class ProgramStats:
    """Counters a loaded program accumulates across invocations."""

    invocations: int = 0
    last_return: int | None = None


class Program:
    """A verified eBPF program bound to its maps.

    Parameters
    ----------
    source:
        A ``.s`` source in the kernel syntax (see :mod:`repro.ebpf.text`),
        assembled and linked here, or a pre-built instruction list.
    maps:
        Maps referenced by ``rX = <name> ll`` pseudo-instructions; a
        text's ``.map`` declarations supply the ones not given here.
    name:
        Human-readable name for logs and stats.
    jit:
        Select the execution engine; mirrors
        ``/proc/sys/net/core/bpf_jit_enable``.  ``True`` compiles the
        program (region-specialised memory, threaded dispatch),
        ``False`` interprets.
    allowed_helpers:
        Whitelist of helper ids (hooks restrict their helper sets);
        ``None`` allows every registered helper.  Left out, a text's
        ``.hook`` directive picks the set.
    """

    def __init__(
        self,
        source: str | list[Instruction],
        maps: dict[str, Map] | None = None,
        name: str = "prog",
        jit: bool = True,
        allowed_helpers=AUTO_HELPERS,
    ):
        hook = None
        if isinstance(source, str):
            from .text import link, parse_asm  # lazy: the linker imports Program

            linked = link(parse_asm(source), maps)
            source, maps, hook = linked.insns, linked.maps, linked.hook
        if allowed_helpers is AUTO_HELPERS:
            allowed_helpers = hook_helpers(hook)
        self.name = name
        self.maps = dict(maps or {})
        self.jit_enabled = jit
        self.insns, self.slot_maps = self._relocate(list(source))
        verifier = Verifier(
            self.insns, self.slot_maps, allowed_helpers=allowed_helpers
        )
        verifier.verify()
        # Verifier by-products: per-slot region provenance the JIT
        # specialises memory access on, and the facts (helpers called, ctx
        # fields read / written, stack touched) that gate what an attach
        # site's invocation resets and reads back; a lookup's hint gains its values' base.
        bases = {map_obj: self.value_bases[handle] for handle, map_obj in self.maps_by_addr.items()}
        self.region_hints = {
            pc: (*tag, bases[tag[1]]) if tag[0] == "map_key" else tag
            for pc, tag in verifier.region_hints.items()
        }
        self.facts = verifier.facts
        # One engine per program: the JIT, or (``jit=False``) the interpreter.
        self._jit = JitProgram(self.insns, regions=self.region_hints) if jit else None
        self._interp = None if jit else Interpreter(self.insns)
        self.stats = ProgramStats()

    # -- loading -------------------------------------------------------------
    def _relocate(self, insns: list[Instruction]):
        """Resolve ``map:<name>`` references to this program's guest handles.

        Maps are numbered in first-reference order: map *i*'s handle is
        ``MAP_PTR_BASE + 16 * i`` (:attr:`maps_by_addr`) and its values
        follow map *i - 1*'s from ``MAP_VALUE_BASE`` (:attr:`value_bases`),
        so the relocated bytes and every guest address depend on this
        program alone.
        """
        out: list[Instruction] = []
        slot_maps: dict[int, Map] = {}
        handles: dict[Map, int] = {}
        slot = 0
        for insn in insns:
            if insn.is_lddw and insn.map_ref is not None:
                map_obj = self.maps.get(insn.map_ref)
                if map_obj is None:
                    raise BpfError(
                        f"program {self.name!r} references unknown map "
                        f"{insn.map_ref!r}"
                    )
                insn = Instruction(
                    insn.opcode,
                    insn.dst_reg,
                    isa.BPF_PSEUDO_MAP_FD,
                    insn.off,
                    0,
                    imm64=handles.setdefault(map_obj, MAP_PTR_BASE + 16 * len(handles)),
                    map_ref=insn.map_ref,
                )
                slot_maps[slot] = map_obj
            elif insn.is_lddw and insn.src_reg == isa.BPF_PSEUDO_MAP_FD:
                raise BpfError("pseudo map lddw without map_ref")
            out.append(insn)
            slot += insn.slots
        if len(handles) > _MAX_USED_MAPS:
            raise BpfError(
                f"program {self.name!r} references {len(handles)} maps, more than {_MAX_USED_MAPS}"
            )
        self.maps_by_addr = {handle: map_obj for map_obj, handle in handles.items()}
        self.value_bases: dict[int, int] = {}
        end = MAP_VALUE_BASE
        for handle, map_obj in self.maps_by_addr.items():
            self.value_bases[handle], end = end, end + map_obj._stride * map_obj.max_entries
        if end > MAP_PTR_BASE:
            raise BpfError(
                f"program {self.name!r}: map values need {end - MAP_VALUE_BASE:#x} bytes, "
                f"more than the {MAP_PTR_BASE - MAP_VALUE_BASE:#x} below the map handles"
            )
        return out, slot_maps

    @property
    def num_insns(self) -> int:
        return len(flatten(self.insns))

    # -- execution ---------------------------------------------------------
    def make_context(
        self,
        packet_bytes: bytes,
        clock_ns=lambda: 0,
        rng: random.Random | None = None,
        mark: int = 0,
    ) -> HelperContext:
        """Build a fresh invocation context owning a private copy of ``packet_bytes``."""
        from .context import SkbContext

        mem = Memory()
        skb = SkbContext(mem, packet_bytes, mark=mark)
        install_map_regions(mem, self.maps_by_addr)
        for handle, map_obj in self.maps_by_addr.items():  # an array's values never move
            for slot, data in enumerate(map_obj._values if isinstance(map_obj, ArrayMap) else ()):
                mem.map_value(self.value_bases[handle] + slot * map_obj._stride, data, map_obj)
        hctx = HelperContext(mem, skb, self.maps_by_addr, clock_ns, rng)
        hctx.value_bases = self.value_bases
        return hctx

    def run(self, hctx: HelperContext) -> int:
        """Execute with the configured engine; returns R0."""
        skb = hctx.skb
        engine = self._jit or self._interp
        ret = engine.run(hctx, skb.ctx_addr, skb.stack_top)
        self.stats.invocations += 1
        self.stats.last_return = ret
        return ret

    def run_on_packet(self, packet_bytes: bytes, **kwargs) -> tuple[int, HelperContext]:
        """Convenience: build a context, run, return (retval, context)."""
        hctx = self.make_context(packet_bytes, **kwargs)
        return self.run(hctx), hctx
