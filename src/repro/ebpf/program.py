"""Program loading: link a ``.s`` source (or take linked instructions) →
relocate maps → verify → pick an engine.

A :class:`Program` is the equivalent of a loaded-and-verified kernel BPF
program: creating one runs the full pipeline and raises
:class:`~repro.ebpf.errors.VerifierError` on rejection, so an instance in
hand is always safe to attach to a hook.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import isa
from .errors import BpfError
from .helpers import HelperContext, install_map_regions, map_handle_addr
from .insn import Instruction, flatten
from .jit import JitProgram
from .maps import Map
from .memory import Memory
from .verifier import Verifier
from .vm import Interpreter


#: ``allowed_helpers`` default: the set the source's ``.hook`` directive
#: names (every registered helper when there is no hook).
AUTO_HELPERS = object()


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
        A ``.s`` source in the kernel syntax (see :mod:`repro.ebpf.text`;
        assembled and linked exactly as ``load_text`` does) or a pre-built
        instruction list.
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
        if isinstance(source, str):
            from .text.eld import link_text  # lazy: the linker imports Program

            source, maps, allowed_helpers = link_text(source, maps, allowed_helpers)
        elif allowed_helpers is AUTO_HELPERS:
            allowed_helpers = None
        self.name = name
        self.maps = dict(maps or {})
        self.jit_enabled = jit
        self.insns, self.slot_maps = self._relocate(list(source))
        self.maps_by_addr = {
            map_handle_addr(m): m for m in self.slot_maps.values()
        }
        verifier = Verifier(
            self.insns, self.slot_maps, allowed_helpers=allowed_helpers
        )
        verifier.verify()
        # Verifier by-products the JIT and the batch-resident datapath
        # consume: per-slot region provenance for specialised memory
        # access, and whether the program ever touches its stack frame
        # (a stack-free program's re-arm can skip the stack wipe).
        # Helper calls count as stack-touching: a helper may read or
        # write the frame through a pointer argument without the program
        # issuing any direct stack load/store.
        self.region_hints = dict(verifier.region_hints)
        self.touches_stack = any(
            tag in ("stack", "mixed") for tag in self.region_hints.values()
        ) or any(
            insn.opcode == (isa.BPF_JMP | isa.BPF_CALL) for insn in self.insns
        )
        self._interp = Interpreter(self.insns)
        self._jit = (
            JitProgram(self.insns, regions=self.region_hints) if jit else None
        )
        self.stats = ProgramStats()

    # -- loading -------------------------------------------------------------
    def _relocate(self, insns: list[Instruction]):
        """Resolve ``map:<name>`` references to opaque guest handles."""
        out: list[Instruction] = []
        slot_maps: dict[int, Map] = {}
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
                    imm64=map_handle_addr(map_obj),
                    map_ref=insn.map_ref,
                )
                slot_maps[slot] = map_obj
            elif insn.is_lddw and insn.src_reg == isa.BPF_PSEUDO_MAP_FD:
                raise BpfError("pseudo map lddw without map_ref")
            out.append(insn)
            slot += insn.slots
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
        return HelperContext(mem, skb, self.maps_by_addr, clock_ns, rng)

    def run(self, hctx: HelperContext) -> int:
        """Execute with the configured engine; returns R0."""
        skb = hctx.skb
        engine = self._jit if self.jit_enabled and self._jit is not None else self._interp
        ret = engine.run(hctx, skb.ctx_addr, skb.stack_top)
        self.stats.invocations += 1
        self.stats.last_return = ret
        return ret

    def run_on_packet(self, packet_bytes: bytes, **kwargs) -> tuple[int, HelperContext]:
        """Convenience: build a context, run, return (retval, context)."""
        hctx = self.make_context(packet_bytes, **kwargs)
        return self.run(hctx), hctx
