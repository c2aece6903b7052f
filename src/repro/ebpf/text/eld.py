"""Tiny eBPF linker: one assembled source in, loadable :class:`~repro.ebpf.program.Program` out.

``link`` does the one job ``ld`` has left for a single-section object
whose branches the assembler already resolved: **map resolution**.  The
object's ``.map`` declarations are matched against any caller-provided
map instances, whose shapes must agree with the declaration; the rest
are instantiated; every ``rX = <name> ll`` must name one of them.

All diagnostics raise :class:`~repro.ebpf.errors.LinkError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import LinkError
from ..insn import Instruction
from ..maps import MAP_TYPES, Map
from ..program import AUTO_HELPERS, Program, hook_helpers
from .easm import MapDecl, TextObject


def instantiate_map(decl: MapDecl) -> Map:
    """Create the map a ``.map`` directive describes."""
    cls = MAP_TYPES[decl.map_type]
    if decl.map_type == "perf_event_array":
        return cls(decl.name, max_entries=decl.max_entries)
    if decl.map_type in ("array", "percpu_array"):
        return cls(
            decl.name, decl.value_size, decl.max_entries, key_size=decl.key_size
        )
    return cls(decl.name, decl.key_size, decl.value_size, decl.max_entries)


@dataclass
class LinkedProgram:
    """A fully linked program: instructions and maps — not yet verified.

    ``insns`` still carry symbolic ``map_ref`` lddws (``imm64=0``), so
    ``encode_program(insns)`` is deterministic across processes — the
    property the golden corpus relies on.  ``load()`` runs the normal
    relocate/verify/load pipeline.
    """

    insns: list[Instruction]
    maps: dict[str, Map] = field(default_factory=dict)
    hook: str | None = None

    def load(
        self,
        name: str = "prog",
        jit: bool = True,
        allowed_helpers=AUTO_HELPERS,
    ) -> Program:
        """Verify and load; ``allowed_helpers`` defaults to the hook's set."""
        if allowed_helpers is AUTO_HELPERS:
            allowed_helpers = hook_helpers(self.hook)
        return Program(
            self.insns,
            maps=self.maps,
            name=name,
            jit=jit,
            allowed_helpers=allowed_helpers,
        )


def link(obj: TextObject, maps: dict[str, Map] | None = None) -> LinkedProgram:
    """Bind an assembled object's maps into a :class:`LinkedProgram`.

    ``maps`` supplies pre-existing map instances by name; they take
    precedence over instantiating the matching ``.map`` declaration but
    must agree with it.  ``obj`` is not modified.
    """
    linked_maps = dict(maps or {})
    for name, map_obj in linked_maps.items():
        decl = obj.maps.get(name)
        if decl is not None and (
            map_obj.map_type != decl.map_type
            or map_obj.key_size != decl.key_size
            or (
                decl.map_type != "perf_event_array"
                and map_obj.value_size != decl.value_size
            )
            or map_obj.max_entries != decl.max_entries
        ):
            raise LinkError(
                f"provided map {name!r} ({map_obj.map_type}/{map_obj.key_size}"
                f"/{map_obj.value_size}/{map_obj.max_entries}) does not match "
                f"its declaration ({decl.map_type}/{decl.key_size}"
                f"/{decl.value_size}/{decl.max_entries})"
            )
    for name, decl in obj.maps.items():
        if name not in linked_maps:
            linked_maps[name] = instantiate_map(decl)

    for insn in obj.insns:
        if insn.map_ref is not None and insn.map_ref not in linked_maps:
            raise LinkError(f"undefined map symbol {insn.map_ref!r}")

    return LinkedProgram(list(obj.insns), linked_maps, obj.hook)
