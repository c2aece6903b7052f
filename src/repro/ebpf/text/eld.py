"""Tiny eBPF linker: sections in, loadable :class:`~repro.ebpf.program.Program` out.

``link`` takes one or more :class:`~repro.ebpf.text.easm.TextObject`\\ s
and performs the three jobs ``ld`` would do for an ELF object:

1. **Layout.**  Sections are concatenated, entry section first (the
   first section of the first object unless ``entry=`` says otherwise).
2. **Symbol resolution.**  Every section name is a global symbol at its
   base slot; labels exported with ``.globl`` become globals too.
   Cross-section branches left pending by the assembler are patched
   against the final layout.  There is no bpf2bpf ``call`` — a 4.18-era
   LWT hook has none — so cross-section transfers are plain jumps into
   the target section, falling through the layout from there.
3. **Map resolution.**  ``.map`` declarations are merged (identical
   re-declarations collapse; conflicting ones are errors), instantiated,
   and matched against any caller-provided map instances, whose shapes
   must agree with the declaration.

All diagnostics raise :class:`~repro.ebpf.errors.LinkError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import LinkError
from ..insn import Instruction
from ..maps import MAP_TYPES, Map
from ..program import AUTO_HELPERS, Program
from .easm import MapDecl, PendingBranch, TextObject, parse_asm

_HOOK_HELPER_SETS = {
    "seg6local": "SEG6LOCAL_HELPERS",
    "lwt": "LWT_HELPERS",
}


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


def _helpers_for_hook(hook: str | None, allowed_helpers):
    """``allowed_helpers`` as passed; left out, the ``.hook`` directive's set."""
    if allowed_helpers is not AUTO_HELPERS:
        return allowed_helpers
    if hook is None or hook == "none":
        return None
    from repro.net import seg6_helpers

    return getattr(seg6_helpers, _HOOK_HELPER_SETS[hook])


@dataclass
class LinkedProgram:
    """A fully linked program: instructions, maps, symbols — not yet verified.

    ``insns`` still carry symbolic ``map_ref`` lddws (``imm64=0``), so
    ``encode_program(insns)`` is deterministic across processes — the
    property the golden corpus relies on.  ``load()`` runs the normal
    relocate/verify/load pipeline.
    """

    insns: list[Instruction]
    maps: dict[str, Map] = field(default_factory=dict)
    map_decls: dict[str, MapDecl] = field(default_factory=dict)
    symbols: dict[str, int] = field(default_factory=dict)
    hook: str | None = None

    def load(
        self,
        name: str = "prog",
        jit: bool = True,
        allowed_helpers=AUTO_HELPERS,
    ) -> Program:
        """Verify and load; ``allowed_helpers`` defaults to the hook's set."""
        return Program(
            self.insns,
            maps=self.maps,
            name=name,
            jit=jit,
            allowed_helpers=_helpers_for_hook(self.hook, allowed_helpers),
        )


def link(
    objects: TextObject | list[TextObject],
    entry: str | None = None,
    maps: dict[str, Map] | None = None,
) -> LinkedProgram:
    """Link assembled objects into a :class:`LinkedProgram`.

    ``entry`` names the section laid out first (default: the first
    section of the first object).  ``maps`` supplies pre-existing map
    instances by name; they take precedence over instantiating the
    matching ``.map`` declaration but must agree with it.
    """
    if isinstance(objects, TextObject):
        objects = [objects]
    if not objects:
        raise LinkError("nothing to link")

    # -- merge map declarations and hooks ---------------------------------
    decls: dict[str, MapDecl] = {}
    hook: str | None = None
    for obj in objects:
        for name, decl in obj.maps.items():
            prior = decls.get(name)
            if prior is not None and (
                prior.map_type,
                prior.key_size,
                prior.value_size,
                prior.max_entries,
            ) != (decl.map_type, decl.key_size, decl.value_size, decl.max_entries):
                raise LinkError(
                    f"conflicting declarations for map {name!r}: "
                    f"{prior.map_type}/{prior.key_size}/{prior.value_size}"
                    f"/{prior.max_entries} vs {decl.map_type}/{decl.key_size}"
                    f"/{decl.value_size}/{decl.max_entries}"
                )
            decls[name] = decl
        if obj.hook is not None:
            if hook is not None and hook != obj.hook:
                raise LinkError(f"conflicting hooks: {hook!r} vs {obj.hook!r}")
            hook = obj.hook

    # -- section layout ----------------------------------------------------
    sections = []  # (section, owning object) in layout order
    seen_sections: set[str] = set()
    for obj in objects:
        for section in obj.sections.values():
            if section.name in seen_sections:
                raise LinkError(f"duplicate section {section.name!r}")
            seen_sections.add(section.name)
            sections.append((section, obj))
    if entry is not None:
        if entry not in seen_sections:
            raise LinkError(f"entry section {entry!r} not found")
        sections.sort(key=lambda pair: pair[0].name != entry)

    # -- global symbol table ----------------------------------------------
    symbols: dict[str, int] = {}
    base = 0
    bases: list[int] = []
    for section, obj in sections:
        bases.append(base)
        if section.name in symbols:
            raise LinkError(f"duplicate symbol {section.name!r}")
        symbols[section.name] = base
        base += section.size
    for (section, obj), sec_base in zip(sections, bases):
        for label, slot in section.labels.items():
            if label not in obj.globals:
                continue
            if label in symbols and symbols[label] != sec_base + slot:
                raise LinkError(f"duplicate symbol {label!r}")
            symbols[label] = sec_base + slot
    for obj in objects:
        for sym in obj.globals:
            if sym not in symbols:
                raise LinkError(f".globl {sym!r} never defined")

    # -- patch pending branches, concatenate ------------------------------
    insns: list[Instruction] = []
    for (section, obj), sec_base in zip(sections, bases):
        for item in section.items:
            if isinstance(item, PendingBranch):
                target = symbols.get(item.target)
                if target is None:
                    raise LinkError(
                        f"undefined symbol {item.target!r} "
                        f"(section {section.name!r}, line {item.line_no})"
                    )
                item = item.resolved(target, sec_base + item.slot)
            insns.append(item)

    # -- map resolution ----------------------------------------------------
    linked_maps: dict[str, Map] = {}
    provided = dict(maps or {})
    for name, map_obj in provided.items():
        decl = decls.get(name)
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
        linked_maps[name] = map_obj
    for name, decl in decls.items():
        if name not in linked_maps:
            linked_maps[name] = instantiate_map(decl)

    for insn in insns:
        if insn.map_ref is not None and insn.map_ref not in linked_maps:
            raise LinkError(f"undefined map symbol {insn.map_ref!r}")

    return LinkedProgram(insns, linked_maps, decls, symbols, hook)


def load_text(
    source: str,
    maps: dict[str, Map] | None = None,
    name: str = "prog",
    jit: bool = True,
    allowed_helpers=AUTO_HELPERS,
) -> Program:
    """Assemble, link and load one ``.s`` source: ``Program(source, ...)``."""
    return Program(
        source, maps=maps, name=name, jit=jit, allowed_helpers=allowed_helpers
    )


def link_text(source: str, maps: dict[str, Map] | None, allowed_helpers):
    """What ``Program`` loads for a ``str``: (insns, maps, helper whitelist)."""
    linked = link(parse_asm(source), maps=maps)
    return (
        linked.insns,
        linked.maps,
        _helpers_for_hook(linked.hook, allowed_helpers),
    )
