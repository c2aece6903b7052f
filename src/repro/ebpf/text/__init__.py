"""``repro.ebpf.text`` — the textual eBPF toolchain.

The one assembler: ``.s`` sources written in the assignment syntax the
kernel documentation and ``llvm-objdump -d`` use (``r6 = r1``,
``if r2 > r8 goto out``, ``*(u64 *)(r10 - 8) = r3``), with first-class
map declarations and symbolic map relocations.  One source is one
program.  :func:`repro.ebpf.disassemble` prints the same syntax back.

Two layers:

* :mod:`~repro.ebpf.text.easm` — the assembler.  ``parse_asm(text)``
  turns one ``.s`` source into a :class:`~repro.ebpf.text.easm.TextObject`
  (instructions with every branch resolved, map declarations, hook).
* :mod:`~repro.ebpf.text.eld` — the linker.  ``link(obj)`` resolves map
  symbols, instantiates declared maps and returns a
  :class:`~repro.ebpf.text.eld.LinkedProgram` whose ``.load()`` runs the
  ordinary verify-and-load pipeline.

``Program(source)`` assembles, links and loads a ``str`` in one call,
and ``net.load(name, source)`` calls it: every door reads this one
language.

>>> from repro.ebpf import Program
>>> prog = Program('''
...     .map hits, array, key=4, value=8, entries=1
...     *(u32 *)(r10 - 4) = 0
...     r1 = hits ll
...     r2 = r10
...     r2 += -4
...     call map_lookup_elem
...     if r0 == 0 goto out
...     r1 = *(u64 *)(r0 + 0)
...     r1 += 1
...     *(u64 *)(r0 + 0) = r1
... out:
...     r0 = 0
...     exit
... ''')
>>> ret, _ = prog.run_on_packet(b"\\x60" + b"\\x00" * 39)
>>> int.from_bytes(prog.maps["hits"].lookup((0).to_bytes(4, "little")), "little")
1
"""

from .easm import MapDecl, TextObject, parse_asm
from .eld import LinkedProgram, link

__all__ = [
    "LinkedProgram",
    "MapDecl",
    "TextObject",
    "link",
    "parse_asm",
]
