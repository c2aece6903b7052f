"""Segmented guest address space for the eBPF virtual machine.

Registers hold 64-bit integers; pointer values are addresses in this guest
space.  Each invocation assembles a :class:`Memory` out of *regions* — the
stack, the program context, the packet, and map values (an array's when
the space is built, another map's lazily on lookup).  Regions
carry permissions, so a verified program that somehow computed a wild
pointer still cannot corrupt the host: all accesses are bounds- and
permission-checked and raise :class:`MemoryFault` on violation.

Region base addresses are stable across invocations for map values, which
is what lets eBPF keep persistent state behind map-lookup pointers.

Every access is one ``bisect_right`` over the region bases plus a bounds
and a permission check: the interpreter's path and the JIT's generic one,
the reference for the JIT's region-specialised accesses.  Those index a
map value through :attr:`Memory.values`, not through its region.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .errors import MemoryFault

# Fixed guest layout.  Addresses are arbitrary but non-overlapping; keeping
# them well separated makes pointer provenance obvious in VM traces.
CTX_BASE = 0x0000_1000
STACK_BASE = 0x0001_0000  # r10 (frame pointer) points at STACK_TOP
PACKET_BASE = 0x0010_0000
MAP_VALUE_BASE = 0x1000_0000
MAP_PTR_BASE = 0x7F00_0000  # opaque map handles (never dereferenced)

PROT_READ = 0x1
PROT_WRITE = 0x2


@dataclass
class Region:
    """A contiguous, permission-tagged slice of guest memory."""

    base: int
    data: bytearray
    prot: int = PROT_READ | PROT_WRITE
    kind: str = "mem"
    tag: object = field(default=None, compare=False)

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def contains(self, addr: int, size: int) -> bool:
        return self.base <= addr and addr + size <= self.end


class Memory:
    """Bounds-checked guest memory assembled from regions."""

    def __init__(self) -> None:
        self._bases: list[int] = []
        self._regions: list[Region] = []
        # Value base address -> buffer of each "map_value" region mapped.
        self.values: dict[int, bytearray] = {}

    # -- region management -------------------------------------------------
    def add_region(self, region: Region) -> Region:
        idx = bisect_left(self._bases, region.base)
        prev_ok = idx == 0 or self._regions[idx - 1].end <= region.base
        next_ok = idx == len(self._bases) or region.end <= self._bases[idx]
        if not (prev_ok and next_ok):
            raise MemoryFault(
                f"region {region.base:#x}+{len(region.data)} overlaps existing"
            )
        self._bases.insert(idx, region.base)
        self._regions.insert(idx, region)
        return region

    def map_value(self, addr: int, data: bytearray, tag: object = None) -> int:
        """Map one map entry's storage at its stable address ``addr``; returns ``addr``."""
        idx = bisect_right(self._bases, addr)
        prev = self._regions[idx - 1] if idx else None
        if prev is not None and prev.base == addr:
            # Mapped already — to other storage if the slot was deleted and
            # re-inserted since, so region and table move to ``data``.
            prev.data = self.values[addr] = data
            return addr
        if (prev is not None and prev.base + len(prev.data) > addr) or (
            idx < len(self._bases) and addr + len(data) > self._bases[idx]
        ):
            raise MemoryFault(f"region {addr:#x}+{len(data)} overlaps existing")
        self._bases.insert(idx, addr)
        self._regions.insert(idx, Region(addr, data, PROT_READ | PROT_WRITE, "map_value", tag))
        self.values[addr] = data
        return addr

    def find(self, addr: int, size: int = 1) -> Region:
        """Locate the region holding [addr, addr+size) or fault."""
        idx = bisect_right(self._bases, addr) - 1
        if idx >= 0:
            region = self._regions[idx]
            if region.contains(addr, size):
                return region
        raise MemoryFault(f"access to unmapped guest address {addr:#x} (+{size})")

    # -- reuse by an attach site's handler -------------------------------------
    def snapshot(self) -> tuple[list[int], list[Region], dict[int, bytearray]]:
        """Capture the region table so :meth:`restore` can drop later additions.

        The :class:`Region` objects themselves are shared, not copied — a
        snapshot freezes *which* regions are mapped, not their contents.
        An attach site's handler takes one as it builds its space, and its
        plan restores it for a program that may look up a non-array map.
        """
        return list(self._bases), list(self._regions), dict(self.values)

    def restore(self, snapshot: tuple[list[int], list[Region], dict[int, bytearray]]) -> None:
        """Unmap every region added since ``snapshot`` was taken.

        Regions are only ever added (array values as the space is built,
        others lazily on lookup), so restoring the snapshot's table and
        :attr:`values` is exactly equivalent to assembling a fresh space.
        """
        bases, regions, values = snapshot
        if len(self._regions) != len(regions):
            self._bases[:] = bases
            self._regions[:] = regions
            self.values = dict(values)

    # -- accessors (scalar for the engines, bulk for the helpers) -------------
    def _span(self, addr: int, size: int, prot: int) -> tuple[bytearray, int]:
        """(buffer, offset) of [addr, addr+size): one bisect, bounds and permission checked."""
        idx = bisect_right(self._bases, addr) - 1
        if idx >= 0:
            region = self._regions[idx]
            off = addr - region.base
            if off + size <= len(region.data):
                if region.prot & prot:
                    return region.data, off
                if prot == PROT_READ:
                    raise MemoryFault(f"read from non-readable region at {addr:#x}")
                raise MemoryFault(f"write to read-only region at {addr:#x}")
        raise MemoryFault(f"access to unmapped guest address {addr:#x} (+{size})")

    def load(self, addr: int, size: int) -> int:
        data, off = self._span(addr, size, PROT_READ)
        return int.from_bytes(data[off : off + size], "little")

    def store(self, addr: int, size: int, value: int) -> None:
        data, off = self._span(addr, size, PROT_WRITE)
        data[off : off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")

    def read_bytes(self, addr: int, size: int) -> bytes:
        data, off = self._span(addr, size, PROT_READ)
        return bytes(data[off : off + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        buffer, off = self._span(addr, len(data), PROT_WRITE)
        buffer[off : off + len(data)] = data
