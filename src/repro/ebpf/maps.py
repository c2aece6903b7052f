"""eBPF maps: the persistent state store shared between programs and user space.

The paper relies on maps in two ways (§2.1, §4.2): the WRR scheduler keeps
its weights and last-chosen-path in array maps, and End.DM pushes delay
samples to user space through a perf-event array.  We implement the map
types those applications need, with the same key/value-size discipline and
pointer-based value access as the kernel:

* ``map_lookup_elem`` returns a *guest pointer* to the value storage, so a
  program mutates map state through ordinary stores — exactly the kernel
  contract (and what makes per-packet state cheap).
* Value storage lives at stable guest addresses; the backing ``bytearray``
  objects are shared with user space (:meth:`Map.lookup` /
  :meth:`Map.update`), giving the bcc-style control plane a live view.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterator

from .errors import MapError
from .memory import Memory

_fd_counter = itertools.count(3)  # fds 0-2 are taken, as in any self-respecting process
_fd_lock = threading.Lock()

# Bump allocator for stable guest addresses of map value storage.
_value_addr_cursor = 0x1000_0000
_VALUE_ADDR_LIMIT = 0x7000_0000
_PAGE = 0x1000


def _alloc_value_space(size: int) -> int:
    global _value_addr_cursor
    with _fd_lock:
        base = _value_addr_cursor
        _value_addr_cursor += (size + _PAGE - 1) // _PAGE * _PAGE
        if _value_addr_cursor > _VALUE_ADDR_LIMIT:
            raise MapError("guest map-value address space exhausted")
    return base


def _next_fd() -> int:
    with _fd_lock:
        return next(_fd_counter)


def _align8(size: int) -> int:
    return (size + 7) & ~7


class Map:
    """Base class for all map types."""

    map_type = "unspec"

    def __init__(self, name: str, key_size: int, value_size: int, max_entries: int):
        if key_size <= 0 and self.map_type != "perf_event_array":
            raise MapError("key_size must be positive")
        if value_size < 0:
            raise MapError("value_size must be non-negative")
        if max_entries <= 0:
            raise MapError("max_entries must be positive")
        self.name = name
        self.key_size = key_size
        self.value_size = value_size
        self.max_entries = max_entries
        self.fd = _next_fd()
        self._stride = _align8(max(value_size, 1))
        self._value_base = _alloc_value_space(self._stride * max_entries)

    # -- guest address plumbing ------------------------------------------
    def value_addr(self, slot: int) -> int:
        return self._value_base + slot * self._stride

    def register_value_region(self, mem: Memory, slot: int, data: bytearray) -> int:
        """Expose one entry's storage in the invocation's address space."""
        return mem.map_value(self._value_base + slot * self._stride, data, self)

    def _check_key(self, key: bytes) -> None:
        if len(key) != self.key_size:
            raise MapError(
                f"map {self.name!r}: key size {len(key)} != {self.key_size}"
            )

    def _check_value(self, value: bytes) -> None:
        if len(value) != self.value_size:
            raise MapError(
                f"map {self.name!r}: value size {len(value)} != {self.value_size}"
            )

    # -- interface used by helpers and user space ---------------------------
    def lookup_slot(self, key: bytes) -> tuple[int, bytearray] | None:
        """Return (slot, storage) for ``key`` or None."""
        raise NotImplementedError

    def lookup(self, key: bytes) -> bytes | None:
        found = self.lookup_slot(key)
        return bytes(found[1]) if found else None

    def update(self, key: bytes, value: bytes) -> None:
        raise NotImplementedError

    def delete(self, key: bytes) -> None:
        raise NotImplementedError

    def keys(self) -> Iterator[bytes]:
        raise NotImplementedError

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        for key in self.keys():
            value = self.lookup(key)
            if value is not None:
                yield key, value


class ArrayMap(Map):
    """``BPF_MAP_TYPE_ARRAY``: u32 index keys, preallocated values."""

    map_type = "array"

    def __init__(self, name: str, value_size: int, max_entries: int, key_size: int = 4):
        if key_size != 4:
            raise MapError("array map keys must be 4 bytes (u32 index)")
        super().__init__(name, 4, value_size, max_entries)
        self._values = [bytearray(value_size) for _ in range(max_entries)]

    def _index(self, key: bytes) -> int | None:
        self._check_key(key)
        idx = int.from_bytes(key, "little")
        return idx if idx < self.max_entries else None

    def lookup_slot(self, key: bytes):
        idx = self._index(key)
        if idx is None:
            return None
        return idx, self._values[idx]

    def update(self, key: bytes, value: bytes) -> None:
        idx = self._index(key)
        if idx is None:
            raise MapError(f"array map {self.name!r}: index out of bounds")
        self._check_value(value)
        self._values[idx][:] = value

    def delete(self, key: bytes) -> None:
        raise MapError("array map entries cannot be deleted")

    def keys(self) -> Iterator[bytes]:
        for idx in range(self.max_entries):
            yield idx.to_bytes(4, "little")


class PerCpuArrayMap(ArrayMap):
    """``BPF_MAP_TYPE_PERCPU_ARRAY``.

    The simulator runs a single datapath CPU (the paper pins NIC interrupts
    to one core, §3.2), so this behaves as an array map; the type exists so
    programs written against per-CPU semantics load unmodified.
    """

    map_type = "percpu_array"


class HashMap(Map):
    """``BPF_MAP_TYPE_HASH``: arbitrary fixed-size keys, dynamic population."""

    map_type = "hash"

    def __init__(self, name: str, key_size: int, value_size: int, max_entries: int):
        super().__init__(name, key_size, value_size, max_entries)
        self._entries: dict[bytes, tuple[int, bytearray]] = {}
        self._free_slots = list(range(max_entries - 1, -1, -1))

    def lookup_slot(self, key: bytes):
        self._check_key(key)
        return self._entries.get(key)

    def update(self, key: bytes, value: bytes) -> None:
        self._check_key(key)
        self._check_value(value)
        existing = self._entries.get(key)
        if existing is not None:
            existing[1][:] = value
            return
        if not self._free_slots:
            raise MapError(f"hash map {self.name!r} is full")
        slot = self._free_slots.pop()
        self._entries[key] = (slot, bytearray(value))

    def delete(self, key: bytes) -> None:
        self._check_key(key)
        entry = self._entries.pop(key, None)
        if entry is None:
            raise MapError(f"hash map {self.name!r}: no such key")
        self._free_slots.append(entry[0])

    def keys(self) -> Iterator[bytes]:
        yield from list(self._entries.keys())


class LpmTrieMap(Map):
    """``BPF_MAP_TYPE_LPM_TRIE``: longest-prefix-match lookups.

    Keys are ``struct bpf_lpm_trie_key``: a 4-byte little-endian prefix
    length followed by ``key_size - 4`` bytes of data (e.g. an IPv6
    address).  Lookup finds the entry with the longest prefix that matches
    the queried data, as used for FIB-style state in eBPF programs.
    """

    map_type = "lpm_trie"

    def __init__(self, name: str, key_size: int, value_size: int, max_entries: int):
        if key_size <= 4:
            raise MapError("LPM trie key must be >4 bytes (prefixlen + data)")
        super().__init__(name, key_size, value_size, max_entries)
        self.data_size = key_size - 4
        self._entries: dict[tuple[int, bytes], tuple[int, bytearray]] = {}
        self._free_slots = list(range(max_entries - 1, -1, -1))

    def _parse_key(self, key: bytes) -> tuple[int, bytes]:
        self._check_key(key)
        prefixlen = int.from_bytes(key[:4], "little")
        if prefixlen > 8 * self.data_size:
            raise MapError(f"prefixlen {prefixlen} exceeds key data size")
        # Canonicalise: bits beyond the prefix are masked off, so two keys
        # that denote the same prefix are the same entry (as in the kernel).
        value = int.from_bytes(key[4:], "big")
        shift = 8 * self.data_size - prefixlen
        masked = (value >> shift << shift) if shift else value
        return prefixlen, masked.to_bytes(self.data_size, "big")

    @staticmethod
    def _prefix_bits(data: bytes, prefixlen: int) -> int:
        value = int.from_bytes(data, "big")
        shift = 8 * len(data) - prefixlen
        return value >> shift if shift >= 0 else value

    def lookup_slot(self, key: bytes):
        prefixlen, data = self._parse_key(key)
        best = None
        best_len = -1
        for (entry_len, entry_data), stored in self._entries.items():
            if entry_len > prefixlen or entry_len <= best_len:
                continue
            if self._prefix_bits(data, entry_len) == self._prefix_bits(
                entry_data, entry_len
            ):
                best, best_len = stored, entry_len
        return best

    def update(self, key: bytes, value: bytes) -> None:
        prefixlen, data = self._parse_key(key)
        self._check_value(value)
        norm = (prefixlen, data)
        existing = self._entries.get(norm)
        if existing is not None:
            existing[1][:] = value
            return
        if not self._free_slots:
            raise MapError(f"LPM map {self.name!r} is full")
        slot = self._free_slots.pop()
        self._entries[norm] = (slot, bytearray(value))

    def delete(self, key: bytes) -> None:
        norm = self._parse_key(key)
        entry = self._entries.pop(norm, None)
        if entry is None:
            raise MapError(f"LPM map {self.name!r}: no such key")
        self._free_slots.append(entry[0])

    def keys(self) -> Iterator[bytes]:
        for prefixlen, data in list(self._entries.keys()):
            yield prefixlen.to_bytes(4, "little") + data


class PerfEventArrayMap(Map):
    """``BPF_MAP_TYPE_PERF_EVENT_ARRAY``: kernel→user event channel.

    ``bpf_perf_event_output`` appends records here; user-space pollers
    (see :mod:`repro.userspace.perf`) drain them.  This is how End.DM
    exports its timestamp pairs (§4.1).
    """

    map_type = "perf_event_array"

    def __init__(self, name: str, max_entries: int = 1):
        super().__init__(name, 4, 0, max_entries)
        from ..userspace.perf import PerfRing

        self._rings = [PerfRing() for _ in range(max_entries)]

    def ring(self, cpu: int = 0):
        if cpu >= len(self._rings):
            raise MapError(f"perf array {self.name!r}: no CPU {cpu}")
        return self._rings[cpu]

    def output(self, cpu: int, data: bytes, time_ns: int = 0) -> bool:
        """Push one record; returns False if the ring rejected it.

        ``time_ns`` stamps the record (telemetry bridges merge several
        rings by timestamp); plain byte drains ignore it.
        """
        return self.ring(cpu).push(data, time_ns)

    def lookup_slot(self, key: bytes):
        return None

    def update(self, key: bytes, value: bytes) -> None:
        raise MapError("perf event arrays are not updatable from user space")

    def delete(self, key: bytes) -> None:
        raise MapError("perf event arrays are not deletable")

    def keys(self) -> Iterator[bytes]:
        return iter(())


MAP_TYPES = {
    cls.map_type: cls
    for cls in (ArrayMap, PerCpuArrayMap, HashMap, LpmTrieMap, PerfEventArrayMap)
}
