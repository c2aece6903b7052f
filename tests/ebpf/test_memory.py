"""Guest memory: regions, bounds, permissions."""

import pytest

from repro.ebpf import Memory, Region
from repro.ebpf.errors import MemoryFault
from repro.ebpf.memory import PROT_READ, PROT_WRITE


def test_load_store_roundtrip():
    mem = Memory()
    mem.add_region(Region(0x1000, bytearray(16)))
    mem.store(0x1008, 8, 0x1122334455667788)
    assert mem.load(0x1008, 8) == 0x1122334455667788


def test_little_endian_layout():
    mem = Memory()
    mem.add_region(Region(0x1000, bytearray(8)))
    mem.store(0x1000, 4, 0x01020304)
    assert mem.read_bytes(0x1000, 4) == b"\x04\x03\x02\x01"


def test_partial_widths():
    mem = Memory()
    mem.add_region(Region(0x1000, bytearray(8)))
    mem.store(0x1000, 1, 0xAB)
    mem.store(0x1001, 2, 0xCDEF)
    assert mem.load(0x1000, 1) == 0xAB
    assert mem.load(0x1001, 2) == 0xCDEF


def test_store_truncates_to_width():
    mem = Memory()
    mem.add_region(Region(0x1000, bytearray(8)))
    mem.store(0x1000, 1, 0x1FF)
    assert mem.load(0x1000, 1) == 0xFF


def test_unmapped_access_faults():
    mem = Memory()
    with pytest.raises(MemoryFault, match="unmapped"):
        mem.load(0x5000, 4)


def test_access_straddling_region_end_faults():
    mem = Memory()
    mem.add_region(Region(0x1000, bytearray(8)))
    with pytest.raises(MemoryFault):
        mem.load(0x1006, 4)


def test_access_just_before_region_faults():
    mem = Memory()
    mem.add_region(Region(0x1000, bytearray(8)))
    with pytest.raises(MemoryFault):
        mem.load(0xFFF, 1)


def test_find_faults_exactly_outside_regions():
    mem = Memory()
    mem.add_region(Region(0x1000, bytearray(8)))
    mem.add_region(Region(0x3000, bytearray(8)))
    inside = (0x1000, 0x1007, 0x3000, 0x3007)
    for addr in inside:
        assert mem.find(addr, 1).base == addr & ~0xFFF, hex(addr)
    for addr in (0xFFF, 0x1008, 0x2FFF, 0x3008):
        with pytest.raises(MemoryFault):
            mem.find(addr, 1)


def test_readonly_region_rejects_writes():
    mem = Memory()
    mem.add_region(Region(0x1000, bytearray(8), PROT_READ))
    assert mem.load(0x1000, 4) == 0
    with pytest.raises(MemoryFault, match="read-only"):
        mem.store(0x1000, 4, 1)


def test_noaccess_region_rejects_reads():
    mem = Memory()
    mem.add_region(Region(0x1000, bytearray(8), 0))
    with pytest.raises(MemoryFault, match="non-readable"):
        mem.load(0x1000, 1)


def test_overlapping_regions_rejected():
    mem = Memory()
    mem.add_region(Region(0x1000, bytearray(16)))
    with pytest.raises(MemoryFault, match="overlaps"):
        mem.add_region(Region(0x1008, bytearray(16)))


def test_adjacent_regions_allowed():
    mem = Memory()
    mem.add_region(Region(0x1000, bytearray(16)))
    mem.add_region(Region(0x1010, bytearray(16)))
    mem.store(0x1010, 1, 7)
    assert mem.load(0x1010, 1) == 7


def test_region_lookup_across_many_regions():
    mem = Memory()
    for i in range(10):
        mem.add_region(Region(0x1000 + 0x100 * i, bytearray(0x10)))
    mem.store(0x1000 + 0x100 * 7 + 4, 4, 99)
    assert mem.load(0x1000 + 0x100 * 7 + 4, 4) == 99


def test_bulk_read_write():
    mem = Memory()
    mem.add_region(Region(0x2000, bytearray(32)))
    mem.write_bytes(0x2004, b"hello world")
    assert mem.read_bytes(0x2004, 11) == b"hello world"


def test_region_data_shared_with_backing_bytearray():
    backing = bytearray(8)
    mem = Memory()
    mem.add_region(Region(0x3000, backing))
    mem.store(0x3000, 4, 0xDEAD)
    assert int.from_bytes(backing[:4], "little") == 0xDEAD


# --- the three faults, by message ---------------------------------------------------------


@pytest.mark.parametrize(
    "access, writes",
    [
        (lambda mem, addr: mem.load(addr, 4), False),
        (lambda mem, addr: mem.read_bytes(addr, 4), False),
        (lambda mem, addr: mem.store(addr, 4, 1), True),
        (lambda mem, addr: mem.write_bytes(addr, b"abcd"), True),
    ],
    ids=["load", "read_bytes", "store", "write_bytes"],
)
def test_fault_messages(access, writes):
    mem = Memory()
    mem.add_region(Region(0x1000, bytearray(8), PROT_READ))
    mem.add_region(Region(0x2000, bytearray(8), PROT_WRITE))
    with pytest.raises(MemoryFault) as fault:
        access(mem, 0x1000 if writes else 0x2000)
    assert str(fault.value) == (
        "write to read-only region at 0x1000"
        if writes
        else "read from non-readable region at 0x2000"
    )
    for addr in (0xFFC, 0x1006, 0x3000):  # below, straddling the end, above
        with pytest.raises(MemoryFault) as fault:
            access(mem, addr)
        assert str(fault.value) == f"access to unmapped guest address {addr:#x} (+4)"


def test_map_handle_region_refuses_reads_and_writes():
    """The opaque ``map_ptr`` handles are mapped with no permission at all."""
    from repro.ebpf import ArrayMap
    from repro.ebpf.helpers import install_map_regions
    from repro.ebpf.memory import MAP_PTR_BASE

    map_obj = ArrayMap("handle", value_size=8, max_entries=1)
    addr = MAP_PTR_BASE  # a program's first map
    mem = Memory()
    install_map_regions(mem, {addr: map_obj})
    assert mem.find(addr, 16).kind == "map_ptr"
    with pytest.raises(MemoryFault, match=f"read from non-readable region at {addr:#x}"):
        mem.load(addr, 8)
    with pytest.raises(MemoryFault, match=f"read from non-readable region at {addr:#x}"):
        mem.read_bytes(addr, 16)
    with pytest.raises(MemoryFault, match=f"write to read-only region at {addr:#x}"):
        mem.store(addr, 8, 1)
    with pytest.raises(MemoryFault, match=f"write to read-only region at {addr:#x}"):
        mem.write_bytes(addr, bytes(16))
