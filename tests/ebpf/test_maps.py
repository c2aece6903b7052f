"""Map semantics: array, per-CPU array, hash, LPM trie, perf event array."""

import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from repro.ebpf import (
    ArrayMap,
    HashMap,
    HelperContext,
    LpmTrieMap,
    MapError,
    Memory,
    PerCpuArrayMap,
    PerfEventArrayMap,
    Program,
)
from repro.ebpf.helpers import HELPERS_BY_ID
from repro.ebpf.memory import Region


def key32(i: int) -> bytes:
    return i.to_bytes(4, "little")


# --- array ------------------------------------------------------------------


def test_array_preallocated_zeroed():
    m = ArrayMap("a", value_size=8, max_entries=4)
    assert m.lookup(key32(0)) == bytes(8)
    assert m.lookup(key32(3)) == bytes(8)


def test_array_update_lookup():
    m = ArrayMap("a", value_size=4, max_entries=2)
    m.update(key32(1), b"abcd")
    assert m.lookup(key32(1)) == b"abcd"


def test_array_out_of_bounds_lookup_is_none():
    m = ArrayMap("a", value_size=4, max_entries=2)
    assert m.lookup(key32(2)) is None


def test_array_out_of_bounds_update_raises():
    m = ArrayMap("a", value_size=4, max_entries=2)
    with pytest.raises(MapError):
        m.update(key32(5), b"abcd")


def test_array_delete_forbidden():
    m = ArrayMap("a", value_size=4, max_entries=2)
    with pytest.raises(MapError):
        m.delete(key32(0))


def test_array_wrong_value_size():
    m = ArrayMap("a", value_size=4, max_entries=2)
    with pytest.raises(MapError):
        m.update(key32(0), b"too long for four")


def test_array_wrong_key_size():
    m = ArrayMap("a", value_size=4, max_entries=2)
    with pytest.raises(MapError):
        m.lookup(b"\x00" * 8)


def test_array_keys_iteration():
    m = ArrayMap("a", value_size=4, max_entries=3)
    assert list(m.keys()) == [key32(0), key32(1), key32(2)]


def test_array_items():
    m = ArrayMap("a", value_size=4, max_entries=2)
    m.update(key32(1), b"wxyz")
    assert dict(m.items())[key32(1)] == b"wxyz"


def test_percpu_array_behaves_like_array():
    m = PerCpuArrayMap("p", value_size=8, max_entries=2)
    m.update(key32(0), b"12345678")
    assert m.lookup(key32(0)) == b"12345678"
    assert m.map_type == "percpu_array"


BASE = 0x1000_0000
HANDLE = 0x7F00_0000
KEY_AT = 0x2000


def lookup(m, mem: Memory, key: bytes) -> int:
    """``map_lookup_elem`` on ``m`` bound at HANDLE with its values from BASE; the key sits at KEY_AT."""
    if KEY_AT not in mem.snapshot()[0]:
        mem.add_region(Region(KEY_AT, bytearray(8), kind="key"))
    mem.write_bytes(KEY_AT, key)
    hctx = HelperContext(mem, maps={HANDLE: m})
    hctx.value_bases = {HANDLE: BASE}
    return HELPERS_BY_ID[1](hctx, HANDLE, KEY_AT)


def test_stable_value_addresses():
    """Slot s of a map sits at base + s * stride in any address space."""
    m = ArrayMap("a", value_size=5, max_entries=4)
    addrs = [lookup(m, Memory(), key32(i)) for i in range(4)]
    assert addrs == [BASE, BASE + 8, BASE + 16, BASE + 24]  # 5-byte values, 8-byte stride
    assert lookup(m, Memory(), key32(4)) == 0  # past max_entries: NULL


def test_array_lookup_checks_the_key_size_first():
    m = ArrayMap("a", value_size=4, max_entries=2)
    for key in (b"", b"\x00" * 3, b"\x00" * 5, key32(7) * 2):
        with pytest.raises(MapError, match=f"key size {len(key)} != 4"):
            m.lookup_slot(key)


def test_value_region_is_registered_once_per_address_space():
    m = ArrayMap("a", value_size=8, max_entries=4)
    mem = Memory()
    addr = lookup(m, mem, key32(2))
    assert lookup(m, mem, key32(2)) == addr == BASE + 16
    assert [r.base for r in mem.snapshot()[1]] == [KEY_AT, addr]
    mem.store(addr, 8, 0x0102030405060708)  # guest stores land in the map
    assert m.lookup(key32(2)) == bytes(range(8, 0, -1))


def test_distinct_maps_use_distinct_address_space():
    """A program lays its maps' values out one after another, in
    first-reference order, whatever other programs did with them."""
    m1 = ArrayMap("a1", value_size=8, max_entries=4)
    m2 = ArrayMap("a2", value_size=12, max_entries=3)
    text = "r1 = a2 ll\nr1 = a1 ll\nr1 = a2 ll\nr0 = 0\nexit"
    for maps in ({"a1": m1, "a2": m2}, {"a2": m2, "a1": m1}):
        prog = Program(text, maps=maps, allowed_helpers=None)
        assert list(prog.maps_by_addr.values()) == [m2, m1]
        assert list(prog.value_bases.values()) == [BASE, BASE + 3 * 16]


# --- hash ---------------------------------------------------------------------


def test_hash_insert_lookup_delete():
    m = HashMap("h", key_size=8, value_size=4, max_entries=4)
    m.update(b"AAAAAAAA", b"1111")
    assert m.lookup(b"AAAAAAAA") == b"1111"
    m.delete(b"AAAAAAAA")
    assert m.lookup(b"AAAAAAAA") is None


def test_hash_missing_lookup_none():
    m = HashMap("h", key_size=4, value_size=4, max_entries=4)
    assert m.lookup(key32(7)) is None


def test_hash_update_overwrites():
    m = HashMap("h", key_size=4, value_size=4, max_entries=4)
    m.update(key32(1), b"aaaa")
    m.update(key32(1), b"bbbb")
    assert m.lookup(key32(1)) == b"bbbb"


def test_hash_full_map_rejects_new_keys():
    m = HashMap("h", key_size=4, value_size=4, max_entries=2)
    m.update(key32(1), b"aaaa")
    m.update(key32(2), b"bbbb")
    with pytest.raises(MapError, match="full"):
        m.update(key32(3), b"cccc")
    m.update(key32(1), b"dddd")  # existing key still updatable


def test_hash_slot_reuse_after_delete():
    m = HashMap("h", key_size=4, value_size=4, max_entries=1)
    m.update(key32(1), b"aaaa")
    m.delete(key32(1))
    m.update(key32(2), b"bbbb")
    assert m.lookup(key32(2)) == b"bbbb"


@pytest.mark.parametrize("map_type", [HashMap, LpmTrieMap])
def test_value_region_follows_a_reused_slot(map_type):
    """delete(A) + update(B) re-uses A's slot with new storage: a second
    lookup in the same address space must map B's bytes, not keep A's."""
    m = map_type("h", key_size=8, value_size=8, max_entries=1)
    key_a, key_b = key32(32) + b"AAAA", key32(32) + b"BBBB"  # LPM: a /32 each
    mem = Memory()
    m.update(key_a, b"AAAAAAAA")
    addr = lookup(m, mem, key_a)
    m.delete(key_a)
    m.update(key_b, b"BBBBBBBB")
    assert lookup(m, mem, key_b) == addr
    assert mem.read_bytes(addr, 8) == b"BBBBBBBB"
    mem.store(addr, 1, ord("b"))  # and guest stores land in the live entry
    assert m.lookup(key_b) == b"bBBBBBBB"
    assert mem.values[addr] is m.lookup_slot(key_b)[1]
    assert [r.base for r in mem.snapshot()[1]] == [KEY_AT, addr]  # swapped, not mapped twice


DELETE_REINSERT_ASM = """
.map m, hash, key=4, value=8, entries=1
    *(u32 *)(r10 - 4) = 1              ; key A
    r1 = m ll
    r2 = r10
    r2 += -4
    call map_lookup_elem               ; maps A's storage
    if r0 == 0 goto fail
    r1 = m ll
    r2 = r10
    r2 += -4
    call map_delete_elem
    *(u32 *)(r10 - 8) = 2              ; key B takes A's slot
    *(u64 *)(r10 - 16) = 11
    r1 = m ll
    r2 = r10
    r2 += -8
    r3 = r10
    r3 += -16
    r4 = 0
    call map_update_elem
    r1 = m ll
    r2 = r10
    r2 += -8
    call map_lookup_elem
    if r0 == 0 goto fail
    r6 = *(u64 *)(r0 + 0)              ; B's 11, not A's 7
    r1 = r6
    r1 += 1
    *(u64 *)(r0 + 0) = r1              ; and the store reaches B
    r0 = r6
    exit
fail:
    r0 = -1
    exit
"""


@pytest.mark.parametrize("jit", [False, True], ids=["vm", "jit"])
def test_program_reads_the_entry_it_reinserted(jit):
    m = HashMap("m", key_size=4, value_size=8, max_entries=1)
    m.update(key32(1), (7).to_bytes(8, "little"))
    prog = Program(DELETE_REINSERT_ASM, maps={"m": m}, jit=jit)
    ret, _hctx = prog.run_on_packet(b"\x60" + bytes(39))
    assert ret == 11
    assert m.lookup(key32(1)) is None
    assert m.lookup(key32(2)) == (12).to_bytes(8, "little")


def test_hash_delete_missing_raises():
    m = HashMap("h", key_size=4, value_size=4, max_entries=2)
    with pytest.raises(MapError):
        m.delete(key32(1))


# --- LPM trie ---------------------------------------------------------------------


def lpm_key(prefixlen: int, addr: str) -> bytes:
    return prefixlen.to_bytes(4, "little") + ipaddress.IPv6Address(addr).packed


def test_lpm_longest_prefix_wins():
    m = LpmTrieMap("t", key_size=20, value_size=1, max_entries=8)
    m.update(lpm_key(16, "fc00::"), b"\x01")
    m.update(lpm_key(64, "fc00:1::"), b"\x02")
    assert m.lookup(lpm_key(128, "fc00:1::5")) == b"\x02"
    assert m.lookup(lpm_key(128, "fc00:2::5")) == b"\x01"


def test_lpm_no_match():
    m = LpmTrieMap("t", key_size=20, value_size=1, max_entries=8)
    m.update(lpm_key(16, "fc00::"), b"\x01")
    assert m.lookup(lpm_key(128, "fd00::1")) is None


def test_lpm_default_route():
    m = LpmTrieMap("t", key_size=20, value_size=1, max_entries=8)
    m.update(lpm_key(0, "::"), b"\x0a")
    assert m.lookup(lpm_key(128, "2001:db8::1")) == b"\x0a"


def test_lpm_exact_host_entry():
    m = LpmTrieMap("t", key_size=20, value_size=1, max_entries=8)
    m.update(lpm_key(128, "fc00::1"), b"\x07")
    assert m.lookup(lpm_key(128, "fc00::1")) == b"\x07"
    assert m.lookup(lpm_key(128, "fc00::2")) is None


def test_lpm_delete():
    m = LpmTrieMap("t", key_size=20, value_size=1, max_entries=8)
    m.update(lpm_key(16, "fc00::"), b"\x01")
    m.delete(lpm_key(16, "fc00::"))
    assert m.lookup(lpm_key(128, "fc00::1")) is None


def test_lpm_bad_prefixlen():
    m = LpmTrieMap("t", key_size=20, value_size=1, max_entries=8)
    with pytest.raises(MapError):
        m.update(lpm_key(129, "fc00::"), b"\x01")


@settings(max_examples=100, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 32), st.integers(0, (1 << 32) - 1)),
        min_size=1,
        max_size=12,
    ),
    query=st.integers(0, (1 << 32) - 1),
)
def test_lpm_matches_reference_model(entries, query):
    """LPM over 4-byte keys agrees with a brute-force reference."""
    m = LpmTrieMap("t", key_size=8, value_size=4, max_entries=64)
    model = {}
    for prefixlen, value in entries:
        data = value.to_bytes(4, "big")
        m.update(prefixlen.to_bytes(4, "little") + data, data)
        mask = ((1 << prefixlen) - 1) << (32 - prefixlen) if prefixlen else 0
        model[(prefixlen, value & 0xFFFFFFFF & mask if prefixlen else 0)] = data

    def reference(q: int):
        best = None
        best_len = -1
        for (prefixlen, prefix), data in model.items():
            shift = 32 - prefixlen
            if prefixlen > best_len and (q >> shift if shift < 32 else 0) == (
                prefix >> shift if shift < 32 else 0
            ):
                best, best_len = data, prefixlen
        return best

    got = m.lookup((32).to_bytes(4, "little") + query.to_bytes(4, "big"))
    assert got == reference(query)


# --- perf event array -----------------------------------------------------------------


def test_perf_output_and_drain():
    m = PerfEventArrayMap("e")
    assert m.output(0, b"hello")
    assert m.ring(0).drain() == [b"hello"]


def test_perf_ring_bounded_and_counts_drops():
    from repro.userspace.perf import PerfRing

    ring = PerfRing(capacity=2)
    assert ring.push(b"1") and ring.push(b"2")
    assert not ring.push(b"3")
    assert ring.dropped == 1
    assert len(ring) == 2


def test_perf_fifo_order():
    m = PerfEventArrayMap("e")
    for i in range(5):
        m.output(0, bytes([i]))
    assert m.ring(0).drain() == [bytes([i]) for i in range(5)]


def test_perf_not_updatable():
    m = PerfEventArrayMap("e")
    with pytest.raises(MapError):
        m.update(b"\x00" * 4, b"")


def test_map_rejects_nonpositive_entries():
    with pytest.raises(MapError):
        ArrayMap("a", value_size=4, max_entries=0)
