"""Generic helpers and the helper registry."""

import pytest

import repro.net  # noqa: F401
from repro.ebpf import (
    ArrayMap,
    HELPER_IDS_BY_NAME,
    HELPERS_BY_ID,
    PerfEventArrayMap,
    Program,
)
from repro.ebpf.errors import HelperError
from repro.ebpf.helpers import register_helper

PKT = b"\x60" + b"\x00" * 39


def test_registry_consistency():
    for helper_id, helper in HELPERS_BY_ID.items():
        assert helper.helper_id == helper_id
        assert HELPER_IDS_BY_NAME[helper.name] == helper_id


def test_core_helper_ids_match_linux():
    assert HELPER_IDS_BY_NAME["map_lookup_elem"] == 1
    assert HELPER_IDS_BY_NAME["map_update_elem"] == 2
    assert HELPER_IDS_BY_NAME["map_delete_elem"] == 3
    assert HELPER_IDS_BY_NAME["ktime_get_ns"] == 5
    assert HELPER_IDS_BY_NAME["get_prandom_u32"] == 7
    assert HELPER_IDS_BY_NAME["perf_event_output"] == 25


def test_duplicate_registration_rejected():
    with pytest.raises(HelperError):
        register_helper(1, "another_lookup", [])(lambda hctx: 0)
    with pytest.raises(HelperError):
        register_helper(91234, "map_lookup_elem", [])(lambda hctx: 0)


def test_ktime_uses_invocation_clock():
    prog = Program("call ktime_get_ns\nexit")
    ret, _ = prog.run_on_packet(PKT, clock_ns=lambda: 123456)
    assert ret == 123456


def test_prandom_is_deterministic_per_seed():
    import random

    prog = Program("call get_prandom_u32\nexit")
    r1, _ = prog.run_on_packet(PKT, rng=random.Random(42))
    r2, _ = prog.run_on_packet(PKT, rng=random.Random(42))
    r3, _ = prog.run_on_packet(PKT, rng=random.Random(43))
    assert r1 == r2
    assert r1 != r3


def test_smp_processor_id():
    prog = Program("call get_smp_processor_id\nexit")
    ret, _ = prog.run_on_packet(PKT)
    assert ret == 0


def test_map_update_and_delete_from_program():
    m = ArrayMap("m", value_size=8, max_entries=2)
    source = """
    *(u32 *)(r10 - 4) = 1
    *(u64 *)(r10 - 16) = 777
    r1 = m ll
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -16
    r4 = 0
    call map_update_elem
    exit
    """
    ret, _ = Program(source, maps={"m": m}).run_on_packet(PKT)
    assert ret == 0
    assert int.from_bytes(m.lookup((1).to_bytes(4, "little")), "little") == 777


def test_map_delete_returns_error_for_array():
    m = ArrayMap("m", value_size=8, max_entries=2)
    source = """
    *(u32 *)(r10 - 4) = 0
    r1 = m ll
    r2 = r10
    r2 += -4
    call map_delete_elem
    exit
    """
    ret, _ = Program(source, maps={"m": m}).run_on_packet(PKT)
    assert ret == (-1) & ((1 << 64) - 1)  # arrays cannot delete


def test_trace_printk_formats_into_log():
    source = """
    r1 = 0x000a7525             ; "%u\\n\\0" little-endian
    *(u32 *)(r10 - 8) = r1
    r1 = r10
    r1 += -8
    r2 = 4
    r3 = 42
    r4 = 0
    r5 = 0
    call trace_printk
    r0 = 0
    exit
    """
    _ret, hctx = Program(source).run_on_packet(PKT)
    assert hctx.trace_log == ["42\n"]


def test_perf_event_output_from_program():
    events = PerfEventArrayMap("ev")
    source = """
    r6 = r1
    *(u64 *)(r10 - 8) = 0x11
    r1 = r6
    r2 = ev ll
    w3 = -1
    r4 = r10
    r4 += -8
    r5 = 8
    call perf_event_output
    r0 = 0
    exit
    """
    Program(source, maps={"ev": events}).run_on_packet(PKT)
    records = events.ring(0).drain()
    assert records == [(0x11).to_bytes(8, "little")]


def test_perf_event_output_requires_perf_map():
    not_perf = ArrayMap("np", value_size=8, max_entries=1)
    source = """
    r6 = r1
    *(u64 *)(r10 - 8) = 0
    r1 = r6
    r2 = np ll
    w3 = -1
    r4 = r10
    r4 += -8
    r5 = 8
    call perf_event_output
    r0 = 0
    exit
    """
    with pytest.raises(HelperError, match="perf event array"):
        Program(source, maps={"np": not_perf}).run_on_packet(PKT)


def test_skb_rx_timestamp_reads_packet_metadata():
    from repro.net import Packet

    prog = Program("call skb_rx_timestamp\nexit")
    hctx = prog.make_context(PKT)
    pkt = Packet(PKT)
    pkt.rx_tstamp_ns = 987654
    hctx.packet = pkt
    assert prog.run(hctx) == 987654
