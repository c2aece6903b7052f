"""Unit tests for the tiny eBPF linker (repro.ebpf.text.eld)."""

import pytest

import repro.net  # noqa: F401 -- registers the seg6 helpers by name
from repro.ebpf import (
    ArrayMap,
    HashMap,
    LpmTrieMap,
    PerCpuArrayMap,
    PerfEventArrayMap,
    Program,
    VerifierError,
    parse_asm,
)
from repro.ebpf.errors import AsmError, LinkError
from repro.ebpf.text import link
from repro.ebpf.text.easm import MapDecl
from repro.ebpf.text.eld import instantiate_map
from repro.ebpf import isa


# --- map resolution -----------------------------------------------------------


def test_provided_map_shape_mismatch():
    obj = parse_asm(
        ".map hits, array, key=4, value=8, entries=1\n    r1 = hits ll\n    exit"
    )
    wrong = ArrayMap("hits", 16, 1)
    with pytest.raises(LinkError, match="does not match its declaration"):
        link(obj, maps={"hits": wrong})


def test_provided_map_matching_shape_is_shared():
    obj = parse_asm(
        ".map hits, array, key=4, value=8, entries=1\n    r1 = hits ll\n    exit"
    )
    mine = ArrayMap("hits", 8, 1)
    linked = link(obj, maps={"hits": mine})
    assert linked.maps["hits"] is mine


@pytest.mark.parametrize(
    ("decl", "provided"),
    [
        ("array, key=4, value=8, entries=1", PerCpuArrayMap("hits", 8, 1)),
        ("hash, key=4, value=8, entries=1", HashMap("hits", 8, 8, 1)),
        ("array, key=4, value=8, entries=1", ArrayMap("hits", 8, 2)),
    ],
    ids=["map_type", "key_size", "max_entries"],
)
def test_every_declared_shape_field_is_checked(decl, provided):
    obj = parse_asm(f".map hits, {decl}\n    r1 = hits ll\n    exit")
    with pytest.raises(LinkError, match="does not match its declaration"):
        link(obj, maps={"hits": provided})


def test_perf_event_array_value_size_is_not_compared():
    # A perf ring has no value slots: its declared value= is not a shape.
    obj = parse_asm(
        ".map events, perf_event_array, value=16, entries=2\n    r1 = events ll\n    exit"
    )
    mine = PerfEventArrayMap("events", max_entries=2)
    assert link(obj, maps={"events": mine}).maps["events"] is mine


def test_provided_map_serves_an_undeclared_reference():
    mine = HashMap("flows", 8, 8, 4)
    linked = link(parse_asm("    r1 = flows ll\n    exit"), maps={"flows": mine})
    assert linked.maps == {"flows": mine}


def test_undeclared_map_ref_fails():
    obj = parse_asm("    r1 = mystery ll\n    exit")
    with pytest.raises(LinkError, match="undefined map symbol 'mystery'"):
        link(obj)


def test_link_leaves_the_object_unmodified():
    obj = parse_asm(".map m, array\n    r1 = m ll\n    r0 = 0\n    exit")
    insns, maps = list(obj.insns), dict(obj.maps)
    linked = link(obj)
    linked.insns.append(linked.insns[-1])
    assert obj.insns == insns and obj.maps == maps


# --- map instantiation --------------------------------------------------------


@pytest.mark.parametrize(
    ("map_type", "cls"),
    [
        ("array", ArrayMap),
        ("percpu_array", PerCpuArrayMap),
        ("hash", HashMap),
        ("lpm_trie", LpmTrieMap),
        ("perf_event_array", PerfEventArrayMap),
    ],
)
def test_instantiate_map_types(map_type, cls):
    key = 8 if map_type in ("hash", "lpm_trie") else 4
    decl = MapDecl("m", map_type, key_size=key, value_size=8, max_entries=2)
    map_obj = instantiate_map(decl)
    assert type(map_obj) is cls
    assert map_obj.max_entries == 2
    if map_type != "perf_event_array":
        assert map_obj.key_size == key
        assert map_obj.value_size == 8


# --- hook-derived helper whitelists -------------------------------------------


_PUSH_ENCAP_SRC = """
.hook {hook}
    r2 = 0
    r3 = r10
    r3 += -8
    *(u64 *)(r10 - 8) = r2
    r4 = 8
    r1 = r6
    call lwt_push_encap
    r0 = 0
    exit
"""


def test_hook_seg6local_rejects_lwt_only_helper():
    # lwt_push_encap (73) exists on lwt-in hooks but not on seg6local.
    with pytest.raises(VerifierError, match="not available on this hook"):
        Program("    r6 = r1\n" + _PUSH_ENCAP_SRC.format(hook="seg6local"))


def test_hook_lwt_admits_the_same_helper():
    prog = Program("    r6 = r1\n" + _PUSH_ENCAP_SRC.format(hook="lwt"))
    assert prog is not None


def test_hook_none_means_unrestricted():
    linked = link(parse_asm(".hook none\n    r0 = 0\n    exit"))
    assert linked.hook == "none"
    linked.load(name="open")  # no whitelist applied


# --- a text program end-to-end -------------------------------------------------


def test_text_program_counts_into_shared_map():
    hits = ArrayMap("hits", 8, 1)
    prog = Program(
        """
.map hits, array, key=4, value=8, entries=1
    r6 = r1
    r1 = hits ll
    *(u32 *)(r10 - 4) = 0
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r1 = *(u64 *)(r0 + 0)
    r1 += 1
    *(u64 *)(r0 + 0) = r1
out:
    r0 = 0
    exit
""",
        maps={"hits": hits},
        name="counter",
    )
    for _ in range(3):
        prog.run_on_packet(b"\x60" + b"\x00" * 39)
    count = int.from_bytes(hits.lookup((0).to_bytes(4, "little")), "little")
    assert count == 3


def test_text_program_reports_the_failing_line():
    with pytest.raises(AsmError, match="line 2: undefined label 'nowhere'") as excinfo:
        Program("    r0 = 0\n    goto nowhere\n    exit")
    assert excinfo.value.line_no == 2


def test_linked_insns_keep_symbolic_map_refs():
    linked = link(
        parse_asm(".map m, array\n    r1 = m ll\n    r0 = 0\n    exit")
    )
    lddw = linked.insns[0]
    assert lddw.map_ref == "m"
    assert lddw.imm64 == 0
    assert lddw.src_reg == isa.BPF_PSEUDO_MAP_FD
