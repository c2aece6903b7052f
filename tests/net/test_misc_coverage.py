"""Cross-cutting coverage: disassembly of the paper programs, LWT xmit
hook, multiple routing tables, packet traces, netdev stats, a short
packet's continuation lookup."""

import pytest

from repro.ebpf import ArrayMap, PerfEventArrayMap, Program, disassemble, parse_asm
from repro.lab import Network
from repro.net import (
    BpfLwt,
    EndBPF,
    LWT_HELPERS,
    Node,
    Packet,
    make_srh,
    make_udp_packet,
    pton,
    push_outer_encap,
)
from repro.progs import (
    add_tlv_prog,
    dm_encap_prog,
    end_dm_prog,
    end_oamp_prog,
    end_prog,
    tag_increment_prog,
    wrr_prog,
)


# --- disassembler round-trips on every paper program --------------------------


@pytest.mark.parametrize(
    "loader", [end_prog, tag_increment_prog, add_tlv_prog],
    ids=["end", "tag", "add_tlv"],
)
def test_paper_source_disassembles_and_reassembles(loader):
    insns = loader().insns
    again = parse_asm(disassemble(insns)).insns
    assert [i.encode() for i in again] == [i.encode() for i in insns]


def test_loaded_programs_disassemble_with_map_names():
    config = ArrayMap("dm_config", value_size=40, max_entries=1)
    prog = dm_encap_prog(config)
    text = disassemble(prog.insns)
    assert "r1 = dm_config ll" in text  # map reference preserved for readers
    assert "call lwt_push_encap" in text
    assert "call ktime_get_ns" in text


@pytest.mark.parametrize(
    "factory",
    [
        lambda: end_dm_prog(PerfEventArrayMap("dc_ev")),
        lambda: end_oamp_prog(PerfEventArrayMap("dc_ev2")),
        lambda: wrr_prog(
            ArrayMap("dc_c", 40, 1), ArrayMap("dc_s", 16, 1)
        ),
    ],
    ids=["end_dm", "end_oamp", "wrr"],
)
def test_complex_programs_disassemble(factory):
    prog = factory()
    text = disassemble(prog.insns)
    assert text.count("\n") >= prog.num_insns - 2


# --- LWT xmit hook ---------------------------------------------------------------


def test_lwt_xmit_hook_runs_after_out():
    node = Node("R")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00:e::1")
    order = []

    def make_marker(value):
        # Programs that stamp the packet mark so the order is observable.
        return Program(
            f"r2 = {value}\n*(u32 *)(r1 + 8) = r2\nr0 = 0\nexit",
            allowed_helpers=LWT_HELPERS,
        )

    lwt = BpfLwt(prog_out=make_marker(1), prog_xmit=make_marker(2))
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1", encap=lwt)
    node.receive(make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x"), node.devices["eth0"])
    out = node.devices["eth1"].tx_buffer.pop()
    assert out.mark == 2  # xmit ran last
    assert lwt.stats["ok"] == 2


# --- multiple routing tables --------------------------------------------------------


def test_tables_are_isolated():
    node = Node("R")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00:e::1")
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth0", table_id=254)
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1", table_id=100)
    assert node.table(254).lookup(pton("fc00:2::1")).nexthops[0].dev == "eth0"
    assert node.table(100).lookup(pton("fc00:2::1")).nexthops[0].dev == "eth1"
    assert len(node.tables) == 2


def test_table_created_on_demand():
    node = Node("R")
    table = node.table(42)
    assert table.table_id == 42
    assert len(table) == 0


# --- packet traces and device stats ------------------------------------------------------


def test_tracer_records_transit_nodes():
    """The path a packet took is its trace's ``stage:transmit`` spans, one per
    node that sent it on (the packet itself keeps no list of names)."""
    net = Network(seed=3)
    for name in "ABC":
        net.add_node(name, addr=f"fc00:{name.lower()}::1")
    net.add_link("A", "B", rate_bps=1e9, delay_ns=1_000)
    net.add_link("B", "C", rate_bps=1e9, delay_ns=1_000)
    net.config("A", "route add fc00:c::/64 via fc00:b::1 dev eth0")
    net.config("B", "route add fc00:c::/64 via fc00:c::1 dev eth1")
    tracer = net.trace(sample=1)
    flow = net.trafgen("A", dst="fc00:c::1", rate_bps=1e6, payload_size=64)
    net.sink("C")
    flow.start(at_ns=0)
    net.run(until_ns=2_000_000)
    assert tracer.records
    for rec in tracer.records:
        transmits = [(where, dev) for _s, _e, category, where, dev in rec["spans"] if category == "stage:transmit"]
        assert transmits == [("A", "eth0"), ("B", "eth1")]


def test_netdev_stats_count_tx_rx():
    node = Node("N")
    dev = node.add_device("eth0")
    node.add_address("fc00::1")
    pkt = make_udp_packet("fc00::2", "fc00::1", 1, 2, b"abc")
    node.receive(pkt, dev)
    assert dev.stats.rx_packets == 1
    assert dev.stats.rx_bytes == len(pkt)
    node2 = Node("M")
    dev2 = node2.add_device("eth0")
    dev2.transmit(pkt)
    assert dev2.stats.tx_packets == 1
    assert dev2.tx_buffer  # no link attached: buffered for inspection


def test_input_dev_recorded():
    node = Node("N")
    dev = node.add_device("eth7")
    node.add_address("fc00::1")
    seen = []
    node.bind(lambda pkt, n, _offset: seen.append(pkt.input_dev), proto=17, port=9)
    node.receive(make_udp_packet("fc00::2", "fc00::1", 1, 9, b""), dev)
    assert seen == ["eth7"]


_DT6_THEN_OK = """
.hook seg6local
    r6 = r1
    r2 = 254
    *(u32 *)(r10 - 4) = r2
    r1 = r6
    r2 = 7                         ; End.DT6
    r3 = r10
    r3 += -4
    r4 = 4
    call lwt_seg6_action
    r0 = 0                         ; BPF_OK though the packet is decapsulated
    exit
"""


def test_a_program_that_decapsulates_a_short_packet_is_routed_by_what_is_left():
    """A BPF_OK after an End.DT6 decap of a cut inner packet: the continuation
    is looked up by the destination bytes that are left, however few."""
    node = Node("R")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_route("fc00:e::100/128", encap=EndBPF(Program(_DT6_THEN_OK, name="dt6_ok")))
    node.add_route("::/0", via="fc00:2::1", dev="eth1")
    inner = make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x").data
    for cut in (20, 39, 40, len(inner)):
        srh = make_srh(["fc00:e::100", "fc00:e::100"], next_header=41)
        outer = bytearray(push_outer_encap(bytes(inner[:cut]), bytes(16), srh))
        outer[24:40] = pton("fc00:e::100")  # segments_left 1: End.BPF advances onto the SID
        node.receive_batch([Packet(outer)], node.devices["eth0"])
    assert [len(p.data) for p in node.devices["eth1"].tx_buffer] == [20, 39, 40, len(inner)]
    assert {dst for _table, dst in node.flow_table.entries} == {
        pton("fc00:e::100"), b"", pton("fc00:2::")[:15], pton("fc00:2::2")
    }
    assert (node.counters.forwarded, node.counters.tx, node.counters.dropped) == (4, 4, 0)
