"""Cross-cutting coverage: disassembly of the paper programs, LWT xmit
hook, multiple routing tables, packet traces, netdev stats."""

import pytest

from repro.ebpf import ArrayMap, PerfEventArrayMap, Program, disassemble, parse_asm
from repro.net import (
    BpfLwt,
    LWT_HELPERS,
    Node,
    make_udp_packet,
    pton,
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
    (again,) = parse_asm(disassemble(insns)).sections.values()
    assert [i.encode() for i in again.items] == [i.encode() for i in insns]


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


def test_packet_trace_records_transit_nodes():
    a = Node("A")
    a.add_device("eth0")
    a.add_device("eth1")
    a.add_address("fc00::a")
    a.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1")
    pkt = make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x")
    a.receive(pkt, a.devices["eth0"])
    forwarded = a.devices["eth1"].tx_buffer.pop()
    assert forwarded.trace == ["A"]


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
    node.bind(lambda pkt, n: seen.append(pkt.input_dev), proto=17, port=9)
    node.receive(make_udp_packet("fc00::2", "fc00::1", 1, 9, b""), dev)
    assert seen == ["eth7"]
