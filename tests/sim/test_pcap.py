"""pcap capture of simulated traffic."""

import struct

import pytest

from repro.net import Node, make_srv6_udp_packet, make_udp_packet
from repro.sim.pcap import LINKTYPE_RAW, PCAP_MAGIC, PcapWriter, read_pcap, tap_device


def test_file_header(tmp_path):
    path = tmp_path / "t.pcap"
    with PcapWriter(path):
        pass
    raw = path.read_bytes()
    magic, major, minor, _tz, _sig, snaplen, linktype = struct.unpack_from("<IHHiIII", raw)
    assert magic == PCAP_MAGIC
    assert (major, minor) == (2, 4)
    assert linktype == LINKTYPE_RAW


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "t.pcap"
    pkt = make_udp_packet("fc00::1", "fc00::2", 1, 2, b"payload")
    with PcapWriter(path) as writer:
        writer.write_packet(pkt, timestamp_ns=1_500_000_000)
        writer.write(b"\x60" + b"\x00" * 39, timestamp_ns=2_000_001_000)
    records = read_pcap(path)
    assert len(records) == 2
    assert records[0][1] == bytes(pkt.data)
    assert records[0][0] == 1_500_000_000
    assert records[1][0] == 2_000_001_000


def test_snaplen_truncates(tmp_path):
    path = tmp_path / "t.pcap"
    with PcapWriter(path, snaplen=16) as writer:
        writer.write(bytes(100))
    (ts, data), = read_pcap(path)
    assert len(data) == 16


def test_tap_tx_captures_forwarded_traffic(tmp_path):
    node = Node("R", clock_ns=lambda: 7_000)
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00:e::1")
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1")
    path = tmp_path / "tx.pcap"
    with PcapWriter(path) as writer:
        tap_device(node.devices["eth1"], writer, direction="tx")
        for i in range(3):
            node.receive(
                make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x"),
                node.devices["eth0"],
            )
        assert writer.packets_written == 3
    records = read_pcap(path)
    assert all(data[0] >> 4 == 6 for _ts, data in records)  # IPv6 version


def test_captured_srv6_packet_parses_back(tmp_path):
    from repro.net import SRH

    node = Node("R")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00:e::1")
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1")
    from repro.net import End

    node.add_route("fc00:e::100/128", encap=End())
    path = tmp_path / "srv6.pcap"
    with PcapWriter(path) as writer:
        tap_device(node.devices["eth1"], writer)
        node.receive(
            make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, b"y"),
            node.devices["eth0"],
        )
    (_ts, data), = read_pcap(path)
    srh = SRH.parse(data, 40)
    assert srh.segments_left == 0  # captured after the End action


def test_tap_direction_validation(tmp_path):
    node = Node("R")
    dev = node.add_device("eth0")
    with PcapWriter(tmp_path / "x.pcap") as writer:
        with pytest.raises(ValueError):
            tap_device(dev, writer, direction="sideways")


def test_read_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(b"not a pcap at all, sorry")
    with pytest.raises(ValueError):
        read_pcap(path)


# --- net.pcap() -------------------------------------------------------------------


def _two_node_net(seed=3):
    from repro.lab import Network

    net = Network(seed=seed)
    net.add_node("A", addr="fc00:a::1")
    net.add_node("B", addr="fc00:b::1")
    net.add_link("A", "B", rate_bps=1e9, delay_ns=100_000)
    net.config("A", "route add fc00:b::/64 via fc00:b::1 dev eth0")
    return net


def test_net_pcap_stamps_scheduler_clock(tmp_path):
    from repro.sim.scheduler import NS_PER_MS

    net = _two_node_net()
    path = tmp_path / "b-rx.pcap"
    capture = net.pcap("B", direction="rx", path=path)
    flow = net.trafgen("A", dst="fc00:b::1", rate_bps=10e6, payload_size=300)
    net.sink("B")
    flow.start(at_ns=0)
    net.run(until_ns=5 * NS_PER_MS)
    capture.close()
    records = read_pcap(path)
    assert capture.packets_written == len(records) > 5
    # Timestamps are the simulation clock at capture, not the default 0.
    assert all(ts > 0 for ts, _data in records)
    assert [ts for ts, _ in records] == sorted(ts for ts, _ in records)


def test_net_pcap_indexes_active_trace_ids(tmp_path):
    from repro.sim.scheduler import NS_PER_MS

    net = _two_node_net()
    net.trace(sample=1)
    capture = net.pcap("B", direction="rx", path=tmp_path / "b.pcap")
    flow = net.trafgen("A", dst="fc00:b::1", rate_bps=10e6, payload_size=300)
    net.sink("B")
    flow.start(at_ns=0)
    net.run(until_ns=5 * NS_PER_MS)
    capture.close()
    assert len(capture.trace_ids) == capture.packets_written
    for ts, trace_id in capture.trace_ids:
        assert ts > 0
        assert trace_id.startswith(f"{flow.flow_id}:")
    assert net._pcaps == [capture]


def test_rx_tap_captures_only_its_own_device(tmp_path):
    """A router with a link on each side: the rx tap on eth0 records what
    arrived on eth0, in arrival order, and nothing that arrived on eth1."""
    from repro.lab import Network
    from repro.sim.scheduler import NS_PER_MS

    net = Network(seed=5)
    for name, addr in (("A", "fc00:a::1"), ("R", "fc00:e::1"), ("B", "fc00:b::1")):
        net.add_node(name, addr=addr)
    net.add_link("A", "R")
    net.add_link("R", "B")
    net.config("A", "route add fc00:b::/64 via fc00:e::1 dev eth0")
    net.config("B", "route add fc00:a::/64 via fc00:e::1 dev eth0")
    net.config("R", "route add fc00:b::/64 via fc00:b::1 dev eth1")
    net.config("R", "route add fc00:a::/64 via fc00:a::1 dev eth0")
    capture = net.pcap("R", dev="eth0", direction="rx", path=tmp_path / "r-eth0.pcap")
    arrived = []
    net["B"].bind(lambda pkt, node: arrived.append(bytes(pkt.data)), proto=17, port=5201)
    net.sink("A")
    forward = net.trafgen("A", dst="fc00:b::1", rate_bps=10e6, payload_size=120, seed=1)
    reverse = net.trafgen("B", dst="fc00:a::1", rate_bps=10e6, payload_size=80, seed=2)
    forward.start(at_ns=0)
    reverse.start(at_ns=0)
    net.run(until_ns=2 * NS_PER_MS)
    # A packet handed to R on eth0 without a link is an arrival on eth0
    # too: the tap and the device's rx counters see the same packets.
    injected = make_udp_packet("fc00:a::1", "fc00:b::1", 1, 5201, b"direct")
    net["R"].receive(injected, net["R"].devices["eth0"])
    net.run(until_ns=3 * NS_PER_MS)
    capture.close()
    records = read_pcap(tmp_path / "r-eth0.pcap")
    assert len(records) == net["R"].devices["eth0"].stats.rx_packets > 5
    # Hop limits differ (R decrements before B); compare from byte 8 on.
    assert [data[8:] for _ts, data in records] == [data[8:] for data in arrived[: len(records)]]
    assert injected.data[8:] in [data[8:] for _ts, data in records]


def test_net_pcap_device_resolution(tmp_path):
    net = _two_node_net()
    net.add_link("A", "B")  # second device on each end
    with pytest.raises(ValueError, match="pass dev="):
        net.pcap("A", path=tmp_path / "x.pcap")
    with pytest.raises(KeyError):
        net.pcap("A", dev="nope", path=tmp_path / "x.pcap")
    capture = net.pcap("A", dev="eth1", path=tmp_path / "a.pcap")
    capture.close()
