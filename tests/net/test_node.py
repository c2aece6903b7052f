"""Node datapath: forwarding, ICMP generation, local delivery, LWT wiring."""

import pytest

from repro.ebpf import Program
from repro.net import (
    BpfLwt,
    End,
    EndBPF,
    EndDT6,
    EndT,
    ICMPV6_ECHO_REQUEST,
    Icmpv6Message,
    LWT_HELPERS,
    Nexthop,
    Node,
    SEG6LOCAL_HELPERS,
    Seg6Encap,
    make_icmpv6_packet,
    make_srv6_udp_packet,
    make_udp_packet,
    pton,
)


@pytest.fixture
def router():
    node = Node("R")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00:e::1")
    node.add_route("fc00:1::/64", via="fc00:1::1", dev="eth0")
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1")
    return node


def test_plain_forwarding(router):
    pkt = make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x", hop_limit=10)
    router.receive(pkt, router.devices["eth0"])
    out = router.devices["eth1"].tx_buffer
    assert len(out) == 1
    assert out[0].hop_limit == 9
    assert router.counters.forwarded == 1


def test_no_route_drops(router):
    pkt = make_udp_packet("fc00:1::1", "fd00::1", 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert router.counters.no_route == 1
    assert not router.devices["eth1"].tx_buffer


def test_hop_limit_expiry_generates_time_exceeded(router):
    pkt = make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x", hop_limit=1)
    router.receive(pkt, router.devices["eth0"])
    assert router.counters.hop_limit_exceeded == 1
    assert not router.devices["eth1"].tx_buffer
    # The ICMPv6 error went back toward the source.
    back = router.devices["eth0"].tx_buffer
    assert len(back) == 1
    assert back[0].l4()[0] == 58
    info = back[0]._l4_offset()
    message = Icmpv6Message.parse(bytes(back[0].data), info[1])
    assert message.msg_type == 3


def test_local_delivery_to_bound_listener(router):
    seen = []
    router.bind(lambda pkt, node, _offset: seen.append(pkt), proto=17, port=7777)
    pkt = make_udp_packet("fc00:1::1", "fc00:e::1", 1, 7777, b"hi")
    router.receive(pkt, router.devices["eth0"])
    assert len(seen) == 1
    assert router.counters.delivered_local == 1


def test_local_udp_without_listener_sends_port_unreachable(router):
    pkt = make_udp_packet("fc00:1::1", "fc00:e::1", 1, 9999, b"hi")
    router.receive(pkt, router.devices["eth0"])
    back = router.devices["eth0"].tx_buffer
    assert len(back) == 1
    info = back[0]._l4_offset()
    message = Icmpv6Message.parse(bytes(back[0].data), info[1])
    assert (message.msg_type, message.code) == (1, 4)


def test_wildcard_port_listener(router):
    seen = []
    router.bind(lambda pkt, node, _offset: seen.append(pkt), proto=17, port=None)
    router.receive(
        make_udp_packet("fc00:1::1", "fc00:e::1", 1, 1234, b""), router.devices["eth0"]
    )
    router.receive(
        make_udp_packet("fc00:1::1", "fc00:e::1", 1, 5678, b""), router.devices["eth0"]
    )
    assert len(seen) == 2


def test_echo_request_answered(router):
    request = Icmpv6Message(ICMPV6_ECHO_REQUEST, body=b"\x00\x01\x00\x01abc")
    ping = make_icmpv6_packet("fc00:1::1", "fc00:e::1", request)
    router.receive(ping, router.devices["eth0"])
    back = router.devices["eth0"].tx_buffer
    assert len(back) == 1
    info = back[0]._l4_offset()
    message = Icmpv6Message.parse(bytes(back[0].data), info[1])
    assert message.msg_type == 129
    assert message.body[4:] == b"abc"


def test_send_does_not_decrement_hop_limit(router):
    pkt = make_udp_packet("fc00:e::1", "fc00:2::2", 1, 2, b"x", hop_limit=64)
    router.send(pkt)
    assert router.devices["eth1"].tx_buffer[0].hop_limit == 64


def test_seg6_encap_route_recirculates(router):
    router.add_route(
        "fc00:9::/64", encap=Seg6Encap(segments=[pton("fc00:2::e1")], mode="encap")
    )
    router.add_route("fc00:2::e1/128", via="fc00:2::1", dev="eth1")
    pkt = make_udp_packet("fc00:1::1", "fc00:9::9", 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    out = router.devices["eth1"].tx_buffer
    assert len(out) == 1
    assert out[0].dst == pton("fc00:2::e1")
    srh, _ = out[0].srh()
    assert srh is not None


def test_seg6local_end_route(router):
    router.add_route("fc00:e::100/128", encap=End())
    pkt = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    out = router.devices["eth1"].tx_buffer
    assert out[0].dst == pton("fc00:2::2")
    assert router.counters.seg6local_processed == 1


def test_end_then_dt6_chain():
    """Two seg6local hops on different nodes: End then End.DT6."""
    n1 = Node("N1")
    n1.add_device("in")
    n1.add_device("out")
    n1.add_address("fc00:a::1")
    n1.add_route("fc00:a::100/128", encap=End())
    n1.add_route("fc00:b::/64", via="fc00:b::1", dev="out")

    n2 = Node("N2")
    n2.add_device("in")
    n2.add_device("out")
    n2.add_address("fc00:b::1")
    n2.add_route("fc00:b::100/128", encap=EndDT6(table_id=254))
    n2.add_route("fc00:2::/64", via="fc00:2::1", dev="out")

    inner = make_udp_packet("fc00:1::1", "fc00:2::2", 5, 6, b"payload")
    from repro.net import make_srh, push_outer_encap

    srh = make_srh(["fc00:a::100", "fc00:b::100"], next_header=41)
    pkt_bytes = push_outer_encap(bytes(inner.data), pton("fc00:1::1"), srh)
    from repro.net import Packet

    n1.receive(Packet(pkt_bytes), n1.devices["in"])
    mid = n1.devices["out"].tx_buffer.pop()
    assert mid.dst == pton("fc00:b::100")
    n2.receive(mid, n2.devices["in"])
    final = n2.devices["out"].tx_buffer.pop()
    assert final.srh() is None
    assert final.udp_payload() == b"payload"


def test_bpf_drop_counted(router):
    prog = Program("r0 = 2\nexit", allowed_helpers=SEG6LOCAL_HELPERS)
    router.add_route("fc00:e::100/128", encap=EndBPF(prog))
    pkt = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert router.counters.dropped == 1
    assert router.counters.bpf_dropped == 1
    assert not router.devices["eth1"].tx_buffer


def test_unknown_bpf_return_drops(router):
    prog = Program("r0 = 99\nexit", allowed_helpers=SEG6LOCAL_HELPERS)
    action = EndBPF(prog)
    router.add_route("fc00:e::100/128", encap=action)
    pkt = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert router.counters.dropped == 1
    assert action.stats["drop"] == 1
    # A malformed verdict is a datapath policy drop, not the program's own
    # BPF_DROP: the Disposition carries bpf=False, so bpf_dropped ignores it.
    assert router.counters.bpf_dropped == 0


def test_endbpf_srh_validation_drop_is_not_bpf_dropped(router):
    """Pre-program SRH validation failures never count as BPF drops."""
    prog = Program("r0 = 0\nexit", allowed_helpers=SEG6LOCAL_HELPERS)
    router.add_route("fc00:e::100/128", encap=EndBPF(prog))
    pkt = make_udp_packet("fc00:1::1", "fc00:e::100", 1, 2, b"x")  # no SRH
    router.receive(pkt, router.devices["eth0"])
    assert router.counters.dropped == 1
    assert router.counters.bpf_dropped == 0


def test_bpf_lwt_drop_counted_as_bpf_dropped(router):
    """BPF_DROP from an lwt hook sets Disposition.bpf, counted per verdict."""
    prog = Program("r0 = 2\nexit", allowed_helpers=LWT_HELPERS)
    router.add_route(
        "fc00:3::/64", via="fc00:2::1", dev="eth1", encap=BpfLwt(prog_in=prog)
    )
    pkt = make_udp_packet("fc00:1::1", "fc00:3::3", 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert router.counters.dropped == 1
    assert router.counters.bpf_dropped == 1


def test_receive_accounts_ingress_device_stats(router):
    """Node.receive wires ``dev`` through to the ip -s link rx counters."""
    eth0 = router.devices["eth0"]
    pkt = make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x")
    size = len(pkt)
    router.receive(pkt, eth0)
    assert eth0.stats.rx_packets == 1
    assert eth0.stats.rx_bytes == size
    assert pkt.input_dev == "eth0"
    batch = [make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x") for _ in range(4)]
    router.receive_batch(batch, eth0)
    assert eth0.stats.rx_packets == 5
    assert eth0.stats.rx_bytes == 5 * size


def test_bpf_lwt_in_can_drop(router):
    prog = Program("r0 = 2\nexit", allowed_helpers=LWT_HELPERS)
    router.add_route("fc00:3::/64", via="fc00:2::1", dev="eth1", encap=BpfLwt(prog_in=prog))
    pkt = make_udp_packet("fc00:1::1", "fc00:3::3", 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert not router.devices["eth1"].tx_buffer


def test_bpf_lwt_out_pass_through(router):
    prog = Program("r0 = 0\nexit", allowed_helpers=LWT_HELPERS)
    lwt = BpfLwt(prog_out=prog)
    router.add_route("fc00:3::/64", via="fc00:2::1", dev="eth1", encap=lwt)
    pkt = make_udp_packet("fc00:1::1", "fc00:3::3", 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert len(router.devices["eth1"].tx_buffer) == 1
    assert lwt.stats["ok"] == 1


def test_ecmp_route_spreads_flows(router):
    router.add_route(
        "fc00:5::/64",
        nexthops=[Nexthop(via="fc00:1::1", dev="eth0"), Nexthop(via="fc00:2::1", dev="eth1")],
    )
    for port in range(60):
        pkt = make_udp_packet("fc00:1::1", "fc00:5::5", 1000 + port, 2, b"")
        router.receive(pkt, router.devices["eth0"])
    a = len(router.devices["eth0"].tx_buffer)
    b = len(router.devices["eth1"].tx_buffer)
    assert a + b == 60
    assert a > 10 and b > 10


def test_recirculation_budget_stops_loops(router):
    # A seg6 encap whose result matches the same route again: endless
    # re-encapsulation must be stopped by the budget.
    router.add_route(
        "fc00:7::/64", encap=Seg6Encap(segments=[pton("fc00:7::1")], mode="encap")
    )
    pkt = make_udp_packet("fc00:1::1", "fc00:7::7", 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert router.counters.dropped == 1
    assert any("re-circulation" in msg for msg in router.log_messages)


def test_rx_timestamp_set_on_receive():
    node = Node("N", clock_ns=lambda: 555)
    node.add_device("eth0")
    node.add_address("fc00::1")
    seen = []
    node.bind(lambda pkt, n, _offset: seen.append(pkt.rx_tstamp_ns), proto=17, port=1)
    node.receive(make_udp_packet("fc00::2", "fc00::1", 9, 1, b""), node.devices["eth0"])
    assert seen == [555]


def test_duplicate_device_rejected(router):
    with pytest.raises(ValueError):
        router.add_device("eth0")


def test_runt_packet_dropped(router):
    from repro.net import Packet

    router.receive(Packet(b"\x60\x00\x00"), router.devices["eth0"])
    assert router.counters.dropped == 1


# -- the stage walk: order, gates and routing state across re-circulation ----
#
# Behaviours of the pipeline that every other test leaves free: a walk
# that runs lwt-in on the wrong side, decrements twice, or carries a
# redirect's table into the next lookup forwards all of the above.

_DROP = "r0 = 2\nexit"


def _push_encap_prog(segment: str) -> Program:
    """An LWT program pushing an outer header + one-segment SRH to ``segment``."""
    seg = pton(segment)
    lo, hi = (int.from_bytes(seg[i : i + 8], "little") for i in (0, 8))
    return Program(
        f"""
        r6 = r1
        *(u8 *)(r10 - 24) = 41      ; next header: IPv6
        *(u8 *)(r10 - 23) = 2       ; hdr_ext_len: one segment
        *(u8 *)(r10 - 22) = 4       ; routing type: SRH
        *(u8 *)(r10 - 21) = 0       ; segments_left
        *(u32 *)(r10 - 20) = 0      ; last_entry, flags, tag
        r3 = {lo:#x} ll
        *(u64 *)(r10 - 16) = r3
        r3 = {hi:#x} ll
        *(u64 *)(r10 - 8) = r3
        r1 = r6
        r2 = 0                      ; BPF_LWT_ENCAP_SEG6 (outer)
        r3 = r10
        r3 += -24
        r4 = 24
        call lwt_push_encap
        r0 = 0
        exit
        """,
        allowed_helpers=LWT_HELPERS,
    )


def _inner_hop_limit(pkt) -> int:
    srh, offset = pkt.srh()
    return pkt.data[offset + srh.wire_len + 7]


def test_send_skips_lwt_in(router):
    """A locally originated packet does not run the route's ``lwt_in`` program."""
    prog = Program(_DROP, allowed_helpers=LWT_HELPERS)
    router.add_route("fc00:3::/64", via="fc00:2::1", dev="eth1", encap=BpfLwt(prog_in=prog))
    router.send(make_udp_packet("fc00:e::1", "fc00:3::3", 1, 2, b"x"))
    assert len(router.devices["eth1"].tx_buffer) == 1
    assert router.counters.dropped == 0
    assert router.counters.bpf_dropped == 0


def test_lwt_in_is_skipped_after_the_decrement(router):
    """lwt-in is input-side only: a packet re-circulated by a transit
    encap lands on a ``prog_in`` route already decremented, and passes."""
    prog = Program(_DROP, allowed_helpers=LWT_HELPERS)
    router.add_route(
        "fc00:9::/64", encap=Seg6Encap(segments=[pton("fc00:3::e1")], mode="encap")
    )
    router.add_route("fc00:3::/64", via="fc00:2::1", dev="eth1", encap=BpfLwt(prog_in=prog))
    pkt = make_udp_packet("fc00:1::1", "fc00:9::9", 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    out = router.devices["eth1"].tx_buffer
    assert len(out) == 1 and out[0].dst == pton("fc00:3::e1")
    assert router.counters.dropped == 0
    assert router.counters.bpf_dropped == 0


def test_lwt_in_rewrite_without_redirect_leaves_by_the_new_route(router):
    """``prog_in`` returns BPF_OK after changing the destination: the
    packet re-enters the routing decision, it does not leave by the
    nexthop of the route that carried the program."""
    lwt = BpfLwt(prog_in=_push_encap_prog("fc00:2::e1"))
    router.add_route("fc00:3::/64", via="fc00:1::1", dev="eth0", encap=lwt)
    pkt = make_udp_packet("fc00:1::1", "fc00:3::3", 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert lwt.stats["ok"] == 1
    assert not router.devices["eth0"].tx_buffer
    out = router.devices["eth1"].tx_buffer
    assert len(out) == 1 and out[0].dst == pton("fc00:2::e1")


@pytest.mark.parametrize("kind", ["seg6_encap", "lwt_out_push_encap"])
def test_hop_limit_decremented_once_across_recirculation(router, kind):
    if kind == "seg6_encap":
        encap = Seg6Encap(segments=[pton("fc00:2::e1")], mode="encap")
        router.add_route("fc00:9::/64", encap=encap)
    else:
        encap = BpfLwt(prog_out=_push_encap_prog("fc00:2::e1"))
        router.add_route("fc00:9::/64", via="fc00:1::1", dev="eth0", encap=encap)
    pkt = make_udp_packet("fc00:1::1", "fc00:9::9", 1, 2, b"x", hop_limit=64)
    router.receive(pkt, router.devices["eth0"])
    out = router.devices["eth1"].tx_buffer
    assert len(out) == 1 and out[0].dst == pton("fc00:2::e1")
    assert router.counters.forwarded == 1
    assert _inner_hop_limit(out[0]) == 63
    assert out[0].hop_limit == 64  # as the encap built it


def test_redirect_table_does_not_outlive_the_encap(router):
    """End.T redirects into table 100, whose route pushes an SRH: the
    pushed outer destination is looked up in the main table, not in 100."""
    router.add_route("fc00:e::100/128", encap=EndT(table_id=100))
    router.add_route(
        "fc00:9::/64",
        encap=Seg6Encap(segments=[pton("fc00:2::e1")], mode="encap"),
        table_id=100,
    )
    router.add_route("fc00:2::/64", via="fc00:1::1", dev="eth0", table_id=100)  # decoy
    pkt = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:9::9"], 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert not router.devices["eth0"].tx_buffer
    out = router.devices["eth1"].tx_buffer
    assert len(out) == 1 and out[0].dst == pton("fc00:2::e1")
