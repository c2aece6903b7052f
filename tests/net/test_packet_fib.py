"""Packet metadata/parsing and the FIB."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    EndBPF,
    FibTable,
    Nexthop,
    Node,
    Packet,
    Route,
    make_srv6_udp_packet,
    make_tcp_packet,
    make_udp_packet,
    parse_prefix,
    pton,
)
from repro.net.tcp import TcpHeader
from repro.progs import end_prog
from repro.shard.wire import pack_batch, unpack_batch


# --- packet ---------------------------------------------------------------------


def test_udp_packet_fields():
    pkt = make_udp_packet("fc00::1", "fc00::2", 1111, 2222, b"hello")
    assert pkt.src == pton("fc00::1")
    assert pkt.dst == pton("fc00::2")
    assert pkt.next_header == 17
    assert pkt.l4() == (17, 1111, 2222)
    assert pkt.udp_payload() == b"hello"


def test_srv6_packet_l4_walks_routing_header():
    pkt = make_srv6_udp_packet("fc00::1", ["fc00::a", "fc00::b"], 1111, 2222, b"x")
    assert pkt.next_header == 43
    assert pkt.l4() == (17, 1111, 2222)
    assert pkt.dst == pton("fc00::a")


def test_l4_walks_encapsulation():
    from repro.net import make_srh, push_outer_encap

    inner = make_udp_packet("fc00::1", "fc00::2", 5, 6, b"p")
    srh = make_srh(["fc00::e"], next_header=41)
    outer = push_outer_encap(bytes(inner.data), pton("fc00::9"), srh)
    pkt = Packet(outer)
    assert pkt.l4() == (17, 5, 6)
    assert pkt.udp_payload() == b"p"


def test_tcp_packet_l4():
    pkt = make_tcp_packet("fc00::1", "fc00::2", TcpHeader(80, 443, 0, 0))
    assert pkt.l4() == (6, 80, 443)


def _ipv6(next_header: int) -> bytes:
    return bytes(6) + bytes([next_header, 64]) + bytes(32)


def _rh(next_header: int, ext_len: int = 0) -> bytes:
    return bytes([next_header, ext_len]) + bytes(6 + 8 * ext_len)


PORTS = bytes([0x12, 0x34, 0x56, 0x78])

L4_CHAINS = {
    "udp": (_ipv6(17) + PORTS, (17, 0x1234, 0x5678)),
    "two_routing_headers_then_tcp": (_ipv6(43) + _rh(43, 2) + _rh(6) + PORTS, (6, 0x1234, 0x5678)),
    "ipv6_in_ipv6_then_routing_then_udp": (_ipv6(41) + _ipv6(43) + _rh(17) + PORTS, (17, 0x1234, 0x5678)),
    "seven_routing_headers_then_udp": (_ipv6(43) + _rh(43) * 6 + _rh(17) + PORTS, (17, 0x1234, 0x5678)),
    "eight_routing_headers_exhaust_the_walk": (_ipv6(43) + _rh(43) * 7 + _rh(17) + PORTS, None),
    "icmp_without_a_body": (_ipv6(43) + _rh(58), (58, 0, 0)),
    "udp_ports_truncated": (_ipv6(43) + _rh(17) + PORTS[:3], None),
    "tcp_ports_missing": (_ipv6(6), None),
    "routing_header_truncated": (_ipv6(43) + b"\x11", None),
    "routing_header_overruns_the_packet": (_ipv6(43) + _rh(17, 4)[:8] + PORTS, None),
    "inner_ipv6_truncated": (_ipv6(41) + _ipv6(17)[:39], None),
    "no_next_header": (_ipv6(43) + _rh(59) + PORTS, None),
    "hop_by_hop_is_not_walked": (_ipv6(0) + _rh(17) + PORTS, None),
}


@pytest.mark.parametrize("chain", sorted(L4_CHAINS))
def test_l4_verdicts_on_header_chains(chain):
    """l4(): the innermost transport header through routing headers and
    IPv6-in-IPv6, None for truncated ports, unknown protocols and walks
    longer than eight headers; ICMPv6 carries no ports."""
    raw, expected = L4_CHAINS[chain]
    assert Packet(raw).l4() == expected


def test_hop_limit_ops():
    pkt = make_udp_packet("fc00::1", "fc00::2", 1, 2, b"", hop_limit=2)
    assert pkt.decrement_hop_limit() == 1
    assert pkt.decrement_hop_limit() == 0
    assert pkt.decrement_hop_limit() == 0  # saturates


def test_set_dst_rewrites_wire_bytes():
    pkt = make_udp_packet("fc00::1", "fc00::2", 1, 2, b"")
    pkt.set_dst(pton("fc00::42"))
    assert pkt.ipv6().dst == pton("fc00::42")


def test_flow_hash_stable_and_flow_sensitive():
    p1 = make_udp_packet("fc00::1", "fc00::2", 1111, 2222, b"a")
    p2 = make_udp_packet("fc00::1", "fc00::2", 1111, 2222, b"bb")
    p3 = make_udp_packet("fc00::1", "fc00::2", 1112, 2222, b"a")
    assert p1.flow_hash() == p2.flow_hash()  # same 5-tuple
    assert p1.flow_hash() != p3.flow_hash()  # different source port


def test_packet_copy_is_independent():
    p1 = make_udp_packet("fc00::1", "fc00::2", 1, 2, b"")
    p2 = p1.copy()
    p2.set_dst(pton("fc00::3"))
    assert p1.dst == pton("fc00::2")


def test_srh_accessor():
    pkt = make_srv6_udp_packet("fc00::1", ["fc00::a", "fc00::b"], 1, 2, b"", tag=5)
    srh, offset = pkt.srh()
    assert offset == 40
    assert srh.tag == 5
    plain = make_udp_packet("fc00::1", "fc00::2", 1, 2, b"")
    assert plain.srh() is None


def test_unknown_packet_fields_rejected():
    with pytest.raises(TypeError):
        Packet(b"\x60" + b"\x00" * 39, bogus=1)


# skb->mark is a u32: a mark outside it is refused where the packet is made,
# not truncated by an End.BPF ctx round trip or a struct.error at a shard cut.

_SRV6 = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, b"").data


def _through_end_bpf(pkt: Packet) -> int:
    EndBPF(end_prog()).process(pkt, Node("R"))
    return pkt.mark


def _through_the_wire(pkt: Packet) -> int:
    (back,) = unpack_batch(pack_batch([pkt]))
    return back.mark


MARK_DOORS = {
    "constructor": lambda pkt: pkt.mark,
    "end_bpf": _through_end_bpf,
    "pack_batch": _through_the_wire,
}


@pytest.mark.parametrize("door", MARK_DOORS)
def test_mark_is_a_u32_at_every_door(door):
    through = MARK_DOORS[door]
    for mark in (0, 5, 2**32 - 1):
        assert through(Packet(_SRV6, mark=mark)) == mark
    for mark in (-1, 2**32, 2**32 + 5):
        with pytest.raises(ValueError, match="mark"):
            through(Packet(_SRV6, mark=mark))


# --- FIB --------------------------------------------------------------------------


def route(prefix: str, **kwargs) -> Route:
    network, prefixlen = parse_prefix(prefix)
    return Route(prefix=network, prefixlen=prefixlen, **kwargs)


def test_longest_prefix_match():
    table = FibTable()
    table.add(route("fc00::/16", nexthops=[Nexthop(dev="a")]))
    table.add(route("fc00:1::/64", nexthops=[Nexthop(dev="b")]))
    assert table.lookup(pton("fc00:1::9")).nexthops[0].dev == "b"
    assert table.lookup(pton("fc00:2::9")).nexthops[0].dev == "a"


def test_default_route():
    table = FibTable()
    table.add(route("::/0", nexthops=[Nexthop(dev="x")]))
    assert table.lookup(pton("2001:db8::1")).nexthops[0].dev == "x"


def test_no_route_returns_none():
    table = FibTable()
    table.add(route("fc00::/64", nexthops=[Nexthop(dev="a")]))
    assert table.lookup(pton("fd00::1")) is None


def test_host_route_beats_prefix():
    table = FibTable()
    table.add(route("fc00::/16", nexthops=[Nexthop(dev="a")]))
    table.add(route("fc00::5/128", nexthops=[Nexthop(dev="h")]))
    assert table.lookup(pton("fc00::5")).nexthops[0].dev == "h"


def test_remove_route():
    table = FibTable()
    table.add(route("fc00::/64", nexthops=[Nexthop(dev="a")]))
    table.remove(pton("fc00::"), 64)
    assert table.lookup(pton("fc00::1")) is None
    with pytest.raises(KeyError):
        table.remove(pton("fc00::"), 64)


def test_add_same_prefix_overwrites():
    table = FibTable()
    table.add(route("fc00::/64", nexthops=[Nexthop(dev="a")]))
    table.add(route("fc00::/64", nexthops=[Nexthop(dev="b")]))
    assert len(table) == 1
    assert table.lookup(pton("fc00::1")).nexthops[0].dev == "b"


def test_ecmp_nexthop_selection_by_hash():
    r = route(
        "fc00::/64",
        nexthops=[Nexthop(via="fc00::a", dev="a"), Nexthop(via="fc00::b", dev="b")],
    )
    assert r.select_nexthop(0).dev == "a"
    assert r.select_nexthop(1).dev == "b"


def test_ecmp_weighted_selection():
    r = route(
        "fc00::/64",
        nexthops=[
            Nexthop(via="fc00::a", dev="a", weight=3),
            Nexthop(via="fc00::b", dev="b", weight=1),
        ],
    )
    picks = [r.select_nexthop(h).dev for h in range(4)]
    assert picks.count("a") == 3
    assert picks.count("b") == 1


def test_ecmp_flows_spread_roughly_evenly():
    table = FibTable()
    table.add(
        route(
            "fc00:2::/64",
            nexthops=[Nexthop(via="fc00::a", dev="a"), Nexthop(via="fc00::b", dev="b")],
        )
    )
    counts = {"a": 0, "b": 0}
    for port in range(400):
        pkt = make_udp_packet("fc00::1", "fc00:2::9", 1000 + port, 80, b"")
        r = table.lookup(pkt.dst)
        counts[r.select_nexthop(pkt.flow_hash()).dev] += 1
    assert counts["a"] > 100
    assert counts["b"] > 100


def test_ecmp_nexthops_query():
    table = FibTable()
    table.add(
        route(
            "fc00:2::/64",
            nexthops=[Nexthop(via="fc00::a", dev="a"), Nexthop(via="fc00::b", dev="b")],
        )
    )
    nhs = table.ecmp_nexthops(pton("fc00:2::1"))
    assert [nh.via for nh in nhs] == [pton("fc00::a"), pton("fc00::b")]
    assert table.ecmp_nexthops(pton("fd00::1")) == []


def test_nexthop_requires_gateway_or_device():
    with pytest.raises(ValueError):
        Nexthop()


@settings(max_examples=50, deadline=None)
@given(
    prefixes=st.lists(st.integers(0, 64), min_size=1, max_size=10),
    query_low=st.integers(0, (1 << 64) - 1),
)
def test_fib_lpm_matches_reference(prefixes, query_low):
    """FIB longest-prefix-match agrees with a brute-force reference."""
    base = pton("fc00::")
    table = FibTable()
    entries = []
    for i, plen in enumerate(sorted(set(prefixes))):
        r = Route(prefix=base, prefixlen=plen, nexthops=[Nexthop(dev=f"d{plen}")])
        table.add(r)
        entries.append(plen)
    query = bytes(8) + query_low.to_bytes(8, "big")
    query = bytes([0xFC, 0x00]) + query[2:]
    hit = table.lookup(query)

    def matches(plen):
        from repro.net.addr import matches_prefix

        return matches_prefix(query, base, plen)

    expected = max((p for p in entries if matches(p)), default=None)
    if expected is None:
        assert hit is None
    else:
        assert hit.nexthops[0].dev == f"d{expected}"
