"""Packet metadata/parsing and the FIB."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    FibTable,
    Nexthop,
    Packet,
    Route,
    make_srv6_udp_packet,
    make_tcp_packet,
    make_udp_packet,
    parse_prefix,
    pton,
)
from repro.net.tcp import TcpHeader


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


def test_default_trace_list_is_per_packet():
    assert Packet(b"").trace is not Packet(b"").trace


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
