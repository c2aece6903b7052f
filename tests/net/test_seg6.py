"""seg6 transit behaviours and static seg6local actions."""

import pytest

from repro.net import (
    End,
    EndB6,
    EndB6Encaps,
    EndDT6,
    EndDX6,
    EndT,
    EndX,
    IPv6Header,
    Node,
    Packet,
    SRH,
    Seg6Encap,
    make_srh,
    make_srv6_udp_packet,
    make_udp_packet,
    pton,
    push_outer_encap,
    push_srh_inline,
)
from repro.net.seg6 import decap_in_place
from spec import srv6 as spec


def plain_packet() -> bytes:
    return bytes(make_udp_packet("fc00::1", "fc00:2::2", 1111, 2222, b"hello").data)


# --- byte-level transforms ----------------------------------------------------


def test_push_outer_encap_structure():
    srh = make_srh(["fc00::a", "fc00::b"], next_header=41)
    out = push_outer_encap(plain_packet(), pton("fc00::9"), srh)
    pkt = Packet(out)
    assert pkt.src == pton("fc00::9")
    assert pkt.dst == pton("fc00::a")  # first segment
    assert pkt.next_header == 43
    parsed, _ = pkt.srh()
    assert parsed.next_header == 41
    assert IPv6Header.parse(out).payload_length == srh.wire_len + len(plain_packet())


def test_encap_decap_roundtrip():
    srh = make_srh(["fc00::a"], next_header=41)
    data = bytearray(push_outer_encap(plain_packet(), pton("fc00::9"), srh))
    assert decap_in_place(data) is None
    assert data == plain_packet()


def test_push_inline_structure():
    original = plain_packet()
    srh = make_srh(["fc00::a", "fc00:2::2"], next_header=17)
    out = push_srh_inline(original, srh)
    pkt = Packet(out)
    assert pkt.dst == pton("fc00::a")
    assert pkt.next_header == 43
    assert pkt.l4() == (17, 1111, 2222)
    assert IPv6Header.parse(out).payload_length == len(original) - 40 + srh.wire_len


def test_inline_pop_roundtrip():
    original = plain_packet()
    srh = make_srh(["fc00::a", "fc00:2::2"], next_header=17)
    inserted = push_srh_inline(original, srh)
    # Pop by hand: the SRH's next header and length go back into the IPv6 header.
    header = bytearray(inserted[:40])
    header[6] = inserted[40]
    header[4:6] = ((header[4] << 8 | header[5]) - srh.wire_len).to_bytes(2, "big")
    popped = bytes(header) + inserted[40 + srh.wire_len :]
    # Destination was rewritten to the first segment by insertion; the
    # payload and structure must otherwise be intact.
    restored = Packet(popped)
    assert restored.udp_payload() == b"hello"
    assert restored.next_header == 17


def test_decap_requires_inner_ipv6():
    data = bytearray(plain_packet())
    assert decap_in_place(data) == "no inner IPv6 packet to decapsulate"
    assert data == plain_packet()


def test_end_b6_drops_a_policy_whose_srh_would_overflow_hdr_ext_len():
    """127 policy segments plus the packet's destination make 128: one more than the field holds."""
    pkt = Packet(plain_packet())
    policy = [pton(f"fc00:b6::{i:x}") for i in range(127)]
    disposition = EndB6(segments=policy).process(pkt, Node("N"))
    assert disposition.action == "drop" and "End.B6: " in disposition.reason
    assert bytes(pkt.data) == plain_packet()


# --- Seg6Encap lwtunnel -------------------------------------------------------------


def test_seg6encap_encap_mode():
    encap = Seg6Encap(segments=[pton("fc00::a"), pton("fc00::b")], mode="encap")
    out = encap.apply(plain_packet(), pton("fc00::9"))
    pkt = Packet(out)
    assert pkt.dst == pton("fc00::a")
    srh, _ = pkt.srh()
    assert srh.segments_left == 1
    assert srh.segments[0] == pton("fc00::b")


def test_seg6encap_inline_appends_original_dst():
    encap = Seg6Encap(segments=[pton("fc00::a")], mode="inline")
    out = encap.apply(plain_packet(), pton("fc00::9"))
    srh, _ = Packet(out).srh()
    assert srh.segments[0] == pton("fc00:2::2")
    assert srh.segments_left == 1


def test_seg6encap_validates_mode():
    with pytest.raises(ValueError):
        Seg6Encap(segments=[pton("fc00::a")], mode="bogus")


def test_seg6_encap_refuses_more_segments_than_hdr_ext_len_holds():
    Seg6Encap(segments=[pton("fc00::a")] * 127)
    with pytest.raises(ValueError, match="hdr_ext_len"):
        Seg6Encap(segments=[pton("fc00::a")] * 128)
    with pytest.raises(ValueError):
        Seg6Encap(segments=[], mode="encap")


# --- static seg6local actions ---------------------------------------------------------


def srv6_packet(path, **kwargs) -> Packet:
    return make_srv6_udp_packet("fc00::1", path, 1111, 2222, b"x", **kwargs)


@pytest.fixture
def node():
    n = Node("N")
    n.add_address("fc00:e::1")
    return n


def test_end_advances(node):
    pkt = srv6_packet(["fc00:e::100", "fc00:2::2"])
    disposition = End().process(pkt, node)
    assert disposition.action == "forward"
    assert pkt.dst == pton("fc00:2::2")
    srh, _ = pkt.srh()
    assert srh.segments_left == 0


def test_end_requires_srh(node):
    pkt = Packet(plain_packet())
    assert End().process(pkt, node).action == "drop"


def test_end_rejects_exhausted_segments(node):
    pkt = srv6_packet(["fc00:e::100", "fc00:2::2"])
    End().process(pkt, node)
    assert End().process(pkt, node).action == "drop"  # segments_left now 0


def test_end_x_forces_nexthop(node):
    pkt = srv6_packet(["fc00:e::100", "fc00:2::2"])
    disposition = EndX(nh6="fc00::55").process(pkt, node)
    assert disposition.nh6 == pton("fc00::55")
    assert pkt.dst == pton("fc00:2::2")


def test_end_t_selects_table(node):
    pkt = srv6_packet(["fc00:e::100", "fc00:2::2"])
    disposition = EndT(table_id=100).process(pkt, node)
    assert disposition.table_id == 100


def test_end_dt6_decapsulates(node):
    inner = plain_packet()
    srh = make_srh(["fc00:e::100"], next_header=41)
    outer = push_outer_encap(inner, pton("fc00::9"), srh)
    pkt = Packet(outer)
    disposition = EndDT6(table_id=254).process(pkt, node)
    assert disposition.action == "forward"
    assert bytes(pkt.data) == inner


def test_end_dt6_rejects_pending_segments(node):
    pkt = srv6_packet(["fc00:e::100", "fc00:2::2"])  # segments_left == 1
    assert EndDT6(table_id=254).process(pkt, node).action == "drop"


def test_end_dx6_decapsulates_to_nexthop(node):
    inner = plain_packet()
    srh = make_srh(["fc00:e::100"], next_header=41)
    pkt = Packet(push_outer_encap(inner, pton("fc00::9"), srh))
    disposition = EndDX6(nh6="fc00::66").process(pkt, node)
    assert disposition.nh6 == pton("fc00::66")
    assert bytes(pkt.data) == inner


def test_end_b6_inserts_policy_without_advance(node):
    pkt = srv6_packet(["fc00:e::100", "fc00:2::2"])
    EndB6(segments=["fc00::b1", "fc00::b2"]).process(pkt, node)
    srh, _ = pkt.srh()
    # New policy SRH on top: first segment of the policy is now the DA.
    assert pkt.dst == pton("fc00::b1")
    assert srh.segments[0] == pton("fc00:e::100")


def test_end_b6_encaps_advances_then_wraps(node):
    pkt = srv6_packet(["fc00:e::100", "fc00:2::2"])
    EndB6Encaps(segments=["fc00::b1"], source="fc00:e::1").process(pkt, node)
    outer = Packet(bytes(pkt.data))
    assert outer.dst == pton("fc00::b1")
    assert outer.src == pton("fc00:e::1")
    inner, _reason = spec.decapsulate(bytes(pkt.data))
    assert Packet(inner).dst == pton("fc00:2::2")  # advanced before encap


# --- a payload length past 65 535 ----------------------------------------------------------------
#
# An encapsulation that would not fit the 16-bit payload length is a
# ValueError from the transform and a drop in the datapath — not a
# struct.error that escapes every handler and kills the run.


def jumbo_packet(payload_length: int = 65535) -> bytes:
    """A UDP packet whose IPv6 payload length is ``payload_length``."""
    payload = bytes(payload_length - 8)
    return bytes(make_udp_packet("fc00::1", "fc00:2::2", 1111, 2222, payload).data)


def test_push_refuses_a_payload_length_past_65535():
    one_segment = make_srh(["fc00::a"], next_header=41)  # 24 bytes on the wire
    with pytest.raises(ValueError, match="payload length 65564 exceeds 65535"):
        push_outer_encap(jumbo_packet(65500), pton("fc00::9"), one_segment)
    with pytest.raises(ValueError, match="payload length 65559 exceeds 65535"):
        push_srh_inline(jumbo_packet(), one_segment)
    # The largest packets that still fit do.
    fits = jumbo_packet(65535 - 24 - 40)
    assert IPv6Header.parse(push_outer_encap(fits, pton("fc00::9"), one_segment)).payload_length == 65535
    fits = jumbo_packet(65535 - 24)
    assert IPv6Header.parse(push_srh_inline(fits, one_segment)).payload_length == 65535


@pytest.mark.parametrize("mode", ["encap", "inline"])
def test_seg6_encap_stage_drops_an_oversize_packet(mode):
    router = Node("R")
    router.add_device("eth0")
    router.add_device("eth1")
    router.add_address("fc00:e::1")
    router.add_route("fc00:2::/64", encap=Seg6Encap(segments=[pton("fc00:3::e1")], mode=mode))
    router.add_route("fc00:3::e1/128", via="fc00:3::1", dev="eth1")
    router.receive(Packet(jumbo_packet()), router.devices["eth0"])
    assert router.counters.dropped == 1
    assert not router.devices["eth1"].tx_buffer
    assert any("seg6 encap failed: payload length" in msg for msg in router.log_messages)
    # The route still forwards what fits.
    router.receive(Packet(plain_packet()), router.devices["eth0"])
    assert len(router.devices["eth1"].tx_buffer) == 1


def test_end_b6_actions_drop_an_oversize_packet(node):
    def jumbo_srv6() -> Packet:  # two-segment SRH (40 bytes) + UDP: payload length 65 535
        path = ["fc00:e::100", "fc00:2::2"]
        return make_srv6_udp_packet("fc00::1", path, 1111, 2222, bytes(65535 - 40 - 8))

    pkt = jumbo_srv6()
    before = bytes(pkt.data)
    disposition = EndB6(segments=["fc00::b1"]).process(pkt, node)
    assert (disposition.action, disposition.reason) == (
        "drop",
        "End.B6: payload length 65575 exceeds 65535",
    )
    assert disposition.reason == spec.drop_text(spec.end_b6(before, [pton("fc00::b1")])[1])
    assert bytes(pkt.data) == before

    disposition = EndB6Encaps(segments=["fc00::b1"], source="fc00:e::1").process(jumbo_srv6(), node)
    assert (disposition.action, disposition.reason) == (
        "drop",
        "End.B6.Encaps: payload length 65599 exceeds 65535",
    )
    expected = spec.end_b6_encaps(before, [pton("fc00::b1")], pton("fc00:e::1"))[1]
    assert disposition.reason == spec.drop_text(expected)
