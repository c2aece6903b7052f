"""The End prologue (`_advance`) against the RFC 8986 End behaviour in ``tests/spec/srv6.py``.

The prologue reads the fixed SRH header off the packet and writes
segments_left and the destination where they lie instead of parsing the
header; these tests hold it, and every action that runs it, to the
spec's accept/reject decisions and drop reasons over generated headers
(a refused packet's bytes unchanged), and the advancing actions to their
drop reasons on every class of malformed header.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    End,
    EndB6Encaps,
    EndBPF,
    EndDT6,
    EndDX6,
    EndT,
    EndX,
    Node,
    Packet,
    make_srv6_udp_packet,
    make_udp_packet,
    pton,
)
from repro.net.ipv6 import IPV6_HEADER_LEN, PROTO_ROUTING
from repro.net.seg6local import _V_NO_SRH, _V_SL_ZERO, _advance
from repro.net.srh import (
    OFF_HDR_EXT_LEN,
    OFF_LAST_ENTRY,
    OFF_ROUTING_TYPE,
    OFF_SEGMENTS_LEFT,
    Tlv,
)
from repro.progs import end_prog
from spec import srv6 as spec

SRH_AT = IPV6_HEADER_LEN


def srv6_bytes(n_segments: int, tlv_len: int = 0) -> bytearray:
    """A well-formed SRv6 UDP packet with ``tlv_len`` bytes of TLV area."""
    path = [f"fc00:{i + 1:x}::1" for i in range(n_segments)]
    tlvs = [Tlv(0x80, bytes(tlv_len - 2))] if tlv_len else None
    return make_srv6_udp_packet("fc00::1", path, 1111, 2222, b"payload!", tlvs=tlvs).data


# Either "leave the field alone" or a replacement byte, biased to the
# small values that land near the accept/reject boundaries.
_field = st.one_of(st.none(), st.integers(0, 12), st.integers(0, 255))


@st.composite
def generated_srv6(draw) -> bytearray:
    """An SRv6 packet with any of its SRH header fields rewritten, maybe cut short."""
    data = srv6_bytes(draw(st.integers(1, 5)), draw(st.sampled_from([0, 8, 16])))
    for offset in (OFF_HDR_EXT_LEN, OFF_LAST_ENTRY, OFF_SEGMENTS_LEFT):
        value = draw(_field)
        if value is not None:
            data[SRH_AT + offset] = value
    routing_type = draw(st.one_of(st.none(), st.integers(0, 255)))
    if routing_type is not None:
        data[SRH_AT + OFF_ROUTING_TYPE] = routing_type
    data[6] = draw(st.sampled_from([PROTO_ROUTING, PROTO_ROUTING, 17, 0]))
    keep = draw(st.one_of(st.none(), st.integers(0, 160)))
    if keep is not None:
        del data[keep:]
    return data


@settings(max_examples=600, deadline=None)
@given(data=generated_srv6())
def test_advance_matches_the_spec(data):
    """The prologue itself: the spec's verdict, applied in place or not at all."""
    expected, why = spec.end(bytes(data))
    before = bytes(data)
    reason = _advance(data)
    if why is not None:
        assert reason in (_V_NO_SRH, _V_SL_ZERO) and reason == spec.drop_text(why)
        assert data == before  # a refused packet is not half-advanced
        return
    assert reason is None
    assert data == expected  # segments_left and the destination, every other byte untouched


def advancing_actions():
    """Every action that runs the End prologue, with its drop-reason prefix."""
    return [
        (End(), ""),
        (EndX(nh6="fc00::55"), ""),
        (EndT(table_id=100), ""),
        (EndBPF(end_prog()), "End.BPF: "),
        (EndB6Encaps(segments=["fc00:b6::1"], source="fc00::b6"), ""),
    ]


@settings(max_examples=400, deadline=None)
@given(data=generated_srv6())
def test_every_advancing_action_takes_the_spec_decisions(data):
    """Accept exactly what the spec's End accepts, rewrite in place, leave a refused packet as it came."""
    expected, why = spec.end(bytes(data))
    node = Node("N")
    for action, prefix in advancing_actions():
        pkt = Packet(bytes(data))
        disposition = action.process(pkt, node)
        if why is not None:
            assert (disposition.action, disposition.reason, disposition.bpf) == (
                "drop", prefix + spec.drop_text(why), False
            ), action.kind
            assert pkt.data == data, action.kind  # a refused packet's bytes are unchanged
            continue
        assert disposition.action == "forward", action.kind
        if isinstance(action, EndB6Encaps):
            assert pkt.data == spec.end_b6_encaps(bytes(data), [pton("fc00:b6::1")], pton("fc00::b6"))[0]
        else:
            assert pkt.data == expected, action.kind


@settings(max_examples=300, deadline=None)
@given(data=generated_srv6())
def test_decap_refuses_exactly_what_the_prologue_would_advance(data):
    """End.DT6 / End.DX6 refuse a packet End would advance, and leave it untouched."""
    would_advance = spec.end(bytes(data))[1] is None
    node = Node("N")
    for action in (EndDT6(table_id=254), EndDX6(nh6="fc00::9")):
        pkt = Packet(bytes(data))
        disposition = action.process(pkt, node)
        refused = disposition.reason == f"{action.kind} requires segments_left == 0"
        assert refused == would_advance, action.kind
        if refused:
            assert pkt.data == data, action.kind


def _mutated(offset: int, value: int) -> bytearray:
    data = srv6_bytes(2)
    data[SRH_AT + offset] = value
    return data


MALFORMED = {
    "no routing header": (bytearray(make_udp_packet("fc00::1", "fc00:e::100", 1, 2, b"x").data), "no SRH"),
    "truncated fixed header": (srv6_bytes(2)[: SRH_AT + 7], "no SRH"),
    "wrong routing type": (_mutated(OFF_ROUTING_TYPE, 0), "no SRH"),
    "length exceeds packet": (_mutated(OFF_HDR_EXT_LEN, 200), "no SRH"),
    "truncated segment list": (srv6_bytes(2)[: SRH_AT + 8 + 20], "no SRH"),
    "segment list exceeds length": (_mutated(OFF_LAST_ENTRY, 2), "no SRH"),
    "segments_left beyond last_entry": (_mutated(OFF_SEGMENTS_LEFT, 2), "no SRH"),
    "segments_left zero": (_mutated(OFF_SEGMENTS_LEFT, 0), "segments_left == 0"),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize(
    "action, prefix",
    [
        (End(), ""),
        (EndX(nh6="fc00::55"), ""),
        (EndT(table_id=100), ""),
        (EndBPF(end_prog()), "End.BPF: "),
    ],
    ids=["End", "End.X", "End.T", "End.BPF"],
)
def test_malformed_srh_drop_reasons(case, action, prefix):
    data, reason = MALFORMED[case]
    node = Node("N")
    pkt = Packet(bytes(data))
    disposition = action.process(pkt, node)
    assert (disposition.action, disposition.reason, disposition.bpf) == ("drop", prefix + reason, False)
    assert pkt.data == data  # a dropped packet is not half-advanced
    if isinstance(action, EndBPF):
        assert action.program.stats.invocations == 0  # the program never saw it


def test_advance_rewrites_destination_in_place():
    pkt = Packet(bytes(srv6_bytes(3)))
    buffer = pkt.data
    assert End().process(pkt, None).action == "forward"
    assert pkt.data is buffer
    assert pkt.dst == pton("fc00:2::1")
    assert pkt.srh()[0].segments_left == 1
