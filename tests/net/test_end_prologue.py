"""The End prologue (`_advance_verdict`) against `SRH.parse`, the reference.

The prologue reads four SRH header bytes and one segment off the packet
instead of parsing the header; these tests hold it to the parser's exact
accept/reject decisions, and the advancing actions to their drop reasons
on every class of malformed header.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    SRH,
    End,
    EndBPF,
    EndT,
    EndX,
    Node,
    Packet,
    make_srv6_udp_packet,
    make_udp_packet,
    pton,
)
from repro.net.ipv6 import IPV6_HEADER_LEN, PROTO_ROUTING
from repro.net.seg6local import _V_NO_SRH, _V_SL_ZERO, _advance_verdict
from repro.net.srh import (
    OFF_HDR_EXT_LEN,
    OFF_LAST_ENTRY,
    OFF_ROUTING_TYPE,
    OFF_SEGMENTS_LEFT,
    Tlv,
)
from repro.progs import end_prog

SRH_AT = IPV6_HEADER_LEN


def reference_verdict(data: bytes):
    """What the prologue must return, by way of the full parser."""
    if len(data) < IPV6_HEADER_LEN or data[6] != PROTO_ROUTING:
        return _V_NO_SRH
    try:
        srh = SRH.parse(data, SRH_AT)
    except ValueError:
        return _V_NO_SRH
    if srh.segments_left == 0:
        return _V_SL_ZERO
    return srh.segments_left - 1, srh.segments[srh.segments_left - 1]


def srv6_bytes(n_segments: int, tlv_len: int = 0) -> bytearray:
    """A well-formed SRv6 UDP packet with ``tlv_len`` bytes of TLV area."""
    path = [f"fc00:{i + 1:x}::1" for i in range(n_segments)]
    tlvs = [Tlv(0x80, bytes(tlv_len - 2))] if tlv_len else None
    return make_srv6_udp_packet("fc00::1", path, 1111, 2222, b"payload!", tlvs=tlvs).data


# Either "leave the field alone" or a replacement byte, biased to the
# small values that land near the accept/reject boundaries.
_field = st.one_of(st.none(), st.integers(0, 12), st.integers(0, 255))


@settings(max_examples=600, deadline=None)
@given(
    n_segments=st.integers(1, 5),
    tlv_len=st.sampled_from([0, 8, 16]),
    hdr_ext_len=_field,
    last_entry=_field,
    segments_left=_field,
    routing_type=st.one_of(st.none(), st.integers(0, 255)),
    next_header=st.sampled_from([PROTO_ROUTING, PROTO_ROUTING, 17, 0]),
    keep=st.one_of(st.none(), st.integers(0, 160)),
)
def test_advance_verdict_matches_srh_parse(
    n_segments, tlv_len, hdr_ext_len, last_entry, segments_left, routing_type, next_header, keep
):
    data = srv6_bytes(n_segments, tlv_len)
    for offset, value in (
        (OFF_HDR_EXT_LEN, hdr_ext_len),
        (OFF_LAST_ENTRY, last_entry),
        (OFF_SEGMENTS_LEFT, segments_left),
        (OFF_ROUTING_TYPE, routing_type),
    ):
        if value is not None:
            data[SRH_AT + offset] = value
    data[6] = next_header
    if keep is not None:
        del data[keep:]

    expected = reference_verdict(bytes(data))
    before = bytes(data)
    verdict = _advance_verdict(data)
    assert bytes(data) == before  # the verdict itself never writes
    if expected is _V_NO_SRH or expected is _V_SL_ZERO:
        assert verdict is expected
        return
    assert verdict == expected

    # And the action applies it: new segments_left, new destination,
    # every other byte untouched.
    pkt = Packet(before)
    assert End().process(pkt, None).action == "forward"
    new_sl, new_dst = expected
    rewritten = bytearray(before)
    rewritten[SRH_AT + OFF_SEGMENTS_LEFT] = new_sl
    rewritten[24:40] = new_dst
    assert pkt.data == rewritten


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
        resident = action.process(Packet(bytes(data)), node, action.handler())
        assert (resident.action, resident.reason) == ("drop", prefix + reason)
        assert action.program.stats.invocations == 0  # the program never saw it


def test_advance_rewrites_destination_in_place():
    pkt = Packet(bytes(srv6_bytes(3)))
    buffer = pkt.data
    assert End().process(pkt, None).action == "forward"
    assert pkt.data is buffer
    assert pkt.dst == pton("fc00:2::1")
    assert pkt.srh()[0].segments_left == 1
