"""Segment Routing Header: wire format, semantics, TLVs."""

import pytest
from hypothesis import given, strategies as st

from repro.net import (
    SRH,
    Tlv,
    make_controller_tlv,
    make_dm_tlv,
    make_srh,
    pton,
    validate_srh_bytes,
)
from repro.net.srh import (
    TLV_CONTROLLER,
    TLV_DM,
    TLV_PAD1,
    TLV_PADN,
    pad_tlvs,
    parse_tlvs,
)


def test_make_srh_path_order():
    srh = make_srh(["fc00::a", "fc00::b", "fc00::c"], next_header=17)
    # Reverse storage: segments[0] is the final hop.
    assert srh.segments[0] == pton("fc00::c")
    assert srh.segments[2] == pton("fc00::a")
    assert srh.segments_left == 2
    assert srh.current_segment == pton("fc00::a")


def test_pack_parse_roundtrip():
    srh = make_srh(["fc00::a", "fc00::b"], next_header=41, tag=7, flags=1)
    parsed = SRH.parse(srh.pack())
    assert parsed.segments == srh.segments
    assert parsed.segments_left == srh.segments_left
    assert parsed.tag == 7
    assert parsed.flags == 1
    assert parsed.next_header == 41


def test_hdr_ext_len_encoding():
    srh = make_srh(["fc00::a", "fc00::b"], next_header=59)
    assert srh.wire_len == 8 + 32
    assert srh.hdr_ext_len == 4
    assert srh.pack()[1] == 4


def test_advance_semantics():
    srh = make_srh(["fc00::a", "fc00::b"], next_header=59)
    assert srh.advance() == pton("fc00::b")
    assert srh.segments_left == 0
    with pytest.raises(ValueError, match="cannot advance"):
        srh.advance()


def test_segments_stored_last_first():
    srh = make_srh(["fc00::a", "fc00::b", "fc00::c"], next_header=59)
    assert srh.segments == [pton("fc00::c"), pton("fc00::b"), pton("fc00::a")]
    assert srh.current_segment == srh.segments[srh.last_entry] == pton("fc00::a")


def test_empty_segment_list_rejected():
    with pytest.raises(ValueError):
        SRH(segments=[], segments_left=0)


def test_segments_left_bounds():
    with pytest.raises(ValueError):
        SRH(segments=[pton("fc00::1")], segments_left=1)


def test_length_must_be_multiple_of_8():
    with pytest.raises(ValueError, match="multiple of 8"):
        SRH(segments=[pton("fc00::1")], segments_left=0, tlv_bytes=b"\x00" * 5)


def test_parse_rejects_wrong_routing_type():
    raw = bytearray(make_srh(["fc00::a"], next_header=59).pack())
    raw[2] = 3  # not an SRH
    with pytest.raises(ValueError, match="routing type"):
        SRH.parse(bytes(raw))


def test_parse_rejects_truncated():
    raw = make_srh(["fc00::a"], next_header=59).pack()
    with pytest.raises(ValueError):
        SRH.parse(raw[:10])


def test_parse_rejects_segment_list_overflow():
    raw = bytearray(make_srh(["fc00::a"], next_header=59).pack())
    raw[4] = 5  # last_entry claims 6 segments in a 24-byte SRH
    with pytest.raises(ValueError, match="exceeds"):
        SRH.parse(bytes(raw))


# --- TLVs ------------------------------------------------------------------------


def test_tlv_pack():
    assert Tlv(10, b"abc").pack() == b"\x0a\x03abc"
    assert Tlv(TLV_PAD1).pack() == b"\x00"


def test_parse_tlvs_mixed():
    raw = Tlv(10, b"ab").pack() + b"\x00" + Tlv(TLV_PADN, b"\x00\x00").pack()
    tlvs = parse_tlvs(raw)
    assert [t.tlv_type for t in tlvs] == [10, TLV_PAD1, TLV_PADN]


def test_parse_tlvs_rejects_truncation():
    with pytest.raises(ValueError):
        parse_tlvs(b"\x0a\x05ab")  # claims 5 bytes, has 2


def test_pad_tlvs_aligns_to_8():
    tlvs = [Tlv(10, b"abc")]  # 5 bytes
    padded = pad_tlvs(tlvs, occupied=8 + 16)
    total = sum(t.wire_len for t in padded)
    assert (8 + 16 + total) % 8 == 0


def test_pad_tlvs_single_byte_uses_pad1():
    padded = pad_tlvs([Tlv(10, b"abcde")], occupied=24)  # 7 bytes of TLV
    assert padded[-1].tlv_type == TLV_PAD1


def test_srh_with_tlvs_roundtrip():
    tlvs = [make_dm_tlv(123456789), make_controller_tlv("fc00::c", 9999)]
    srh = make_srh(["fc00::a", "fc00::b"], next_header=41, tlvs=tlvs)
    by_type = {tlv.tlv_type: tlv for tlv in SRH.parse(srh.pack()).tlvs}
    dm, ctrl = by_type[TLV_DM], by_type[TLV_CONTROLLER]
    assert int.from_bytes(dm.value[:8], "big") == 123456789
    assert ctrl.value[:16] == pton("fc00::c")
    assert int.from_bytes(ctrl.value[16:18], "big") == 9999


def test_tlv_area_follows_segment_list():
    srh = make_srh(["fc00::a", "fc00::b"], next_header=41, tlvs=[make_dm_tlv(1)])
    raw = srh.pack()
    assert raw[8 + 2 * 16] == TLV_DM  # right after the segment list
    assert raw[8 + 2 * 16 :] == srh.tlv_bytes


def test_srh_without_tlvs_has_no_tlv_area():
    srh = SRH.parse(make_srh(["fc00::a"], next_header=59).pack())
    assert srh.tlv_bytes == b""
    assert srh.tlvs == []
    assert srh.hdr_ext_len == 2  # one segment: 16 bytes past the first 8


def test_validate_srh_bytes_rejects_bad_tlv_area():
    srh = make_srh(["fc00::a"], next_header=59, tlvs=[Tlv(10, b"abcdef")])
    raw = bytearray(srh.pack())
    raw[8 + 16 + 1] = 200  # corrupt the TLV length
    with pytest.raises(ValueError):
        validate_srh_bytes(bytes(raw))


def test_validate_srh_bytes_accepts_valid():
    srh = make_srh(["fc00::a", "fc00::b"], next_header=41)
    assert validate_srh_bytes(srh.pack()).segments_left == 1


@given(
    n_segments=st.integers(1, 6),
    tag=st.integers(0, 0xFFFF),
    flags=st.integers(0, 255),
    next_header=st.sampled_from([17, 41, 59, 6]),
    tlv_payload=st.binary(max_size=40),
)
def test_srh_roundtrip_property(n_segments, tag, flags, next_header, tlv_payload):
    path = [pton(f"fc00::{i + 1}") for i in range(n_segments)]
    tlvs = [Tlv(10, tlv_payload)] if tlv_payload else []
    srh = make_srh(path, next_header=next_header, tlvs=tlvs, tag=tag, flags=flags)
    parsed = SRH.parse(srh.pack())
    assert parsed.pack() == srh.pack()
    assert parsed.current_segment == path[0]
    assert parsed.segments[0] == path[-1]
