"""The SRv6 spec itself: independent of ``repro``, and right on hand-worked RFC cases.

Nothing under ``tests/spec/`` may import ``repro``: the spec is the oracle
the datapath is compared with, so it must not share the datapath's code.
The cases below are worked from the RFC text by hand, with packets built
byte by byte.
"""

import ast
from pathlib import Path

import pytest

from spec import srv6 as spec

SPEC_DIR = Path(__file__).resolve().parent

A, B, C = (bytes([0xFC, 0, 0, n]) + bytes(12) for n in (0xA, 0xB, 0xC))
SRC, DST = bytes([0xFC, 0, 0, 1]) + bytes(12), bytes([0xFC, 0, 0, 2]) + bytes(12)


def repro_imports(source: str) -> list[str]:
    """The ``repro`` modules ``source`` imports, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "repro"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "repro":
            found.append(node.module)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("__import__", "import_module"):
            found += [arg.value for arg in node.args if isinstance(arg, ast.Constant) and str(arg.value).startswith("repro")]
    return found


def test_the_spec_directory_imports_nothing_from_repro():
    files = sorted(SPEC_DIR.glob("*.py"))
    assert SPEC_DIR / "srv6.py" in files
    assert {path.name: repro_imports(path.read_text()) for path in files} == {path.name: [] for path in files}


@pytest.mark.parametrize(
    "source",
    ["import repro", "import repro.net as n", "from repro.net import SRH", "def f():\n    from repro import net",
     "__import__('repro.net')"],
)  # fmt: skip
def test_the_import_scan_sees_every_form(source):
    assert repro_imports(source)


def ipv6(next_header: int, payload: bytes, dst: bytes = DST, hop_limit: int = 64) -> bytes:
    """An IPv6 header (RFC 8200 §3) in front of ``payload``."""
    head = (6 << 28).to_bytes(4, "big") + len(payload).to_bytes(2, "big") + bytes([next_header, hop_limit])
    return head + SRC + dst + payload


UDP = bytes(8) + b"payload!"


# -- the SRH rule -------------------------------------------------------------------------------


def test_srh_bytes_stores_the_path_last_segment_first():
    srh = spec.srh_bytes([A, B, C], 17)
    assert srh[:6] == bytes([17, 6, 4, 2, 2, 0])  # 56 octets: Hdr Ext Len 6; SL = LE = 2
    assert srh[8:24] == C and srh[40:56] == A
    assert spec.active_segment(srh) == A
    assert spec.srh_reason(srh) is None


def field(srh: bytes, index: int, value: int) -> bytes:
    out = bytearray(srh)
    out[index] = value
    return bytes(out)


@pytest.mark.parametrize(
    "data, reason",
    [
        (spec.srh_bytes([A], 59)[:7], ("srh-truncated",)),
        (field(spec.srh_bytes([A], 59), 2, 0), ("srh-routing-type", 0)),
        (spec.srh_bytes([A, B], 59)[:39], ("srh-past-packet",)),
        (field(spec.srh_bytes([A, B], 59), 4, 2), ("srh-segment-list",)),  # 3 segments in 40 octets
        (field(spec.srh_bytes([A, B], 59), 3, 3), ("srh-segments-left", 3, 1)),
        (spec.srh_bytes([A], 59, tlvs=b"\x0a\x07" + bytes(6)), ("tlv-past-area",)),
        (spec.srh_bytes([A], 59, tlvs=bytes(7) + b"\x0a"), ("tlv-truncated",)),
    ],
    ids=["truncated", "routing type", "past the packet", "segment list", "segments left", "tlv value", "tlv header"],
)
def test_each_srh_rule_refuses_with_its_class(data, reason):
    assert spec.srh_reason(data, deviations=spec.RFC) == reason


def test_last_entry_is_bounded_by_half_the_length():
    """RFC 8754 S08: max_last_entry = Hdr Ext Len / 2 - 1, rounding down."""
    srh = bytearray(spec.srh_bytes([A, B], 59, tlvs=bytes(8)))  # Hdr Ext Len 5: room for 2 segments
    assert srh[1] == 5 and spec.srh_reason(bytes(srh)) is None
    srh[4] = 2
    assert spec.srh_reason(bytes(srh)) == ("srh-segment-list",)


def test_segments_left_may_reach_last_entry_plus_one_in_the_rfc_only():
    srh = field(spec.srh_bytes([A, B], 59), 3, 2)  # Segments Left = Last Entry + 1
    assert spec.srh_reason(srh, deviations=spec.RFC) is None
    assert spec.srh_reason(srh) == ("srh-segments-left", 2, 1)


def test_pad1_is_one_octet_and_padn_any_length():
    """RFC 8754 §2.1.1: a lone zero octet pads one; PadN (type 4) pads 2 + length."""
    assert spec.tlv_reason(b"\x00" * 8) is None
    assert spec.tlv_reason(b"\x00\x04\x04" + bytes(4) + b"\x00") is None
    assert spec.tlv_reason(b"\x04\x06" + bytes(6)) is None
    assert spec.tlv_reason(b"\x80\x0a" + bytes(6)) == ("tlv-past-area",)


def test_the_tlv_walk_is_skipped_on_request():
    srh = spec.srh_bytes([A], 59, tlvs=b"\x0a\x07" + bytes(6))
    assert spec.srh_reason(srh, tlvs=False) is None


# -- End ------------------------------------------------------------------------------------


def test_end_advances_segments_left_and_the_destination():
    packet = ipv6(43, spec.srh_bytes([A, B, C], 17) + UDP, dst=A)
    out, reason = spec.end(packet)
    assert reason is None
    assert out[40 + 3] == 1 and out[24:40] == B
    assert out[:24] == packet[:24] and out[40:43] == packet[40:43] and out[44:] == packet[44:]


@pytest.mark.parametrize(
    "packet, reason",
    [
        (ipv6(17, UDP), ("no-srh",)),
        (ipv6(43, field(spec.srh_bytes([A, B], 17), 2, 3) + UDP), ("no-srh",)),
        (ipv6(43, field(spec.srh_bytes([A, B], 17), 3, 0) + UDP), ("segments-left-zero",)),
        (ipv6(43, spec.srh_bytes([A, B], 17))[:70], ("no-srh",)),
    ],
    ids=["no routing header", "not an SRH", "nothing left", "cut short"],
)
def test_end_refuses(packet, reason):
    assert spec.end(packet) == (None, reason)


def test_segments_left_zero_stops_before_the_length_checks_in_the_rfc_only():
    srh = field(field(spec.srh_bytes([A, B], 17), 3, 0), 4, 5)  # SL 0, Last Entry past the length
    packet = ipv6(43, srh + UDP)
    assert spec.end(packet, deviations=spec.RFC) == (None, ("segments-left-zero",))
    assert spec.end(packet) == (None, ("no-srh",))


# -- decapsulation ------------------------------------------------------------------------------


def test_decap_strips_every_routing_header_in_front_of_the_inner_packet():
    inner = ipv6(17, UDP)
    first = field(spec.srh_bytes([A], 43), 3, 0)
    packet = ipv6(43, first + field(spec.srh_bytes([B], 41), 3, 0) + inner)
    assert spec.end_decap(packet, "End.DT6") == (inner, None)
    assert spec.seg6_action_dt6(packet) == (spec.OK, inner)


@pytest.mark.parametrize(
    "packet, reason",
    [
        (ipv6(43, spec.srh_bytes([A, B], 41) + ipv6(17, UDP)), ("decap-segments-left", "End.DT6")),
        (ipv6(17, UDP), ("decap-failed", ("no-inner-ipv6",))),
        (ipv6(41, ipv6(17, UDP))[:30], ("decap-failed", ("ipv6-short", 30))),
        (bytes([0x40]) + ipv6(41, ipv6(17, UDP))[1:], ("decap-failed", ("ipv6-version", 4))),
    ],
    ids=["segments left", "no inner packet", "short", "version 4"],
)
def test_decap_refuses(packet, reason):
    assert spec.end_decap(packet, "End.DT6") == (None, reason)
    assert spec.seg6_action_dt6(packet)[0] == (spec.OK if reason[0] == "decap-segments-left" else spec.EINVAL)


def test_decap_walks_routing_headers_by_length_in_the_rfc_only():
    inner = ipv6(17, UDP)
    type3 = field(field(spec.srh_bytes([A], 41), 2, 3), 3, 0)  # routing type 3, Segments Left 0
    packet = ipv6(43, type3 + inner)
    assert spec.end_decap(packet, "End.DX6", deviations=spec.RFC) == (inner, None)
    assert spec.end_decap(packet, "End.DX6") == (None, ("decap-failed", ("srh-routing-type", 3)))


# -- transit and binding behaviours ------------------------------------------------------------


def test_t_encaps_builds_the_outer_header():
    inner = ipv6(17, UDP)
    srh = spec.srh_bytes([A, B], 59)
    out, reason = spec.t_encaps(inner, SRC, srh, hop_limit=9)
    assert reason is None
    assert out[:8] == bytes([0x60, 0, 0, 0]) + (len(srh) + len(inner)).to_bytes(2, "big") + bytes([43, 9])
    assert out[8:24] == SRC and out[24:40] == A
    assert out[40] == 41 and out[41:40 + len(srh)] == srh[1:] and out[40 + len(srh):] == inner


def test_t_insert_moves_the_next_header_into_the_srh():
    packet = bytearray(ipv6(17, UDP, hop_limit=7))
    packet[1:4] = b"\xab\xcd\xef"  # class and flow label survive
    srh = spec.srh_bytes([A, DST], 0)
    out, reason = spec.t_insert(bytes(packet), srh)
    assert reason is None
    assert out[:4] == packet[:4] and out[6:8] == bytes([43, 7]) and out[24:40] == A
    assert int.from_bytes(out[4:6], "big") == len(UDP) + len(srh)
    assert out[40] == 17 and out[40 + len(srh):] == UDP


def test_the_payload_length_stays_within_16_bits():
    srh = spec.srh_bytes([A], 59)
    assert spec.t_encaps(bytes(0xFFFF - 24), SRC, srh)[0] is not None
    assert spec.t_encaps(bytes(0xFFFF - 23), SRC, srh) == (None, ("payload-too-long", 0x10000))
    packet = bytearray(ipv6(17, UDP))
    packet[4:6] = (0xFFFF - 23).to_bytes(2, "big")
    assert spec.t_insert(bytes(packet), srh) == (None, ("payload-too-long", 0x10000))


def test_end_b6_encaps_advances_first():
    packet = ipv6(43, spec.srh_bytes([A, B], 17) + UDP, dst=A)
    out, reason = spec.end_b6_encaps(packet, [C], SRC)
    assert reason is None and out[24:40] == C
    assert out[64:] == spec.end(packet)[0]


# -- the helper contracts -----------------------------------------------------------------------


def test_push_encap_wants_exactly_one_valid_srh():
    packet = ipv6(17, UDP)
    srh = spec.srh_bytes([A, B], 41)
    assert spec.push_encap(packet, SRC, spec.ENCAP_SEG6, srh) == (spec.OK, spec.t_encaps(packet, SRC, srh)[0])
    assert spec.push_encap(packet, SRC, spec.ENCAP_SEG6_INLINE, srh) == (spec.OK, spec.t_insert(packet, srh)[0])
    assert spec.push_encap(packet, SRC, 2, srh) == (spec.EINVAL, packet)
    assert spec.push_encap(packet, SRC, spec.ENCAP_SEG6, srh + bytes(8)) == (spec.EINVAL, packet)
    bad_tlv = spec.srh_bytes([A], 41, tlvs=b"\x0a\x07" + bytes(6))
    assert spec.push_encap(packet, SRC, spec.ENCAP_SEG6, bad_tlv) == (spec.EINVAL, packet)


def test_end_b6_param_may_run_past_the_header_only_where_kept():
    packet = ipv6(17, UDP)
    srh = spec.srh_bytes([A], 41)
    assert spec.seg6_action_b6(packet, SRC, True, srh + bytes(8))[0] == spec.OK
    assert spec.seg6_action_b6(packet, SRC, True, srh + bytes(8), deviations=spec.RFC) == (spec.EINVAL, packet)


def test_adjust_srh_grows_and_shrinks_the_tlv_area():
    packet = ipv6(43, spec.srh_bytes([A], 17, tlvs=b"\x04\x06" + bytes(6)) + UDP)
    tlv_start = 40 + 8 + 16
    code, grown = spec.adjust_srh(packet, tlv_start, 8)
    assert code == spec.OK and grown[41] == 4 and int.from_bytes(grown[4:6], "big") == len(packet) - 40 + 8
    assert grown[tlv_start : tlv_start + 8] == bytes(8) and grown[tlv_start + 8 :] == packet[tlv_start:]
    assert spec.adjust_srh(grown, tlv_start, -8) == (spec.OK, packet)
    for offset, delta in ((tlv_start, 4), (tlv_start - 1, 8), (tlv_start, -16), (tlv_start + 8, 2048)):
        assert spec.adjust_srh(packet, offset, delta) == (spec.EINVAL, packet)


def test_drop_text_words_nested_reasons():
    assert spec.drop_text(("decap-failed", ("srh-segments-left", 3, 1))) == "decap failed: segments_left 3 > last_entry 1"
    assert spec.drop_text(("action", "End.BPF", ("no-srh",))) == "End.BPF: no SRH"
    assert spec.drop_text(("decap-segments-left", "End.DX6")) == "End.DX6 requires segments_left == 0"
