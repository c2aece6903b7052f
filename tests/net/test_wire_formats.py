"""Wire formats: addresses, checksums, IPv6, UDP, TCP, ICMPv6."""

import pytest
from hypothesis import given, strategies as st

from repro.net import (
    ICMPV6_ECHO_REQUEST,
    IPv6Header,
    Icmpv6Message,
    PROTO_UDP,
    TcpHeader,
    UdpHeader,
    build_tcp,
    build_udp,
    echo_reply,
    ntop,
    parse_prefix,
    pton,
    time_exceeded,
)
from repro.net.checksum import l4_checksum, ones_complement_sum, verify_l4
from repro.net.icmpv6 import MAX_ERROR_PAYLOAD, build_icmpv6, dest_unreachable


# --- addresses -------------------------------------------------------------


def test_pton_ntop_roundtrip():
    assert ntop(pton("fc00::1")) == "fc00::1"
    assert ntop(pton("2001:db8:0:0:0:0:0:1")) == "2001:db8::1"


def test_pton_length():
    assert len(pton("::")) == 16


def test_ntop_rejects_wrong_length():
    with pytest.raises(ValueError):
        ntop(b"\x00" * 4)


def test_parse_prefix():
    prefix, length = parse_prefix("fc00:1::/64")
    assert length == 64
    assert prefix == pton("fc00:1::")


def test_parse_prefix_normalises_host_bits():
    prefix, length = parse_prefix("fc00:1::42/64")
    assert prefix == pton("fc00:1::")


# --- checksum -----------------------------------------------------------------


def _reference_sum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


@given(data=st.binary(max_size=200))
def test_fast_checksum_matches_reference(data):
    assert ones_complement_sum(data) == _reference_sum(data)


@given(payload=st.binary(max_size=100))
def test_udp_checksum_verifies(payload):
    src, dst = pton("fc00::1"), pton("fc00::2")
    datagram = build_udp(src, dst, 1111, 2222, payload)
    assert verify_l4(src, dst, PROTO_UDP, datagram)


def test_udp_zero_checksum_becomes_ffff():
    # RFC 8200: UDP over IPv6 must never carry checksum 0.
    src, dst = pton("fc00::1"), pton("fc00::2")
    for port in range(200):
        datagram = build_udp(src, dst, port, port, bytes(2))
        header = UdpHeader.parse(datagram)
        assert header.checksum != 0


def test_corrupted_payload_fails_verification():
    src, dst = pton("fc00::1"), pton("fc00::2")
    datagram = bytearray(build_udp(src, dst, 1111, 2222, b"hello"))
    datagram[-1] ^= 0xFF
    assert not verify_l4(src, dst, PROTO_UDP, bytes(datagram))


def test_l4_checksum_depends_on_pseudo_header():
    payload = b"\x00" * 8
    a = l4_checksum(pton("fc00::1"), pton("fc00::2"), 17, payload)
    b = l4_checksum(pton("fc00::1"), pton("fc00::3"), 17, payload)
    assert a != b


# --- IPv6 header -------------------------------------------------------------------


def test_ipv6_pack_parse_roundtrip():
    header = IPv6Header(
        src="fc00::1",
        dst="fc00::2",
        next_header=17,
        payload_length=100,
        hop_limit=33,
        traffic_class=0x12,
        flow_label=0xABCDE,
    )
    parsed = IPv6Header.parse(header.pack())
    assert parsed == header


def test_ipv6_header_is_40_bytes():
    assert len(IPv6Header(src="::", dst="::").pack()) == 40


def test_ipv6_rejects_short_buffer():
    with pytest.raises(ValueError, match="short"):
        IPv6Header.parse(b"\x60" + b"\x00" * 10)


def test_ipv6_rejects_wrong_version():
    raw = bytearray(IPv6Header(src="::", dst="::").pack())
    raw[0] = 0x40
    with pytest.raises(ValueError, match="version"):
        IPv6Header.parse(bytes(raw))


def test_flow_label_bounds():
    with pytest.raises(ValueError):
        IPv6Header(src="::", dst="::", flow_label=1 << 20)


@given(
    hop=st.integers(0, 255),
    label=st.integers(0, (1 << 20) - 1),
    tclass=st.integers(0, 255),
    plen=st.integers(0, 0xFFFF),
)
def test_ipv6_roundtrip_property(hop, label, tclass, plen):
    header = IPv6Header(
        src="fc00::1",
        dst="fc00::2",
        hop_limit=hop,
        flow_label=label,
        traffic_class=tclass,
        payload_length=plen,
    )
    assert IPv6Header.parse(header.pack()) == header


# --- TCP ---------------------------------------------------------------------------


def test_tcp_pack_parse_roundtrip():
    header = TcpHeader(src_port=80, dst_port=443, seq=12345, ack=999, flags=0x10)
    parsed = TcpHeader.parse(build_tcp(pton("fc00::1"), pton("fc00::2"), header))
    assert (parsed.src_port, parsed.dst_port) == (80, 443)
    assert parsed.seq == 12345
    assert parsed.ack == 999


def test_tcp_checksum_valid():
    src, dst = pton("fc00::1"), pton("fc00::2")
    segment = build_tcp(src, dst, TcpHeader(1, 2, 0, 0), b"data")
    assert verify_l4(src, dst, 6, segment)


def test_tcp_seq_wraps_in_wire_format():
    header = TcpHeader(1, 2, seq=1 << 33, ack=0)
    parsed = TcpHeader.parse(header.pack())
    assert parsed.seq == (1 << 33) % (1 << 32)


# --- ICMPv6 --------------------------------------------------------------------------


def test_icmp_roundtrip():
    message = Icmpv6Message(ICMPV6_ECHO_REQUEST, body=b"\x00\x07\x00\x03ping")
    raw = build_icmpv6(pton("fc00::1"), pton("fc00::2"), message)
    parsed = Icmpv6Message.parse(raw)
    assert parsed.msg_type == 128
    assert parsed.body[4:] == b"ping"


def test_echo_reply_mirrors_body():
    request = Icmpv6Message(ICMPV6_ECHO_REQUEST, body=b"\x00\x07\x00\x03data")
    reply = echo_reply(request)
    assert reply.msg_type == 129
    assert reply.body == request.body


def test_time_exceeded_quotes_offender():
    offender = bytes(range(64))
    message = time_exceeded(offender)
    assert message.msg_type == 3
    assert message.body[4:] == offender


def test_time_exceeded_truncates_large_packets():
    offender = bytes(2000)
    message = time_exceeded(offender)
    assert len(message.body) == 4 + MAX_ERROR_PAYLOAD


def test_dest_unreachable_quotes_offender_with_code():
    offender = bytes(range(64))
    message = dest_unreachable(offender, code=4)
    assert (message.msg_type, message.code) == (1, 4)
    assert message.body == bytes(4) + offender
    assert len(dest_unreachable(bytes(2000)).body) == 4 + MAX_ERROR_PAYLOAD


def test_error_vs_info_classification():
    # RFC 4443 §2.1: error messages have types 0-127, informational 128-255.
    assert time_exceeded(b"").msg_type < 128
    assert dest_unreachable(b"").msg_type < 128
    request = Icmpv6Message(ICMPV6_ECHO_REQUEST, body=b"\x00\x01\x00\x01")
    assert request.msg_type >= 128
    assert echo_reply(request).msg_type >= 128

