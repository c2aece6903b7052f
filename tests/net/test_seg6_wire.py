"""The wire-byte SRv6 transforms against their object-based reference.

``repro.net.seg6`` and the seg6 helpers validate and splice raw header
bytes; ``reference_seg6.py`` keeps the parse → edit → pack bodies they
replaced.  Over generated headers, outer chains and packets the two must
agree byte for byte, return code for return code and drop reason for
drop reason (the ``test_end_prologue.py`` pattern).
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

import reference_seg6 as ref
from repro.ebpf import Program
from repro.ebpf.context import OFF_DATA_END, OFF_LEN
from repro.ebpf.helpers import HELPERS_BY_ID
from repro.ebpf.memory import PACKET_BASE, STACK_BASE
from repro.net import (
    SRH,
    EndDT6,
    EndDX6,
    Node,
    Packet,
    Seg6Encap,
    make_srh,
    make_udp_packet,
    pton,
    push_outer_encap,
    push_srh_inline,
)
from repro.net.seg6 import BPF_LWT_ENCAP_SEG6, BPF_LWT_ENCAP_SEG6_INLINE
from repro.net.seg6local import (
    SEG6_LOCAL_ACTION_END_B6,
    SEG6_LOCAL_ACTION_END_B6_ENCAP,
    SEG6_LOCAL_ACTION_END_DT6,
)
from repro.net.srh import (
    OFF_HDR_EXT_LEN,
    OFF_LAST_ENTRY,
    OFF_ROUTING_TYPE,
    OFF_SEGMENTS_LEFT,
    Tlv,
    srh_wire_span,
    validate_srh_bytes,
    validate_srh_wire,
)

SOURCE = pton("fc00:e::1")
_PROGRAM = Program("r0 = 0\nexit")  # only its guest address space is used

addresses = st.binary(min_size=16, max_size=16)
# Either "leave the field alone" or a replacement byte, biased to the
# small values that land near the accept/reject boundaries.
_field = st.one_of(st.none(), st.none(), st.integers(0, 12), st.integers(0, 255))


@st.composite
def raw_headers(draw):
    """A packed SRH (1-4 segments, optional TLV tail), then maybe broken."""
    n = draw(st.integers(1, 4))
    tlv_len = draw(st.sampled_from([0, 0, 8, 16]))
    srh = SRH(
        segments=[draw(addresses) for _ in range(n)],
        segments_left=draw(st.integers(0, n - 1)),
        next_header=draw(st.integers(0, 255)),
        flags=draw(st.integers(0, 255)),
        tag=draw(st.integers(0, 0xFFFF)),
        tlv_bytes=bytes([4, tlv_len - 2]) + bytes(tlv_len - 2) if tlv_len else b"",
    )
    raw = bytearray(srh.pack())
    for offset, value in (
        (OFF_ROUTING_TYPE, draw(st.one_of(st.none(), st.none(), st.integers(0, 255)))),
        (OFF_HDR_EXT_LEN, draw(_field)),
        (OFF_LAST_ENTRY, draw(_field)),
        (OFF_SEGMENTS_LEFT, draw(_field)),
    ):
        if value is not None:
            raw[offset] = value
    # hdr_len shorter or longer than the header says it is.
    resize = draw(st.one_of(st.none(), st.none(), st.integers(0, len(raw) + 24)))
    if resize is not None:
        raw = (raw + bytes(24))[:resize]
    return bytes(raw)


@st.composite
def packets(draw):
    """An IPv6/UDP packet of 48-1500 bytes, or fewer than 40 bytes of one."""
    size = draw(st.one_of(st.integers(48, 160), st.integers(48, 1500)))
    data = bytearray(
        make_udp_packet(draw(addresses), draw(addresses), 1111, 2222, bytes(size - 48)).data
    )
    # Traffic class and flow label must survive an inline insertion.
    data[0:4] = bytes([0x60 | draw(st.integers(0, 15))]) + draw(st.binary(min_size=3, max_size=3))
    if draw(st.integers(0, 9)) == 0:
        data[0] = (draw(st.sampled_from([0, 4, 15])) << 4) | (data[0] & 0x0F)
    if draw(st.integers(0, 9)) == 0:
        del data[draw(st.integers(0, 39)) :]
    return bytes(data)


@st.composite
def outer_chains(draw):
    """Outer IPv6 header + 0-2 routing headers + an inner payload, maybe broken."""
    inner = bytes(make_udp_packet(draw(addresses), draw(addresses), 1, 2, draw(st.binary(max_size=64))).data)
    inner_proto = draw(st.sampled_from([41, 41, 41, 41, 17, 59, 43]))
    headers = []
    for _ in range(draw(st.integers(0, 2))):
        n = draw(st.integers(1, 3))
        srh = SRH(
            segments=[draw(addresses) for _ in range(n)],
            segments_left=draw(st.sampled_from([0, 0, 0, n - 1])),
            tlv_bytes=bytes([4, 6]) + bytes(6) if draw(st.booleans()) else b"",
        )
        raw = bytearray(srh.pack())
        if draw(st.integers(0, 3)) == 0:
            offset = draw(
                st.sampled_from([OFF_ROUTING_TYPE, OFF_HDR_EXT_LEN, OFF_LAST_ENTRY, OFF_SEGMENTS_LEFT])
            )
            raw[offset] = draw(st.one_of(st.integers(0, 8), st.integers(0, 255)))
        headers.append(raw)
    protos = [43] * len(headers) + [inner_proto]
    for raw, proto in zip(headers, protos[1:]):
        raw[0] = proto
    body = b"".join(headers) + inner
    version = draw(st.sampled_from([6, 6, 6, 6, 6, 4, 0]))
    outer = struct.pack(">IHBB", version << 28, len(body), protos[0], 64) + draw(addresses) + draw(addresses)
    data = outer + body
    keep = draw(st.one_of(st.none(), st.none(), st.none(), st.integers(7, len(data))))
    return data if keep is None else data[:keep]


def helper_context(packet: bytes, hook: str):
    node = Node("N")
    node.add_address(SOURCE)
    hctx = _PROGRAM.make_context(packet)
    hctx.node, hctx.hook = node, hook
    return hctx


def packet_state(hctx) -> tuple[bytes, int, int]:
    """The guest packet with the ctx fields that must track its length."""
    ctx = hctx.skb.ctx_region.data
    return (
        bytes(hctx.skb.packet_region.data),
        struct.unpack_from("<I", ctx, OFF_LEN)[0],
        struct.unpack_from("<Q", ctx, OFF_DATA_END)[0] - PACKET_BASE,
    )


def call_helper(helper_id: int, packet: bytes, hook: str, arg: int, buffer: bytes):
    """Run one seg6 helper with ``buffer`` on the stack; (code, hctx)."""
    hctx = helper_context(packet, hook)
    if buffer:
        hctx.mem.write_bytes(STACK_BASE, buffer)
    code = HELPERS_BY_ID[helper_id](hctx, hctx.skb.ctx_addr, arg, STACK_BASE, len(buffer))
    return code, hctx


# --- bpf_lwt_push_encap -----------------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(
    raw=raw_headers(),
    packet=packets(),
    encap_type=st.sampled_from([BPF_LWT_ENCAP_SEG6, BPF_LWT_ENCAP_SEG6_INLINE, 2]),
)
def test_lwt_push_encap_matches_reference(raw, packet, encap_type):
    expected_code, expected_packet = ref.lwt_push_encap(packet, SOURCE, encap_type, raw)
    code, hctx = call_helper(73, packet, "lwt_out", encap_type, raw)
    assert code == expected_code
    assert packet_state(hctx) == (expected_packet, len(expected_packet), len(expected_packet))


def _einval_case(case: str, encap_type: int) -> tuple[bytes, bytes]:
    """(packet, header) for one ``lwt_push_encap`` outcome; ``ok`` succeeds."""
    packet = bytearray(make_udp_packet("fc00:1::1", "fc00:2::2", 1111, 2222, bytes(64)).data)
    raw = make_srh(["fc00:7::1", "fc00:2::2"], next_header=41).pack()
    if case == "bad SRH":
        raw = raw[:2] + b"\x03" + raw[3:]  # routing type 3
    elif case == "hdr_len mismatch":
        raw += bytes(8)
    elif case == "payload > 65535":
        if encap_type == BPF_LWT_ENCAP_SEG6:
            packet += bytes(0xFFFF - len(packet) - len(raw) + 1)  # the whole packet is the payload
        else:
            packet[4:6] = (0xFFFF - len(raw) + 1).to_bytes(2, "big")  # the header's own length
    return bytes(packet), raw


@pytest.mark.parametrize("case", ["ok", "bad SRH", "hdr_len mismatch", "payload > 65535"])
@pytest.mark.parametrize("encap_type", [BPF_LWT_ENCAP_SEG6, BPF_LWT_ENCAP_SEG6_INLINE], ids=["encap", "inline"])
def test_lwt_push_encap_edits_the_buffer_where_it_lies(case, encap_type):
    """Success grows the one buffer; each -EINVAL leaves bytes, ``len`` and ``data_end`` as they were."""
    packet, raw = _einval_case(case, encap_type)
    hctx = helper_context(packet, "lwt_out")
    buffer = hctx.skb.packet_region.data
    hctx.mem.write_bytes(STACK_BASE, raw)
    code = HELPERS_BY_ID[73](hctx, hctx.skb.ctx_addr, encap_type, STACK_BASE, len(raw))
    assert hctx.skb.packet_region.data is buffer
    if case == "ok":
        assert code == ref.OK
        expected = ref.lwt_push_encap(packet, SOURCE, encap_type, raw)[1]
        assert packet_state(hctx) == (expected, len(expected), len(expected))
        assert len(expected) == len(packet) + len(raw) + (40 if encap_type == BPF_LWT_ENCAP_SEG6 else 0)
    else:
        assert code == ref.ERR
        assert packet_state(hctx) == (packet, len(packet), len(packet))


@settings(max_examples=300, deadline=None)
@given(
    raw=raw_headers(),
    packet=packets(),
    action=st.sampled_from([SEG6_LOCAL_ACTION_END_B6, SEG6_LOCAL_ACTION_END_B6_ENCAP]),
)
def test_lwt_seg6_action_b6_matches_reference(raw, packet, action):
    """End.B6 / End.B6.Encaps take the header's own length, not ``param_len``."""
    try:
        srh = SRH.parse(raw)
        if action == SEG6_LOCAL_ACTION_END_B6:
            expected = ref.OK, ref.push_srh_inline(packet, srh)
        else:
            expected = ref.OK, ref.push_outer_encap(packet, SOURCE, srh)
    except ValueError:
        expected = ref.ERR, packet
    code, hctx = call_helper(76, packet, "seg6local", action, raw)
    assert (code, packet_state(hctx)[0]) == expected
    assert packet_state(hctx)[1:] == (len(expected[1]), len(expected[1]))


# --- bpf_lwt_seg6_adjust_srh ------------------------------------------------------------


def srv6_packet(nsegs: int, tlv_len: int, payload_length: int | None = None) -> bytes:
    """IPv6 + ``nsegs``-segment SRH with ``tlv_len`` bytes of PadN TLVs + 16 B payload."""
    sizes = [min(tlv_len - at, 256) for at in range(0, tlv_len, 256)]  # a PadN holds at most 2 + 254
    tlvs = b"".join(bytes([4, size - 2]) + bytes(size - 2) for size in sizes)
    srh = SRH(segments=[bytes([0xFC, i]) + bytes(14) for i in range(nsegs)], segments_left=nsegs - 1, tlv_bytes=tlvs)
    data = bytearray(push_srh_inline(make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, bytes(8)).data, srh))
    if payload_length is not None:
        data[4:6] = payload_length.to_bytes(2, "big")
    return bytes(data)


def check_adjust_srh(packet: bytes, offset: int, delta: int) -> int:
    """Run the helper; packet bytes, ctx ``len`` and ``data_end`` must be the reference's."""
    expected_code, expected_packet = ref.adjust_srh(packet, offset, delta)
    hctx = helper_context(packet, "seg6local")
    buffer = hctx.skb.packet_region.data
    code = HELPERS_BY_ID[75](hctx, hctx.skb.ctx_addr, offset & (2**64 - 1), delta & (2**64 - 1))
    assert code == expected_code
    assert packet_state(hctx) == (expected_packet, len(expected_packet), len(expected_packet))
    assert hctx.skb.packet_region.data is buffer  # resized where it lies, never rebound
    assert bool(hctx.metadata.get("srh_modified")) is (code == ref.OK and delta != 0)
    return code


# nsegs=2, 16 B of TLVs: TLV area [80, 96).  One case per -EINVAL class.
@pytest.mark.parametrize(
    "packet, offset, delta",
    [
        (srv6_packet(2, 16), 80, 4),
        (srv6_packet(2, 16), 80, -12),
        (srv6_packet(2, 16), 79, 8),
        (srv6_packet(2, 16), 97, 8),
        (srv6_packet(2, 16), -8, 8),
        (srv6_packet(2, 16), 88, -16),
        (srv6_packet(2, 16), 80, -24),
        (srv6_packet(2, 0), 80, -8),
        (srv6_packet(1, 2016), 64, 16),
        (srv6_packet(1, 2016), 2080, 1 << 40),
        (srv6_packet(2, 16, payload_length=0xFFFC), 96, 8),
        (srv6_packet(2, 16, payload_length=4), 80, -8),
    ],
    ids=[
        "delta % 8", "negative delta % 8", "offset before the TLV area", "offset past the SRH",
        "negative offset", "shrink past tlv_end", "shrink below the segment list",
        "shrink with no TLV area", "hdr_ext_len > 255", "huge delta", "payload length > 65535",
        "payload length < 0",
    ],
)  # fmt: skip
def test_adjust_srh_einval_leaves_packet_and_ctx_untouched(packet, offset, delta):
    assert check_adjust_srh(packet, offset, delta) == ref.ERR


@settings(max_examples=500, deadline=None)
@given(
    shape=st.sampled_from([(1, 0), (2, 8), (2, 24), (3, 16), (1, 2008), (1, 2016)]),
    payload_length=st.one_of(st.none(), st.none(), st.sampled_from([0, 4, 8, 0xFFF0, 0xFFF8, 0xFFFF])),
    data=st.data(),
    eighths=st.integers(-5, 5).filter(bool),
    delta=st.one_of(st.none(), st.none(), st.integers(-40, 40), st.sampled_from([2048, -2048])),
)
def test_adjust_srh_matches_reference(shape, payload_length, data, eighths, delta):
    nsegs, tlv_len = shape
    packet = srv6_packet(nsegs, tlv_len, payload_length)
    # Mostly inside the TLV area with a multiple of 8, so successes are as common as refusals.
    at = data.draw(st.one_of(st.integers(0, tlv_len), st.integers(0, tlv_len), st.integers(-17, tlv_len + 17)))
    check_adjust_srh(packet, 40 + 8 + 16 * nsegs + at, 8 * eighths if delta is None else delta)


# --- §3.1 re-validation on wire bytes ---------------------------------------------------------


def validation_verdicts(raw: bytes) -> tuple[str | None, str | None]:
    """(object-level, wire-level) reason for ``raw``, None where it validates."""
    try:
        validate_srh_bytes(raw)
        expected = None
    except ValueError as exc:
        expected = str(exc)
    # The wire validator reads the header where it lies in a packet, and
    # says the same when handed the span the datapath located first.
    data = bytes(40) + raw
    got = validate_srh_wire(data, 40)
    try:
        assert validate_srh_wire(data, 40, srh_wire_span(data, 40)) == got
    except ValueError:
        pass  # no span: the datapath does not re-validate
    return expected, got


@st.composite
def raw_headers_with_tlvs(draw):
    """:func:`raw_headers` with a real TLV tail whose type / length bytes get hit too."""
    raw = bytearray(draw(raw_headers()))
    tail = b"".join(
        draw(st.sampled_from([b"\x00", b"\x04\x00", b"\x04\x02\x00\x00", b"\x0a\x06abcdef", b"\x80\x09" + bytes(9)]))
        for _ in range(draw(st.integers(0, 4)))
    )
    tail += bytes(-len(tail) % 8)
    if tail and len(raw) >= 8 and draw(st.booleans()):
        raw += tail
        raw[OFF_HDR_EXT_LEN] = min(255, raw[OFF_HDR_EXT_LEN] + len(tail) // 8)
    for _ in range(draw(st.integers(0, 2))):
        if len(raw) > 8:
            raw[draw(st.integers(8, len(raw) - 1))] = draw(st.one_of(st.integers(0, 12), st.integers(0, 255)))
    return bytes(raw)


@settings(max_examples=1500, deadline=None)
@given(raw=raw_headers_with_tlvs())
def test_validate_srh_wire_matches_object_validation(raw):
    expected, got = validation_verdicts(raw)
    assert got == expected


# --- decapsulation ----------------------------------------------------------------------------


@settings(max_examples=600, deadline=None)
@given(data=outer_chains())
def test_end_decap_matches_reference(data):
    node = Node("N")
    for kind, action in (("End.DT6", EndDT6(table_id=254)), ("End.DX6", EndDX6(nh6="fc00::66"))):
        pkt = Packet(data)
        disposition = action.process(pkt, node)
        assert (disposition.action, disposition.reason, bytes(pkt.data)) == ref.end_decap(kind, data)
        if disposition.action == "forward":
            assert (disposition.table_id, disposition.nh6) in ((254, None), (None, pton("fc00::66")))

    expected_code, expected_packet = ref.action_end_dt6(data)
    code, hctx = call_helper(76, data, "seg6local", SEG6_LOCAL_ACTION_END_DT6, (254).to_bytes(4, "little"))
    assert code == expected_code
    assert packet_state(hctx) == (expected_packet, len(expected_packet), len(expected_packet))
    assert hctx.metadata.get("redirect_table") == (254 if code == ref.OK else None)


# --- transit behaviours --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    segments=st.lists(addresses, min_size=1, max_size=4),
    mode=st.sampled_from(["encap", "inline"]),
    packet=packets(),
)
def test_seg6encap_apply_matches_reference(segments, mode, packet):
    encap = Seg6Encap(segments=list(segments), mode=mode)
    try:
        expected = ref.seg6encap_apply(segments, mode, packet, SOURCE)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            encap.apply(packet, SOURCE)
        assert str(caught.value) == str(exc)
        return
    assert encap.apply(packet, SOURCE) == expected
    assert encap.apply(packet, SOURCE) == expected  # nothing consumed by the first call


@settings(max_examples=200, deadline=None)
@given(
    path=st.lists(addresses, min_size=1, max_size=4),
    tlv_len=st.sampled_from([0, 6, 14]),
    tag=st.integers(0, 0xFFFF),
    packet=packets().filter(lambda data: len(data) >= 40 and data[0] >> 4 == 6),
)
def test_object_adapters_match_reference(path, tlv_len, tag, packet):
    """``push_outer_encap`` / ``push_srh_inline`` on an SRH object, TLVs included."""

    def srh():
        tlvs = [Tlv(0x80, bytes(tlv_len))] if tlv_len else None
        return make_srh(list(path), next_header=59, tlvs=tlvs, tag=tag)

    assert push_outer_encap(packet, SOURCE, srh(), hop_limit=9) == ref.push_outer_encap(
        packet, SOURCE, srh(), hop_limit=9
    )
    assert push_srh_inline(packet, srh()) == ref.push_srh_inline(packet, srh())
