"""The SRv6 eBPF helpers of §3.1: restrictions and semantics."""

import pytest

from repro.ebpf import Program
from repro.net import (
    EndBPF,
    IPv6Header,
    Node,
    Packet,
    SEG6LOCAL_HELPERS,
    SRH,
    make_srv6_udp_packet,
    make_udp_packet,
    ntop,
    pton,
)

SEG = "fc00:e::100"


@pytest.fixture
def router():
    node = Node("R")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00:e::1")
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1")
    return node


def run_end_bpf(router, asm, pkt, jit=True):
    prog = Program(asm, jit=jit, allowed_helpers=SEG6LOCAL_HELPERS)
    router.add_route(f"{SEG}/128", encap=EndBPF(prog))
    router.receive(pkt, router.devices["eth0"])
    buf = router.devices["eth1"].tx_buffer
    return buf.pop() if buf else None


def srv6_pkt(**kwargs):
    return make_srv6_udp_packet("fc00:1::1", [SEG, "fc00:2::2"], 1111, 2222, b"y" * 32, **kwargs)


# --- lwt_seg6_store_bytes ------------------------------------------------------


STORE_FLAGS = """
    r6 = r1
    r2 = 0xab
    *(u8 *)(r10 - 1) = r2
    r1 = r6
    r2 = 45                    ; flags byte (40 + 5)
    r3 = r10
    r3 += -1
    r4 = 1
    call lwt_seg6_store_bytes
    r0 = 0
    exit
"""


def test_store_bytes_flags_field(router):
    out = run_end_bpf(router, STORE_FLAGS, srv6_pkt())
    srh, _ = out.srh()
    assert srh.flags == 0xAB


def run_store_at(router, offset, length=1):
    """Return the helper's return code for a write at (offset, length)."""
    asm = f"""
    r6 = r1
    r2 = 0
    *(u64 *)(r10 - 8) = r2
    r1 = r6
    r2 = {offset}
    r3 = r10
    r3 += -8
    r4 = {length}
    call lwt_seg6_store_bytes
    if r0 == 0 goto ok
    r0 = 2
    exit
    ok:
    r0 = 0
    exit
    """
    out = run_end_bpf(router, asm, srv6_pkt())
    return out is not None  # BPF_DROP (=2) means the helper refused


def test_store_bytes_rejects_segments_left(router):
    assert not run_store_at(router, 43)  # segments_left byte


def test_store_bytes_rejects_hdr_ext_len(router):
    assert not run_store_at(router, 41)


def test_store_bytes_rejects_segment_list(router):
    assert not run_store_at(router, 48, 8)  # inside the segment list


def test_store_bytes_accepts_tag(router):
    assert run_store_at(router, 46, 2)


def test_store_bytes_rejects_straddling_write(router):
    # flags..tag is editable (45..48) but 47..49 spills into the segments.
    assert not run_store_at(router, 47, 2)


def test_store_bytes_rejects_past_srh_end(router):
    assert not run_store_at(router, 80, 8)  # beyond the (TLV-less) SRH


# --- lwt_seg6_adjust_srh ----------------------------------------------------------


GROW_AND_FILL = """
    r6 = r1
    r1 = r6
    r2 = 80                    ; end of the 2-segment SRH (40 + 8 + 32)
    r3 = 8
    call lwt_seg6_adjust_srh
    if r0 != 0 goto fail
    *(u8 *)(r10 - 8) = 10
    *(u8 *)(r10 - 7) = 6
    *(u32 *)(r10 - 6) = 0
    *(u16 *)(r10 - 2) = 0
    r1 = r6
    r2 = 80
    r3 = r10
    r3 += -8
    r4 = 8
    call lwt_seg6_store_bytes
    if r0 != 0 goto fail
    r0 = 0
    exit
    fail:
    r0 = 2
    exit
"""


def test_adjust_srh_grows_tlv_area(router):
    pkt = srv6_pkt()
    before_len = len(pkt.data)
    out = run_end_bpf(router, GROW_AND_FILL, pkt)
    assert out is not None
    assert len(out.data) == before_len + 8
    srh, _ = out.srh()
    assert srh.hdr_ext_len == 5
    assert [tlv.tlv_type for tlv in srh.tlvs] == [10]
    assert IPv6Header.parse(out.data).payload_length == before_len - 40 + 8
    # Inner UDP still intact after the TLV area grew.
    assert out.udp_payload() == b"y" * 32


def test_adjust_srh_without_fill_drops_packet(router):
    # Grown space left as zero bytes is an invalid TLV area -> the packet
    # fails the post-run SRH validation and must be dropped.
    asm = """
    r6 = r1
    r1 = r6
    r2 = 80
    r3 = 8
    call lwt_seg6_adjust_srh
    r0 = 0
    exit
    """
    out = run_end_bpf(router, asm, srv6_pkt())
    # Zero-filled TLV area parses as Pad1s, which *is* valid; ensure
    # the SRH was revalidated rather than rejected.
    assert out is not None
    srh, _ = out.srh()
    assert len(srh.tlv_bytes) == 8


def adjust(router, offset, delta):
    asm = f"""
    r6 = r1
    r1 = r6
    r2 = {offset}
    r3 = {delta}
    call lwt_seg6_adjust_srh
    if r0 == 0 goto ok
    r0 = 2
    exit
    ok:
    r0 = 0
    exit
    """
    return run_end_bpf(router, asm, srv6_pkt()) is not None


def test_adjust_srh_rejects_unaligned_delta(router):
    assert not adjust(router, 80, 4)


def test_adjust_srh_rejects_offset_before_tlv_area(router):
    assert not adjust(router, 48, 8)


def test_adjust_srh_rejects_shrink_below_segments(router):
    assert not adjust(router, 80, -8)


def test_adjust_srh_shrink_removes_tlvs(router):
    from repro.net.srh import Tlv

    pkt = make_srv6_udp_packet(
        "fc00:1::1", [SEG, "fc00:2::2"], 1, 2, b"z",
        tlvs=[Tlv(10, b"abcdef")],
    )
    asm = """
    r6 = r1
    r1 = r6
    r2 = 80
    r3 = -8
    call lwt_seg6_adjust_srh
    if r0 == 0 goto ok
    r0 = 2
    exit
    ok:
    r0 = 0
    exit
    """
    out = run_end_bpf(router, asm, pkt)
    assert out is not None
    srh, _ = out.srh()
    assert srh.tlv_bytes == b""


# --- lwt_seg6_action ------------------------------------------------------------------


END_X_ACTION = """
    r6 = r1
    *(u8 *)(r10 - 16) = 0xfc
    *(u8 *)(r10 - 15) = 0
    *(u32 *)(r10 - 14) = 0
    *(u32 *)(r10 - 10) = 0
    *(u32 *)(r10 - 6) = 0
    *(u16 *)(r10 - 2) = 0
    *(u8 *)(r10 - 1) = 0x77
    r1 = r6
    r2 = 2                     ; SEG6_LOCAL_ACTION_END_X
    r3 = r10
    r3 += -16
    r4 = 16
    call lwt_seg6_action
    if r0 != 0 goto fail
    r0 = 7                     ; BPF_REDIRECT
    exit
    fail:
    r0 = 2
    exit
"""


def test_action_end_x_redirects(router):
    router.add_route("fc00::77/128", via="fc00::77", dev="eth1")
    out = run_end_bpf(router, END_X_ACTION, srv6_pkt())
    assert out is not None
    # Packet still addressed to the next segment; it left via the
    # forced nexthop's route.
    assert out.dst == pton("fc00:2::2")


def test_action_end_t_uses_table(router):
    router.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1", table_id=77)
    asm = """
    r6 = r1
    *(u32 *)(r10 - 4) = 77
    r1 = r6
    r2 = 3                     ; SEG6_LOCAL_ACTION_END_T
    r3 = r10
    r3 += -4
    r4 = 4
    call lwt_seg6_action
    if r0 != 0 goto fail
    r0 = 7
    exit
    fail:
    r0 = 2
    exit
    """
    # Remove the main-table route: only table 77 can forward this.
    router.main_table().remove(pton("fc00:2::"), 64)
    out = run_end_bpf(router, asm, srv6_pkt())
    assert out is not None


def test_action_end_dt6_decapsulates(router):
    from repro.net import make_srh, push_outer_encap

    inner = bytes(make_udp_packet("fc00:1::1", "fc00:2::2", 7, 8, b"inner").data)
    srh = make_srh([SEG, "fc00:2::2"], next_header=41)
    # Hand-build: outer dst = SEG (current segment), one more segment after.
    outer = push_outer_encap(inner, pton("fc00::9"), srh)
    pkt = Packet(outer)
    asm = """
    r6 = r1
    *(u32 *)(r10 - 4) = 254
    r1 = r6
    r2 = 7                     ; SEG6_LOCAL_ACTION_END_DT6
    r3 = r10
    r3 += -4
    r4 = 4
    call lwt_seg6_action
    if r0 != 0 goto fail
    r0 = 7
    exit
    fail:
    r0 = 2
    exit
    """
    out = run_end_bpf(router, asm, pkt)
    assert out is not None
    assert out.srh() is None
    assert out.udp_payload() == b"inner"


def test_action_bad_param_size_fails(router):
    asm = """
    r6 = r1
    *(u32 *)(r10 - 4) = 0
    r1 = r6
    r2 = 2                     ; END_X wants 16 bytes, give 4
    r3 = r10
    r3 += -4
    r4 = 4
    call lwt_seg6_action
    if r0 == 0 goto ok
    r0 = 2
    exit
    ok:
    r0 = 0
    exit
    """
    assert run_end_bpf(router, asm, srv6_pkt()) is None


def test_action_unknown_action_fails(router):
    asm = """
    r6 = r1
    *(u32 *)(r10 - 4) = 0
    r1 = r6
    r2 = 99
    r3 = r10
    r3 += -4
    r4 = 4
    call lwt_seg6_action
    if r0 == 0 goto ok
    r0 = 2
    exit
    ok:
    r0 = 0
    exit
    """
    assert run_end_bpf(router, asm, srv6_pkt()) is None


# --- get_ecmp_nexthops -------------------------------------------------------------------


def test_ecmp_helper_counts_and_addresses(router):
    from repro.net import Nexthop

    router.add_route(
        "fc00:9::/64",
        nexthops=[Nexthop(via="fc00::a", dev="eth1"), Nexthop(via="fc00::b", dev="eth1")],
    )
    asm = """
    r6 = r1
    ; query address fc00:9::1 on the stack
    *(u8 *)(r10 - 16) = 0xfc
    *(u8 *)(r10 - 15) = 0
    *(u8 *)(r10 - 14) = 0
    *(u8 *)(r10 - 13) = 9
    *(u32 *)(r10 - 12) = 0
    *(u32 *)(r10 - 8) = 0
    *(u16 *)(r10 - 4) = 0
    *(u8 *)(r10 - 2) = 0
    *(u8 *)(r10 - 1) = 1
    r1 = r6
    r2 = r10
    r2 += -16
    r3 = r10
    r3 += -80
    r4 = 64
    call get_ecmp_nexthops
    exit
    """
    prog = Program(asm, allowed_helpers=SEG6LOCAL_HELPERS)
    hctx = prog.make_context(bytes(srv6_pkt().data))
    hctx.node = router
    hctx.hook = "seg6local"
    assert prog.run(hctx) == 2


def test_ecmp_helper_respects_buffer_size(router):
    from repro.net import Nexthop

    router.add_route(
        "fc00:9::/64",
        nexthops=[
            Nexthop(via="fc00::a", dev="eth1"),
            Nexthop(via="fc00::b", dev="eth1"),
            Nexthop(via="fc00::c", dev="eth1"),
        ],
    )
    asm = """
    r6 = r1
    *(u8 *)(r10 - 16) = 0xfc
    *(u8 *)(r10 - 15) = 0
    *(u8 *)(r10 - 14) = 0
    *(u8 *)(r10 - 13) = 9
    *(u32 *)(r10 - 12) = 0
    *(u32 *)(r10 - 8) = 0
    *(u32 *)(r10 - 4) = 0
    r1 = r6
    r2 = r10
    r2 += -16
    r3 = r10
    r3 += -48
    r4 = 32
    call get_ecmp_nexthops
    exit
    """
    prog = Program(asm, allowed_helpers=SEG6LOCAL_HELPERS)
    hctx = prog.make_context(bytes(srv6_pkt().data))
    hctx.node = router
    hctx.hook = "seg6local"
    assert prog.run(hctx) == 2  # only two fit in 32 bytes


# --- hook restrictions ---------------------------------------------------------------------


def test_push_encap_not_on_seg6local_hook(router):
    from repro.ebpf import VerifierError

    asm = """
    r1 = r1
    *(u64 *)(r10 - 8) = 0
    r2 = 0
    r3 = r10
    r3 += -8
    r4 = 8
    call lwt_push_encap
    r0 = 0
    exit
    """
    with pytest.raises(VerifierError, match="not available"):
        Program(asm, allowed_helpers=SEG6LOCAL_HELPERS)


def test_srh_modification_flag_set(router):
    prog = Program(STORE_FLAGS, allowed_helpers=SEG6LOCAL_HELPERS)
    hctx = prog.make_context(bytes(srv6_pkt().data))
    hctx.hook = "seg6local"
    prog.run(hctx)
    assert hctx.metadata.get("srh_modified") is True


# --- a payload length past 65 535 ----------------------------------------------------------------

EINVAL = -22 & 0xFFFFFFFFFFFFFFFF

# A one-segment SRH (24 bytes) to fc00::a on the stack, then the call
# under test; the helper's return code is the program's.
ONE_SEGMENT_SRH = """
    r6 = r1
    *(u8 *)(r10 - 24) = 41      ; next header
    *(u8 *)(r10 - 23) = 2       ; hdr_ext_len
    *(u8 *)(r10 - 22) = 4       ; routing type
    *(u8 *)(r10 - 21) = 0       ; segments_left
    *(u32 *)(r10 - 20) = 0      ; last_entry, flags, tag
    *(u64 *)(r10 - 16) = 0xfc
    *(u64 *)(r10 - 8) = 0
    *(u8 *)(r10 - 1) = 0x0a
    r1 = r6
    r2 = {arg}
    r3 = r10
    r3 += -24
    r4 = 24
    call {helper}
    exit
"""


def run_returning_helper_code(router, helper, arg, hook, allowed, pkt):
    prog = Program(ONE_SEGMENT_SRH.format(helper=helper, arg=arg), allowed_helpers=allowed)
    hctx = prog.make_context(bytes(pkt.data))
    hctx.node, hctx.hook = router, hook
    return prog.run(hctx), bytes(hctx.skb.packet_region.data)


@pytest.mark.parametrize("encap_type, payload", [(0, 65492), (1, 65535 - 8)], ids=["encap", "inline"])
def test_push_encap_oversize_is_einval(router, encap_type, payload):
    from repro.net import LWT_HELPERS

    pkt = make_udp_packet("fc00:1::1", "fc00:2::2", 1111, 2222, bytes(payload))
    code, after = run_returning_helper_code(
        router, "lwt_push_encap", encap_type, "lwt_out", LWT_HELPERS, pkt
    )
    assert code == EINVAL
    assert after == bytes(pkt.data)
    small = make_udp_packet("fc00:1::1", "fc00:2::2", 1111, 2222, b"fits")
    code, after = run_returning_helper_code(
        router, "lwt_push_encap", encap_type, "lwt_out", LWT_HELPERS, small
    )
    assert code == 0 and len(after) == len(small.data) + (24 if encap_type else 64)


@pytest.mark.parametrize("action", [9, 10], ids=["End.B6", "End.B6.Encaps"])
def test_action_b6_oversize_is_einval(router, action):
    pkt = make_srv6_udp_packet("fc00:1::1", [SEG, "fc00:2::2"], 1111, 2222, bytes(65535 - 40 - 8))
    code, after = run_returning_helper_code(
        router, "lwt_seg6_action", action, "seg6local", SEG6LOCAL_HELPERS, pkt
    )
    assert code == EINVAL
    assert after == bytes(pkt.data)


def test_oversize_packet_through_the_wrr_hook_does_not_kill_the_run(router):
    """65 492 bytes of UDP payload + the scheduler's one-segment SRH."""
    from repro.usecases import install_wrr

    handle = install_wrr(router, "fc00:2::/64", "fc00:bb::d0", "fc00:bb::d1", 5, 3)
    router.add_route("fc00:bb::/64", via="fc00:2::1", dev="eth1")
    big = make_udp_packet("fc00:1::1", "fc00:2::2", 1111, 2222, bytes(65492))
    router.receive(big, router.devices["eth0"])
    assert handle.lwt.stats == {"ok": 1, "drop": 0, "redirect": 0, "errors": 0}
    router.receive(make_udp_packet("fc00:1::1", "fc00:2::2", 1111, 2222, b"fits"), router.devices["eth0"])
    assert router.devices["eth1"].tx_buffer.pop().dst == pton("fc00:bb::d0")
