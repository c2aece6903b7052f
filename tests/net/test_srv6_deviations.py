"""Where the datapath and the RFC 8754 / 8986 spec part: one test per row.

``docs/ARCHITECTURE.md``'s "Linux 4.18 deviations" table lists each
departure from the RFC text the datapath keeps on purpose, and each it
had until the comparison with ``tests/spec/srv6.py`` found it; every row
names its test here.  A kept row pins one packet on which the RFC's
verdict and the datapath's differ, and shows that the spec with the
row's switch (:data:`spec.KEPT`) gives the datapath's.
"""

from repro.ebpf import Program
from repro.net import (
    EndBPF,
    EndDT6,
    Node,
    Packet,
    SEG6LOCAL_HELPERS,
    End,
    make_srh,
    make_srv6_udp_packet,
    make_udp_packet,
    pton,
    push_outer_encap,
    push_srh_inline,
)
from repro.net.seg6 import BPF_LWT_ENCAP_SEG6
from repro.net.seg6local import SEG6_LOCAL_ACTION_END_B6_ENCAP
from repro.net.srh import validate_srh_wire
from spec import srv6 as spec
from test_seg6_wire import SOURCE, call_helper

SEG = "fc00:e::100"
PLAIN = bytes(make_udp_packet("fc00:1::1", "fc00:2::2", 1111, 2222, bytes(16)).data)


def srv6(segments_left: int | None = None, last_entry: int | None = None) -> bytes:
    """A 2-segment SRv6 packet to ``SEG``, its SRH fields optionally rewritten."""
    data = bytearray(make_srv6_udp_packet("fc00:1::1", [SEG, "fc00:2::2"], 1111, 2222, bytes(16)).data)
    if segments_left is not None:
        data[43] = segments_left
    if last_entry is not None:
        data[44] = last_entry
    return bytes(data)


def end_verdict(data: bytes):
    """What the datapath's End does with ``data``: (packet after, None) or (None, drop reason)."""
    pkt = Packet(data)
    disposition = End().process(pkt, Node("N"))
    return (bytes(pkt.data), None) if disposition.action == "forward" else (None, disposition.reason)


def spec_verdict(result):
    out, reason = result
    return out, None if reason is None else spec.drop_text(reason)


# -- kept -----------------------------------------------------------------------------------


def test_segments_left_is_bounded_by_last_entry():
    """RFC 8754 S10 lets Segments Left reach Last Entry + 1 (the advance then lands on
    Segment List[Last Entry]); Linux's seg6_validate_srh refuses it, and so does the rule."""
    data = srv6(segments_left=2)
    rfc_out, rfc_reason = spec.end(data, deviations=spec.RFC)
    assert rfc_reason is None and rfc_out[24:40] == pton(SEG)
    assert end_verdict(data) == spec_verdict(spec.end(data)) == (None, "no SRH")
    assert validate_srh_wire(data, 40) == "segments_left 2 > last_entry 1"


def test_end_validates_the_srh_before_asking_for_segments_left_zero():
    """RFC 8986 §4.1 S02 stops at Segments Left == 0 before S09-S10 check Last Entry;
    Linux's get_and_validate_srh validates first.  Both drop; the reason differs."""
    data = srv6(segments_left=0, last_entry=5)
    assert spec_verdict(spec.end(data, deviations=spec.RFC)) == (None, "segments_left == 0")
    assert end_verdict(data) == spec_verdict(spec.end(data)) == (None, "no SRH")


def test_decap_holds_every_routing_header_to_the_srh_rule():
    """The RFC strips the outer header "with all its extension headers", and Linux's
    decap_and_validate walks a routing header it cannot validate; the datapath refuses it."""
    inner = PLAIN
    type3 = bytearray(make_srh(["fc00:9::9"], next_header=41).pack())
    type3[2], type3[3] = 3, 0  # routing type 3, nothing left
    data = push_outer_encap(inner, pton("fc00:1::1"), bytes(type3))
    assert spec.end_decap(data, "End.DT6", deviations=spec.RFC) == (inner, None)
    pkt = Packet(data)
    disposition = EndDT6(table_id=254).process(pkt, Node("N"))
    expected = spec_verdict(spec.end_decap(data, "End.DT6"))
    assert (None, disposition.reason) == expected == (None, "decap failed: routing type 3 is not an SRH")
    assert bytes(pkt.data) == data


def test_end_reads_the_srh_only_right_after_the_ipv6_header():
    """RFC 8200 §4.1 puts a Hop-by-Hop header before the routing header, and Linux's
    get_srh finds the SRH behind it (ipv6_find_hdr); the End prologue reads the SRH right
    after the IPv6 header only, so the packet is dropped."""
    plain = srv6()
    hop_by_hop = bytes([43, 0, 1, 4]) + bytes(4)  # next header 43, 8 octets of PadN
    data = bytearray(plain[:40] + hop_by_hop + plain[40:])
    data[6] = 0
    data[4:6] = (len(data) - 40).to_bytes(2, "big")
    data = bytes(data)
    rfc_out, rfc_reason = spec.end(data, deviations=spec.RFC)
    assert rfc_reason is None and rfc_out[24:40] == pton("fc00:2::2") and rfc_out[48 + 3] == 0
    assert end_verdict(data) == spec_verdict(spec.end(data)) == (None, "no SRH")


def test_end_b6_takes_the_headers_own_length():
    """Linux checks an End.B6.Encaps parameter with seg6_validate_srh(param, param_len), so
    trailing bytes make it -EINVAL; the datapath cuts the parameter to its header's length."""
    srh = make_srh(["fc00:9::9"], next_header=41).pack()
    param = srh + bytes(8)
    assert spec.seg6_action_b6(PLAIN, SOURCE, True, param, deviations=spec.RFC) == (spec.EINVAL, PLAIN)
    code, hctx = call_helper(76, PLAIN, "seg6local", SEG6_LOCAL_ACTION_END_B6_ENCAP, param)
    assert (code, bytes(hctx.skb.packet_region.data)) == spec.seg6_action_b6(PLAIN, SOURCE, True, param)
    assert code == spec.OK


def test_pad1_is_one_octet():
    """RFC 8754 §2.1.1.1: Pad1 is a lone zero octet.  Linux 4.18's seg6_validate_srh reads
    every TLV as type + length, so it would take 00 80 for a 128-octet TLV and refuse this
    header; the rule follows the RFC."""
    srh = make_srh([SEG], next_header=17).pack()
    data = bytearray(srh + b"\x00\x80\x05abcde")  # Pad1, then a 5-octet experimental TLV
    data[1] += 1
    assert spec.srh_reason(bytes(data)) is None
    assert validate_srh_wire(data) is None


# -- fixed after the spec found them --------------------------------------------------------


def test_a_pushed_srh_must_have_a_framed_tlv_area():
    """``bpf_lwt_push_encap`` checked the header but not its TLVs, where Linux's
    seg6_validate_srh walks them: a TLV running past the header is now -EINVAL."""
    raw = bytearray(make_srh(["fc00:7::1", "fc00:2::2"], next_header=41).pack() + b"\x80\x07" + bytes(6))
    raw[1] += 1
    assert spec.srh_reason(bytes(raw)) == ("tlv-past-area",)
    code, hctx = call_helper(73, PLAIN, "lwt_out", BPF_LWT_ENCAP_SEG6, bytes(raw))
    assert (code, bytes(hctx.skb.packet_region.data)) == (spec.EINVAL, PLAIN)


STORE_TAG_THEN_DECAP = """
    r6 = r1
    r2 = 0x1234
    *(u16 *)(r10 - 2) = r2
    r1 = r6
    r2 = 46
    r3 = r10
    r3 += -2
    r4 = 2
    call lwt_seg6_store_bytes
    r2 = 254
    *(u32 *)(r10 - 8) = r2
    r1 = r6
    r2 = 7
    r3 = r10
    r3 += -8
    r4 = 4
    call lwt_seg6_action
    r0 = 7
    exit
"""


def test_revalidation_drops_an_inner_routing_header_the_rule_refuses():
    """§3.1 re-validation held only the TLV walk and ``segments_left`` to the first routing
    header a program leaves, and passed one the span check refused — reachable after
    ``bpf_lwt_seg6_action(End.DT6)`` onto a packet whose inner routing header is no SRH.
    Linux 4.18's End.BPF drops a packet whose SRH fails seg6_validate_srh after the
    program; so does the datapath now, with the rule's reason."""
    inner = bytearray(push_srh_inline(PLAIN, make_srh(["fc00:2::2"], next_header=17)))
    inner[42] = 3  # routing type 3
    data = push_outer_encap(bytes(inner), pton("fc00:1::1"), make_srh([SEG, "fc00:9::9"], next_header=41))
    action = EndBPF(Program(STORE_TAG_THEN_DECAP, allowed_helpers=SEG6LOCAL_HELPERS))
    pkt = Packet(data)
    disposition = action.process(pkt, Node("R"))
    assert bytes(pkt.data) == bytes(inner)  # the program decapsulated it
    reason = spec.drop_text(("bpf-revalidation", spec.srh_reason(bytes(inner), 40)))
    assert (disposition.action, disposition.reason, disposition.bpf) == ("drop", reason, True)
    assert reason == "invalid SRH after BPF: routing type 3 is not an SRH"
    assert action.stats == {"ok": 0, "drop": 1, "redirect": 0, "errors": 0}
