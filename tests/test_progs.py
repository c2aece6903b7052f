"""The paper's program library: functional behaviour and size claims."""

import struct

import pytest

from repro.ebpf import ArrayMap, LinkError, PerfEventArrayMap, isa
from repro.net import (
    BpfLwt,
    EndBPF,
    Node,
    Packet,
    make_srv6_udp_packet,
    make_udp_packet,
    pton,
)
from repro.progs import library as lib
from repro.progs import (
    DM_EVENT_SIZE,
    DmEvent,
    OampEvent,
    add_tlv_prog,
    dm_config_value,
    dm_encap_prog,
    end_dm_prog,
    end_oamp_prog,
    end_prog,
    end_t_prog,
    tag_increment_prog,
    wrr_config_value,
    wrr_prog,
    wrr_state_counters,
)

SEG = "fc00:e::100"


def fresh_router():
    node = Node("R")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00:e::1")
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1")
    return node


def srv6_pkt(**kwargs):
    return make_srv6_udp_packet("fc00:1::1", [SEG, "fc00:2::2"], 1111, 2222, b"p" * 64, **kwargs)


def push(node, pkt):
    node.receive(pkt, node.devices["eth0"])
    buf = node.devices["eth1"].tx_buffer
    return buf.pop() if buf else None


# --- §3.2 microbenchmark programs --------------------------------------------


@pytest.mark.parametrize("jit", [True, False])
def test_end_prog_behaves_as_end(jit):
    node = fresh_router()
    node.add_route(f"{SEG}/128", encap=EndBPF(end_prog(jit=jit)))
    out = push(node, srv6_pkt())
    assert out is not None
    assert out.dst == pton("fc00:2::2")
    srh, _ = out.srh()
    assert srh.segments_left == 0


@pytest.mark.parametrize("jit", [True, False])
def test_end_t_prog_redirects_via_table(jit):
    node = fresh_router()
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1", table_id=254)
    node.add_route(f"{SEG}/128", encap=EndBPF(end_t_prog(jit=jit)))
    out = push(node, srv6_pkt())
    assert out is not None
    assert out.dst == pton("fc00:2::2")


@pytest.mark.parametrize("jit", [True, False])
def test_tag_increment_prog(jit):
    node = fresh_router()
    node.add_route(f"{SEG}/128", encap=EndBPF(tag_increment_prog(jit=jit)))
    out = push(node, srv6_pkt(tag=0x00FF))
    srh, _ = out.srh()
    assert srh.tag == 0x0100


def test_tag_increment_wraps_16_bits():
    node = fresh_router()
    node.add_route(f"{SEG}/128", encap=EndBPF(tag_increment_prog()))
    out = push(node, srv6_pkt(tag=0xFFFF))
    srh, _ = out.srh()
    assert srh.tag == 0


@pytest.mark.parametrize("jit", [True, False])
def test_add_tlv_prog(jit):
    node = fresh_router()
    node.add_route(f"{SEG}/128", encap=EndBPF(add_tlv_prog(jit=jit)))
    pkt = srv6_pkt()
    original_len = len(pkt.data)
    out = push(node, pkt)
    assert len(out.data) == original_len + 8
    srh, _ = out.srh()
    (tlv,) = [tlv for tlv in srh.tlvs if tlv.tlv_type == 10]
    assert len(tlv.value) == 6
    # The packet is still structurally valid end to end.
    assert out.udp_payload() == b"p" * 64


def test_add_tlv_passes_through_non_srv6():
    node = fresh_router()
    node.add_route("fc00:9::100/128", encap=EndBPF(add_tlv_prog()))
    # End.BPF refuses packets without an SRH before the program even runs.
    pkt = make_udp_packet("fc00:1::1", "fc00:9::100", 1, 2, b"x")
    assert push(node, pkt) is None


# --- §4.1 DM programs -------------------------------------------------------------


def test_dm_encap_prog_builds_valid_probe():
    config = ArrayMap("dm_config", value_size=40, max_entries=1)
    config.update(
        b"\x00" * 4, dm_config_value("fc00:3::dd", "fc00:c::1", 9000, 0, 1)
    )
    node = fresh_router()
    node.add_route("fc00:3::/64", via="fc00:2::1", dev="eth1")
    node.add_route(
        "fc00:2::/64", via="fc00:2::1", dev="eth1",
        encap=BpfLwt(prog_out=dm_encap_prog(config)),
    )
    out = push(node, make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x"))
    assert out is not None
    assert out.dst == pton("fc00:3::dd")
    srh, _ = out.srh()
    assert srh.segments_left == 1
    assert srh.segments[0] == pton("fc00:2::2")
    by_type = {tlv.tlv_type: tlv for tlv in srh.tlvs}
    dm, ctrl = by_type[0x80], by_type[0x81]
    assert len(dm.value) == 9
    assert ctrl.value[:16] == pton("fc00:c::1")
    assert struct.unpack(">H", ctrl.value[16:18])[0] == 9000


def test_end_dm_prog_emits_event_and_decaps():
    events = PerfEventArrayMap("dm_ev")
    config = ArrayMap("dm_cfg2", value_size=40, max_entries=1)
    config.update(b"\x00" * 4, dm_config_value("fc00:e::dd", "fc00:c::1", 9000, 0, 1))

    # Head-end encapsulates...
    head = fresh_router()
    head.add_route("fc00:e::dd/128", via="fc00:2::1", dev="eth1")
    head.add_route(
        "fc00:2::/64", via="fc00:2::1", dev="eth1",
        encap=BpfLwt(prog_out=dm_encap_prog(config)),
    )
    probe = push(head, make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x"))

    # ... tail-end runs End.DM.
    clock = [0]
    tail = Node("T", clock_ns=lambda: clock[0])
    tail.add_device("eth0")
    tail.add_device("eth1")
    tail.add_address("fc00:e::2")
    tail.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1")
    tail.add_route("fc00:e::dd/128", encap=EndBPF(end_dm_prog(events)))
    clock[0] = 777_000
    tail.receive(probe, tail.devices["eth0"])
    out = tail.devices["eth1"].tx_buffer.pop()
    assert out.srh() is None  # decapsulated
    assert out.dst == pton("fc00:2::2")

    record = events.ring(0).drain()
    assert len(record) == 1
    event = DmEvent.parse(record[0])
    assert event.rx_timestamp_ns == 777_000
    assert event.controller == pton("fc00:c::1")
    assert event.port == 9000
    assert event.kind == 0
    assert event.delay_ns == 777_000 - event.tx_timestamp_ns


def test_end_dm_twd_probe_forwards_to_querier():
    events = PerfEventArrayMap("dm_ev2")
    config = ArrayMap("dm_cfg3", value_size=40, max_entries=1)
    config.update(b"\x00" * 4, dm_config_value("fc00:e::dd", "fc00:c::1", 9000, 1, 1))
    head = fresh_router()
    head.add_route("fc00:e::dd/128", via="fc00:2::1", dev="eth1")
    head.add_route(
        "fc00:2::/64", via="fc00:2::1", dev="eth1",
        encap=BpfLwt(prog_out=dm_encap_prog(config)),
    )
    probe = push(head, make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x"))

    tail = fresh_router()
    tail.add_route("fc00:e::dd/128", encap=EndBPF(end_dm_prog(events)))
    out = push(tail, probe)
    assert out is not None
    assert out.srh() is not None  # TWD: not decapsulated
    event = DmEvent.parse(events.ring(0).drain()[0])
    assert event.kind == 1


def test_end_dm_passes_non_probe_srv6():
    events = PerfEventArrayMap("dm_ev3")
    tail = fresh_router()
    tail.add_route(f"{SEG}/128", encap=EndBPF(end_dm_prog(events)))
    out = push(tail, srv6_pkt())
    assert out is not None  # behaves as plain End for non-probes
    assert events.ring(0).pushed == 0


# --- §4.2 WRR ----------------------------------------------------------------------


def test_wrr_prog_round_robin_pattern():
    config = ArrayMap("wrr_c", value_size=40, max_entries=1)
    state = ArrayMap("wrr_s", value_size=16, max_entries=1)
    config.update(b"\x00" * 4, wrr_config_value("fc00:7::d0", "fc00:7::d1", 2, 1))
    node = fresh_router()
    node.add_route("fc00:7::d0/128", via="fc00:2::1", dev="eth1")
    node.add_route("fc00:7::d1/128", via="fc00:2::1", dev="eth1")
    node.add_route(
        "fc00:2::/64", encap=BpfLwt(prog_out=wrr_prog(config, state))
    )
    dsts = []
    for i in range(9):
        out = push(node, make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x"))
        dsts.append(out.dst)
    count0 = dsts.count(pton("fc00:7::d0"))
    count1 = dsts.count(pton("fc00:7::d1"))
    assert count0 == 6 and count1 == 3
    c0, c1, pkts0, pkts1 = wrr_state_counters(state)
    assert (pkts0, pkts1) == (6, 3)


def test_wrr_progs_bind_their_own_maps():
    """Loader calls share one assembled object; each links its own maps."""
    routers = []
    for tag, weights in (("a", (1, 1)), ("b", (3, 1))):
        config = ArrayMap(f"wrr_c_{tag}", value_size=40, max_entries=1)
        state = ArrayMap(f"wrr_s_{tag}", value_size=16, max_entries=1)
        config.update(
            b"\x00" * 4, wrr_config_value("fc00:7::d0", "fc00:7::d1", *weights)
        )
        prog = wrr_prog(config, state)
        assert prog.maps == {"wrr_config": config, "wrr_state": state}
        node = fresh_router()
        node.add_route("fc00:7::/64", via="fc00:2::1", dev="eth1")
        node.add_route("fc00:2::/64", encap=BpfLwt(prog_out=prog))
        routers.append((node, state))
    (first, first_state), (second, second_state) = routers
    for _ in range(4):
        push(first, make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x"))
    assert wrr_state_counters(first_state)[2:] == (2, 2)
    assert wrr_state_counters(second_state) == (0, 0, 0, 0)
    for _ in range(4):
        push(second, make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x"))
    assert wrr_state_counters(second_state)[2:] == (3, 1)
    assert wrr_state_counters(first_state)[2:] == (2, 2)


def test_wrr_prog_rejects_wrong_shape_map():
    config = ArrayMap("wrr_c_bad", value_size=32, max_entries=1)  # declared 40
    state = ArrayMap("wrr_s_bad", value_size=16, max_entries=1)
    with pytest.raises(LinkError, match="provided map 'wrr_config'"):
        wrr_prog(config, state)


def test_wrr_encapsulated_packet_structure():
    config = ArrayMap("wrr_c2", value_size=40, max_entries=1)
    state = ArrayMap("wrr_s2", value_size=16, max_entries=1)
    config.update(b"\x00" * 4, wrr_config_value("fc00:7::d0", "fc00:7::d1", 1, 1))
    node = fresh_router()
    node.add_route("fc00:7::d0/128", via="fc00:2::1", dev="eth1")
    node.add_route("fc00:7::d1/128", via="fc00:2::1", dev="eth1")
    node.add_route("fc00:2::/64", encap=BpfLwt(prog_out=wrr_prog(config, state)))
    out = push(node, make_udp_packet("fc00:1::1", "fc00:2::2", 5, 6, b"inner"))
    srh, _ = out.srh()
    assert srh.segments_left == 0  # direct to the decap segment
    from repro.net.seg6 import decap_in_place

    assert decap_in_place(out.data) is None
    inner = Packet(out.data)
    assert inner.udp_payload() == b"inner"
    assert inner.dst == pton("fc00:2::2")


# --- §4.3 OAMP ---------------------------------------------------------------------


def test_end_oamp_reports_and_consumes_probe():
    from repro.net import Nexthop, make_srh, push_outer_encap
    from repro.net.srh import make_controller_tlv
    from repro.net.udp import build_udp
    from repro.net.ipv6 import IPv6Header

    events = PerfEventArrayMap("oamp_ev")
    node = fresh_router()
    node.add_route(
        "fc00:9::/64",
        nexthops=[Nexthop(via="fc00::a", dev="eth1"), Nexthop(via="fc00::b", dev="eth1")],
    )
    node.add_route(f"{SEG}/128", encap=EndBPF(end_oamp_prog(events)))

    me = pton("fc00:1::1")
    target = pton("fc00:9::9")
    inner = build_udp(me, target, 5, 6, b"oamp")
    header = IPv6Header(src=me, dst=target, next_header=17, payload_length=len(inner))
    srh = make_srh([SEG, target], next_header=41, tlvs=[make_controller_tlv(me, 8892)])
    probe = Packet(push_outer_encap(header.pack() + inner, me, srh))

    out = push(node, probe)
    assert out is None  # probe consumed (BPF_DROP after reporting)
    event = OampEvent.parse(events.ring(0).drain()[0])
    assert event.count == 2
    assert event.prober == me
    assert event.target == target
    assert event.port == 8892
    assert set(event.nexthops) == {pton("fc00::a"), pton("fc00::b")}


def test_end_oamp_passes_non_probe():
    events = PerfEventArrayMap("oamp_ev2")
    node = fresh_router()
    node.add_route(f"{SEG}/128", encap=EndBPF(end_oamp_prog(events)))
    out = push(node, srv6_pkt())
    assert out is not None
    assert events.ring(0).pushed == 0


# --- the .s literals are the Python layout constants -------------------------------


def _packet_loads(prog) -> set[int]:
    """Offsets the program reads through r7, its packet-data pointer."""
    return {
        insn.off
        for insn in prog.insns
        if insn.klass == isa.BPF_LDX and insn.src_reg == 7
    }


def _imms(prog, opcode: int, dst: int) -> list[int]:
    return [
        insn.imm
        for insn in prog.insns
        if insn.opcode == opcode and insn.dst_reg == dst
    ]


_MOV = isa.BPF_ALU64 | isa.BPF_K | isa.BPF_MOV
_ADD = isa.BPF_ALU64 | isa.BPF_K | isa.BPF_ADD


def test_asm_literals_match_the_layout_constants():
    """The user-space builders and the ``.s`` sources agree on probe geometry."""
    end_dm = end_dm_prog(PerfEventArrayMap("lit_dm"))
    assert _packet_loads(end_dm) == {
        6,  # IPv6 next header
        lib.DM_TLV_OFF,
        lib.DM_TS_OFF,
        lib.DM_CTRL_ADDR_OFF,
        lib.DM_CTRL_ADDR_OFF + 8,
        lib.DM_CTRL_PORT_OFF,
        lib.DM_KIND_OFF,
    }
    assert _imms(end_dm, _ADD, 2) == [lib.DM_PROBE_MIN_LEN]  # the bounds check
    assert _imms(end_dm, _MOV, 5) == [lib.DM_EVENT_SIZE]  # perf_event_output size

    dm_encap = dm_encap_prog(ArrayMap("lit_cfg", lib.DM_CONFIG_SIZE, 1))
    hdr_ext_len = [
        insn.imm
        for insn in dm_encap.insns
        if insn.opcode == isa.BPF_ST | isa.BPF_MEM | isa.BPF_B and insn.off == -79
    ]
    assert hdr_ext_len == [lib.DM_SRH_LEN // 8 - 1]  # SRH byte 1, built at r10-80
    assert _imms(dm_encap, _MOV, 4) == [lib.DM_SRH_LEN]  # lwt_push_encap length

    end_oamp = end_oamp_prog(PerfEventArrayMap("lit_oamp"))
    assert _packet_loads(end_oamp) == {
        6,
        24,  # IPv6 destination = the probe target
        32,
        lib.OAMP_CTRL_TLV_OFF,
        lib.OAMP_CTRL_ADDR_OFF,
        lib.OAMP_CTRL_ADDR_OFF + 8,
        lib.OAMP_CTRL_PORT_OFF,
    }
    assert _imms(end_oamp, _ADD, 2)[0] == lib.OAMP_PROBE_MIN_LEN
    assert _imms(end_oamp, _MOV, 4) == [16 * lib.OAMP_MAX_NEXTHOPS]
    assert _imms(end_oamp, _MOV, 5) == [lib.OAMP_EVENT_SIZE]


def test_dm_encap_rejects_wrong_shape_config():
    config = ArrayMap("dm_c_bad", value_size=32, max_entries=1)  # declared 40
    with pytest.raises(LinkError, match="provided map 'dm_config'"):
        dm_encap_prog(config)


# --- SLOC sanity (the paper's size claims, §3.2/§4) -------------------------------


def insn_count(prog) -> int:
    return prog.num_insns


def test_program_sizes_track_paper_claims():
    """Relative program sizes follow the paper's SLOC ordering:
    End (1) < End.T (4) < Tag++ (~50) <= Add TLV (~60); End.OAMP ~60;
    DM encap is the largest data-path program (130 C SLOC)."""
    end = insn_count(end_prog())
    end_t = insn_count(end_t_prog())
    tag = insn_count(tag_increment_prog())
    add_tlv = insn_count(add_tlv_prog())
    dm = insn_count(dm_encap_prog(ArrayMap("szc", 40, 1)))
    oamp = insn_count(end_oamp_prog(PerfEventArrayMap("sze")))
    wrr = insn_count(wrr_prog(ArrayMap("szc2", 40, 1), ArrayMap("szs2", 16, 1)))

    assert end < end_t < tag < add_tlv
    assert dm == max(end, end_t, tag, add_tlv, dm)
    assert end <= 3
    assert 40 <= dm <= 90  # the 130-SLOC C program, in eBPF instructions
    assert 30 <= wrr <= 90
    assert 30 <= oamp <= 90
