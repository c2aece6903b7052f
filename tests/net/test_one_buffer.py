"""One packet buffer per invocation: an attached program runs on ``pkt.data``.

The kernel runs End.BPF and the BPF LWT hooks on the skb; here that is
``pkt.data``.  ``run_attached`` binds that bytearray as the guest
packet region, the helpers edit it where it lies, and nothing copies it
in or back out — so across an invocation ``pkt.data`` keeps its identity
(a resizing program included), the guest region *is* that object, and a
packet the program edited and then dropped keeps the edits.
"""

import pytest

from repro.ebpf import ArrayMap, PerfEventArrayMap, Program
from repro.ebpf.errors import HelperError
from repro.ebpf.helpers import HELPERS_BY_ID, register_helper
from repro.net import (
    BpfLwt,
    EndBPF,
    Node,
    Packet,
    SEG6LOCAL_HELPERS,
    make_srh,
    make_srv6_udp_packet,
    make_udp_packet,
    pton,
    push_outer_encap,
    seg6local,
)
from repro.net.srh import make_controller_tlv
from repro.progs import (
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
)
from spec import srv6 as spec

SEG = "fc00:e::100"
SRV6 = bytes(make_srv6_udp_packet("fc00:1::1", [SEG, "fc00:2::2"], 1111, 2222, bytes(64)).data)
PLAIN = bytes(make_udp_packet("fc00:1::1", "fc00:2::2", 1111, 2222, bytes(64)).data)


def router() -> Node:
    node = Node("R")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00:e::1")
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1")
    node.add_route("fc00:7::/64", via="fc00:2::1", dev="eth1")  # the LWT programs' segments
    return node


def dm_config(name: str) -> ArrayMap:
    config = ArrayMap(name, value_size=40, max_entries=1)
    config.update(bytes(4), dm_config_value(SEG, "fc00:c::1", 9000, 0, 1))  # OWD, every packet
    return config


def dm_probe() -> bytes:
    """What the §4.1 sampler makes of ``PLAIN``: a DM probe whose active segment is ``SEG``."""
    head = router()
    head.add_route(f"{SEG}/128", via="fc00:2::1", dev="eth1")
    head.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1", encap=BpfLwt(prog_out=dm_encap_prog(dm_config("ob_dm_head"))))
    head.receive(Packet(PLAIN), head.devices["eth0"])
    return bytes(head.devices["eth1"].tx_buffer.pop().data)


def oamp_probe() -> bytes:
    srh = make_srh([SEG, "fc00:2::2"], next_header=41, tlvs=[make_controller_tlv("fc00:1::1", 8892)])
    return push_outer_encap(PLAIN, pton("fc00:1::1"), srh)


# name -> (program factory, packet, the run changes the packet's length)
SEG6LOCAL_CASES = {
    "end": (end_prog, SRV6, False),
    "end_t": (end_t_prog, SRV6, False),
    "tag_increment": (tag_increment_prog, SRV6, False),
    "add_tlv": (add_tlv_prog, SRV6, True),
    "add_tlv_interp": (lambda: add_tlv_prog(jit=False), SRV6, True),
    "end_dm": (lambda: end_dm_prog(PerfEventArrayMap("ob_dm_ev")), dm_probe(), True),  # action(End.DT6)
    "end_oamp": (lambda: end_oamp_prog(PerfEventArrayMap("ob_oamp_ev")), oamp_probe(), False),
}


def wrr() -> Program:
    config = ArrayMap("ob_wrr_c", value_size=40, max_entries=1)
    config.update(bytes(4), wrr_config_value("fc00:7::d0", "fc00:7::d1", 2, 1))
    return wrr_prog(config, ArrayMap("ob_wrr_s", value_size=16, max_entries=1))


LWT_CASES = {"dm_encap": lambda: dm_encap_prog(dm_config("ob_dm_c")), "wrr": wrr}


@pytest.mark.parametrize("path", ["scalar", "batch"])
@pytest.mark.parametrize("name", SEG6LOCAL_CASES)
def test_end_bpf_runs_on_the_packets_own_buffer(name, path):
    make_program, raw, resizes = SEG6LOCAL_CASES[name]
    node = router()
    action = EndBPF(make_program())
    node.add_route(f"{SEG}/128", encap=action)
    pkts = [Packet(raw) for _ in range(3)]
    buffers = [pkt.data for pkt in pkts]

    if path == "batch":
        node.receive_batch(pkts, node.devices["eth0"])
    else:
        for pkt in pkts:
            node.receive(pkt, node.devices["eth0"])

    # One batch looks the segment up once, one at a time three times; each
    # forwarded packet adds the lookup of its continuation.
    flow_table = node.flow_table
    segment_lookups = flow_table.hits + flow_table.misses - node.counters.forwarded
    assert segment_lookups == (1 if path == "batch" else 3)
    assert action.program.stats.invocations == 3 and action.stats["errors"] == 0
    assert all(pkt.data is buffer for pkt, buffer in zip(pkts, buffers))
    assert [len(pkt.data) != len(raw) for pkt in pkts] == [resizes] * 3
    # The guest packet region is the packet's buffer, not a copy of it.
    assert action.handler().hctx.skb.packet_region.data is pkts[-1].data


@pytest.mark.parametrize("hook", ["lwt_out", "lwt_xmit"])
@pytest.mark.parametrize("name", LWT_CASES)
def test_lwt_hooks_run_on_the_packets_own_buffer(name, hook):
    node = router()
    lwt = BpfLwt(**{"prog_out" if hook == "lwt_out" else "prog_xmit": LWT_CASES[name]()})
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1", encap=lwt)
    node.add_route(f"{SEG}/128", via="fc00:2::1", dev="eth1")  # the sampler's DM segment
    pkts = [Packet(PLAIN) for _ in range(3)]
    buffers = [pkt.data for pkt in pkts]
    node.receive_batch(pkts, node.devices["eth0"])

    assert lwt.hook_runs == {hook: 3} and lwt.stats["ok"] == 3
    assert node.devices["eth1"].tx_buffer == pkts
    assert all(pkt.data is buffer for pkt, buffer in zip(pkts, buffers))
    assert all(len(pkt.data) > len(PLAIN) for pkt in pkts)  # both push an encapsulation
    assert lwt._handlers[hook].hctx.skb.packet_region.data is pkts[-1].data


# --- what a helper sees while the program runs ------------------------------------

_SEEN: list[tuple] = []

if 2002 not in HELPERS_BY_ID:

    @register_helper(2002, "test_buffer_probe", [("ctx",), ("scalar",)])
    def _test_buffer_probe(hctx, ctx_addr: int, phase: int) -> int:
        """Record whether the guest packet region is ``pkt.data``; phase 9 faults."""
        if phase == 9:
            raise HelperError("test fault")
        _SEEN.append((phase, hctx.skb.packet_region.data is hctx.packet.data, len(hctx.packet.data)))
        return 0


_STORE_TAG = """
    r6 = r1
    r2 = 0xbeef
    *(u16 *)(r10 - 2) = r2
    r1 = r6
    r2 = 46                        ; the SRH tag (40 + 6)
    r3 = r10
    r3 += -2
    r4 = 2
    call lwt_seg6_store_bytes
"""

PROBE_AROUND_A_RESIZE = """
    r6 = r1
    r2 = 0
    call test_buffer_probe
    r1 = r6
    r2 = 80                        ; end of the 2-segment SRH (40 + 8 + 32)
    r3 = 8
    call lwt_seg6_adjust_srh
    r1 = r6
    r2 = 1
    call test_buffer_probe
    r0 = 0                         ; eight Pad1 bytes are a valid TLV area
    exit
"""

PROBE_ONLY = """
    r2 = 0
    call test_buffer_probe
    r0 = 0
    exit
"""


@pytest.mark.parametrize("sizes", [[3], [1, 1, 1]], ids=["batch", "scalar"])
def test_helpers_see_the_packets_own_buffer_across_a_resize(sizes):
    _SEEN.clear()
    node = router()
    node.add_route(f"{SEG}/128", encap=EndBPF(Program(PROBE_AROUND_A_RESIZE, allowed_helpers=None)))
    pkts = [Packet(SRV6) for _ in range(3)]
    buffers = [pkt.data for pkt in pkts]
    for start in range(0, 3, sizes[0]):
        node.receive_batch(pkts[start : start + sizes[0]], node.devices["eth0"])
    assert _SEEN == [(0, True, len(SRV6)), (1, True, len(SRV6) + 8)] * 3
    assert node.devices["eth1"].tx_buffer == pkts
    assert all(pkt.data is buffer for pkt, buffer in zip(pkts, buffers))


def test_lwt_helpers_see_the_packets_own_buffer():
    _SEEN.clear()
    node = router()
    lwt = BpfLwt(prog_out=Program(PROBE_ONLY, allowed_helpers=None), prog_xmit=Program(PROBE_ONLY, allowed_helpers=None))
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1", encap=lwt)
    node.receive(Packet(PLAIN), node.devices["eth0"])
    assert _SEEN == [(0, True, len(PLAIN))] * 2


# --- a dropped packet keeps its edits; the node's books do not change --------------


@pytest.mark.parametrize("sizes", [[2], [1, 1]], ids=["batch", "scalar"])
@pytest.mark.parametrize("ending", ["BPF_DROP", "fault"])
def test_edit_then_drop_keeps_the_edit_and_the_nodes_books(ending, sizes):
    tail = "r0 = 2\nexit" if ending == "BPF_DROP" else "r1 = r6\nr2 = 9\ncall test_buffer_probe\nr0 = 0\nexit"
    action = EndBPF(Program(_STORE_TAG + tail, allowed_helpers=None))
    node = router()
    node.add_route(f"{SEG}/128", encap=action)
    pkts = [Packet(SRV6) for _ in range(2)]
    buffers = [pkt.data for pkt in pkts]
    for start in range(0, 2, sizes[0]):
        node.receive_batch(pkts[start : start + sizes[0]], node.devices["eth0"])

    counters = node.counters
    assert not node.devices["eth1"].tx_buffer
    assert (counters.rx, counters.tx, counters.forwarded, counters.seg6local_processed) == (2, 0, 0, 2)
    assert (counters.dropped, counters.bpf_dropped, counters.no_route) == (2, 2, 0)
    if ending == "BPF_DROP":
        assert action.stats == {"ok": 0, "drop": 2, "redirect": 0, "errors": 0}
        assert (action.program.stats.invocations, action.program.stats.last_return) == (2, 2)
        assert node.log_messages == []
    else:
        assert action.stats == {"ok": 0, "drop": 0, "redirect": 0, "errors": 2}
        assert (action.program.stats.invocations, action.program.stats.last_return) == (0, None)
        assert node.log_messages == ["End.BPF program fault: test fault"] * 2
    # As the kernel's skb: what the helper wrote before the verdict stays written.
    for pkt, buffer in zip(pkts, buffers):
        assert pkt.data is buffer and pkt.data[46:48] == b"\xef\xbe" and len(pkt.data) == len(SRV6)


# --- §3.1 re-validation: the wire validator on every SRH a program leaves ----------

GROW_8_AND_STORE = """
    r6 = r1
    r1 = r6
    r2 = 80
    r3 = 8
    call lwt_seg6_adjust_srh
    r2 = {tlv:#x} ll
    *(u64 *)(r10 - 8) = r2
    r1 = r6
    r2 = 80
    r3 = r10
    r3 += -8
    r4 = 8
    call lwt_seg6_store_bytes
    r0 = 0
    exit
"""


@pytest.mark.parametrize(
    "make_program, reason",
    [
        (tag_increment_prog, None),
        (add_tlv_prog, None),
        (lambda: add_tlv_prog(jit=False), None),
        (lambda: Program(PROBE_AROUND_A_RESIZE, allowed_helpers=None), None),
        (lambda: Program(GROW_8_AND_STORE.format(tlv=0x060A), allowed_helpers=SEG6LOCAL_HELPERS), None),
        (lambda: Program(GROW_8_AND_STORE.format(tlv=0x070A), allowed_helpers=SEG6LOCAL_HELPERS), "TLV value exceeds TLV area"),
        (lambda: Program(GROW_8_AND_STORE.format(tlv=0x0A00000000000000), allowed_helpers=SEG6LOCAL_HELPERS), "truncated TLV header"),
    ],
    ids=["tag_increment", "add_tlv", "add_tlv_interp", "grow_pad1", "grow_tlv", "tlv_too_long", "tlv_header_cut"],
)  # fmt: skip
def test_revalidation_reads_the_wire_and_agrees_with_the_spec(make_program, reason, monkeypatch):
    seen = []

    def checked(data, offset):
        verdict = seg6local_validate(data, offset)
        expected = spec.srh_reason(bytes(data), offset)
        assert verdict == (None if expected is None else spec.drop_text(expected))
        seen.append((data, verdict))
        return verdict

    seg6local_validate = seg6local.validate_srh_wire
    monkeypatch.setattr(seg6local, "validate_srh_wire", checked)
    node = router()
    action = EndBPF(make_program())
    node.add_route(f"{SEG}/128", encap=action)
    pkt = Packet(SRV6)
    node.receive(pkt, node.devices["eth0"])

    assert seen == [(pkt.data, reason)] and seen[0][0] is pkt.data  # validated in place
    if reason is None:
        assert node.devices["eth1"].tx_buffer == [pkt] and action.stats["ok"] == 1
    else:
        assert not node.devices["eth1"].tx_buffer
        assert action.stats == {"ok": 0, "drop": 1, "redirect": 0, "errors": 0}
        assert (node.counters.dropped, node.counters.bpf_dropped) == (1, 1)
