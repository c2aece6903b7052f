"""Two builds of the same seeded scenario in one process give the same results.

A program's map handles and map-value addresses are numbered per program,
a handler's and a node's counters live on the handler's site and on the
node, and a network's telemetry snapshot counts only that network's
nodes.  So nothing a run reports depends on what else the process built
before it: building and running a scenario a second time — here after
another scenario ran in between — must reproduce the first build's
telemetry snapshot, relocated program bytes, helper traces and output
bytes exactly.
"""

from __future__ import annotations

from repro.ebpf import encode_program
from repro.lab import Setup1Topo
from repro.net import EndBPF, Node, Packet, make_srv6_udp_packet, make_udp_packet
from repro.progs import tag_increment_prog
from repro.sim import NS_PER_MS
from repro.sim.scheduler import Scheduler
from repro.sim.trafgen import UdpFlow
from repro.usecases import install_wrr

SRV6 = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 40000, 5201, bytes(64))
PLAIN = make_udp_packet("fc00:1::1", "fc00:2::2", 40000, 5201, bytes(1000))


def _helper_trace(program, hook: str, template: Packet) -> tuple:
    hctx = program.make_context(bytes(template.data))
    hctx.hook = hook
    hctx.helper_trace = []
    ret = program.run(hctx)
    return ret, tuple(hctx.helper_trace), bytes(hctx.skb.packet_region.data)


def _setup1() -> dict:
    """Setup 1 with Tag++ on R, run for 2 ms of 100 Mb/s SRv6 UDP."""
    setup = Setup1Topo(seed=3).setup()
    net = setup.net
    action = EndBPF(tag_increment_prog())
    net.attach("R", setup.FUNC_SEGMENT, action)
    flow = net.trafgen(
        "S1",
        path=[setup.FUNC_SEGMENT, setup.S2_ADDR],
        rate_bps=100e6,
        payload_size=64,
        src_port_spread=100,
    )
    meter = net.sink("S2")
    flow.start(at_ns=0)
    net.run(until_ns=2 * NS_PER_MS)
    assert meter.packets > 100 and action.stats["ok"] == meter.packets
    program = action.program
    return {
        "metrics": net.metrics.collect(),
        "bytes": encode_program(program.insns),
        "trace": _helper_trace(program, "seg6local", SRV6),
    }


def _wrr() -> dict:
    """One node with the §4.2 WRR scheduler on its LWT output hook."""
    node = Node("A")
    node.add_address("fc00:aa::1")
    handle = install_wrr(node, "fc00:2::/64", "fc00:bb::d0", "fc00:bb::d1", 5, 3)
    program = handle.lwt.prog_out
    outputs = []
    for _ in range(8):
        pkt = Packet(PLAIN.data)
        assert handle.lwt.run_hook("lwt_out", pkt, node).action == "forward"
        outputs.append(bytes(pkt.data))
    return {
        "bytes": encode_program(program.insns),
        "trace": _helper_trace(program, "lwt_out", PLAIN),
        "outputs": outputs,
        "state": handle.state.lookup(bytes(4)),
    }


def test_a_second_build_reproduces_the_first():
    first = _setup1(), _wrr()
    second = _setup1(), _wrr()
    for one, two in zip(first, second):
        assert one.keys() == two.keys()
        for key in one:
            assert one[key] == two[key], key


def test_the_wrr_trace_reads_its_maps_through_program_numbered_handles():
    _ret, trace, _data = _wrr()["trace"]
    lookups = [args for name, args, _ret in trace if name == "map_lookup_elem"]
    assert lookups, "the WRR program looks its maps up"
    # The config map is the program's first map reference, the state its second.
    assert {args[0] for args in lookups} == {0x7F00_0000, 0x7F00_0010}


def test_a_directly_built_flow_id_does_not_depend_on_earlier_flows():
    def flow_id() -> int:
        return UdpFlow(Scheduler(), Node("X"), "fc00::1", "fc00::2", rate_bps=1e6).flow_id

    first = flow_id()
    net = Setup1Topo(seed=1).net
    net.trafgen("S1", dst="fc00:2::2")
    assert flow_id() == first
