"""Cross-module integration: the paper's setup 1 running in the DES.

All scenarios are driven through the ``repro.lab`` builder carried by
the setup (``setup.net``): functions attach with ``net.attach``, traffic
comes from ``net.trafgen``, measurement from ``net.sink``, and the run
loop is the context-managed ``net.run``.
"""

import pytest

from repro.ebpf import Program
from repro.lab import build_setup1
from repro.net import SEG6LOCAL_HELPERS, pton
from repro.progs import end_prog, tag_increment_prog
from repro.sim.scheduler import NS_PER_SEC


def test_setup1_plain_forwarding():
    setup = build_setup1()
    net = setup.net
    meter = net.sink("S2")
    flow = net.trafgen("S1", dst="fc00:2::2", rate_bps=100e6, payload_size=64)
    flow.start(duration_ns=NS_PER_SEC // 10)
    net.run(until_ns=NS_PER_SEC // 2)
    assert meter.packets == flow.stats.sent
    assert setup.r.counters.forwarded == flow.stats.sent


def test_setup1_end_bpf_chain_through_des():
    """trafgen-style SRv6 UDP through R's End.BPF, as in §3.2."""
    setup = build_setup1()
    net = setup.net
    net.attach("R", setup.FUNC_SEGMENT, end_prog())
    meter = net.sink("S2")
    flood = net.trafgen(
        "S1",
        path=[setup.FUNC_SEGMENT, "fc00:2::2"],
        rate_bps=50e6,
        payload_size=64,
    )
    # S1 must route the first segment toward R.
    net.config("S1", f"route add {setup.FUNC_SEGMENT}/128 via fc00:1::ff dev eth0")
    flood.start(duration_ns=NS_PER_SEC // 10)
    net.run(until_ns=NS_PER_SEC // 2)
    assert meter.packets == flood.stats.sent
    assert setup.r.counters.seg6local_processed == flood.stats.sent


def test_setup1_tag_increment_visible_at_sink():
    setup = build_setup1()
    net = setup.net
    net.attach("R", setup.FUNC_SEGMENT, tag_increment_prog())
    net.config("S1", f"route add {setup.FUNC_SEGMENT}/128 via fc00:1::ff dev eth0")
    tags = []
    setup.s2.bind(
        lambda pkt, node, _offset: tags.append(pkt.srh()[0].tag if pkt.srh() else None),
        proto=17,
        port=5201,
    )
    flood = net.trafgen(
        "S1",
        path=[setup.FUNC_SEGMENT, "fc00:2::2"],
        rate_bps=10e6,
        payload_size=64,
    )
    flood.start(duration_ns=NS_PER_SEC // 50)
    net.run(until_ns=NS_PER_SEC // 4)
    assert tags and all(tag == 1 for tag in tags)


def test_map_state_shared_between_datapath_and_userspace_live():
    """User space reconfigures a map while traffic flows (SDN-style)."""
    from repro.ebpf import ArrayMap

    setup = build_setup1()
    net = setup.net
    decision = ArrayMap("decision", value_size=4, max_entries=1)
    prog = Program(
        """
        *(u32 *)(r10 - 4) = 0
        r1 = decision ll
        r2 = r10
        r2 += -4
        call map_lookup_elem
        if r0 == 0 goto fwd
        r1 = *(u32 *)(r0 + 0)
        if r1 == 0 goto fwd
        r0 = 2                     ; configured to drop
        exit
        fwd:
        r0 = 0
        exit
        """,
        maps={"decision": decision},
        allowed_helpers=SEG6LOCAL_HELPERS,
    )
    net.load("decision_gate", prog)
    net.config(
        "R",
        f"route add {setup.FUNC_SEGMENT}/128 "
        "encap seg6local action End.BPF endpoint obj decision_gate",
    )
    net.config("S1", f"route add {setup.FUNC_SEGMENT}/128 via fc00:1::ff dev eth0")
    meter = net.sink("S2")
    flood = net.trafgen(
        "S1",
        path=[setup.FUNC_SEGMENT, "fc00:2::2"],
        rate_bps=10e6,
        payload_size=64,
    )
    flood.start(duration_ns=NS_PER_SEC)
    # Let it run, flip the map to "drop" mid-flight, run some more.
    net.run(until_ns=NS_PER_SEC // 4)
    delivered_before = meter.packets
    assert delivered_before > 0
    decision.update(b"\x00" * 4, (1).to_bytes(4, "little"))
    net.run(until_ns=NS_PER_SEC)
    # Traffic stopped arriving shortly after the flip.
    assert meter.packets - delivered_before < delivered_before


def test_hop_limits_decrement_across_des_path():
    setup = build_setup1()
    net = setup.net
    hlims = []
    setup.s2.bind(lambda pkt, node, _offset: hlims.append(pkt.hop_limit), proto=17, port=5201)
    flow = net.trafgen("S1", dst="fc00:2::2", rate_bps=1e6, payload_size=64)
    flow.start(duration_ns=NS_PER_SEC // 100)
    net.run(until_ns=NS_PER_SEC // 4)
    assert hlims and all(h == 63 for h in hlims)  # one router hop


def test_route_del_breaks_and_replace_restores_forwarding():
    """The config plane's del/replace round trip, live in the DES."""
    setup = build_setup1()
    net = setup.net
    meter = net.sink("S2")
    flow = net.trafgen("S1", dst="fc00:2::2", rate_bps=20e6, payload_size=64)
    flow.start(duration_ns=NS_PER_SEC // 4)
    net.run(until_ns=NS_PER_SEC // 16)
    delivered_early = meter.packets
    assert delivered_early > 0

    # Failure injection: R loses its sink route mid-run.
    net.config("R", "ip -6 route del fc00:2::/64")
    net.run(until_ns=NS_PER_SEC // 8)
    no_route_drops = setup.r.counters.no_route
    assert no_route_drops > 0
    blackholed = meter.packets

    # Recovery through route replace; traffic flows again.
    net.config("R", f"ip -6 route replace fc00:2::/64 via {setup.S2_ADDR} dev eth1")
    net.run(until_ns=NS_PER_SEC // 2)
    assert meter.packets > blackholed
    assert meter.packets < flow.stats.sent  # the blackhole really cost packets
