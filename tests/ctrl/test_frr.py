"""TI-LFA fast reroute: precomputed plans, carrier-triggered repair, and
the Setup-2 acceptance scenario (core link failure mid-run).

The acceptance contract: with IGP only, deliveries resume after global
reconvergence (loss window ≈ the hello dead-interval); with FRR armed,
post-failure loss is bounded by what was in flight on the failed link.
"""

import pytest

from repro.lab import SETUP2_IGP_COSTS, Network, build_setup2
from repro.net import pton
from repro.sim.scheduler import NS_PER_MS, NS_PER_SEC


def square(frr=True):
    """A—B—D primary, A—C—D detour; no ECMP tie, so failing A—B needs
    a segment repair, while failing B's side exercises survivors too."""
    net = Network(seed=1)
    for name in ("A", "B", "C", "D"):
        net.add_node(name, addr=f"fc00:{name.lower()}::1")
    net.add_link("A", "B")
    net.add_link("B", "D")
    net.add_link("A", "C")
    net.add_link("C", "D")
    costs = {("A", "eth0"): 5, ("B", "eth0"): 5, ("B", "eth1"): 5, ("D", "eth0"): 5}
    return net, net.ctrl(frr=frr, costs=costs)


def test_plans_precomputed_after_convergence():
    net, ctrl = square()
    net.run(until_ms=400)
    plans = ctrl.speakers["A"].frr.plans
    assert set(plans) == {"eth0", "eth1"}
    plan = plans["eth0"]  # losing A—B
    assert plan.repaired > 0
    # Repairs are literal config-plane commands over the fcff SIDs.
    assert any("encap seg6 mode encap segs fcff:" in c for c in plan.commands)
    # The pin (flattened adjacency SID) rides the surviving device.
    assert any("dev eth1" in c for c in plan.commands)


def test_frr_repair_never_self_encapsulates():
    net, ctrl = square()
    net.run(until_ms=400)
    for speaker in ctrl.speakers.values():
        for plan in speaker.frr.plans.values():
            for command in plan.commands:
                if "encap seg6" not in command:
                    continue
                prefix, segs = command.split()[2], command.split()[-1]
                assert prefix.split("/")[0] not in segs.split(","), command


def test_square_failover_loss_windows():
    results = {}
    for frr in (False, True):
        net, ctrl = square(frr=frr)
        net.run(until_ms=400)
        assert ctrl.converged()
        meter = net.sink("D")
        flow = net.trafgen("A", dst="fc00:d::1", rate_bps=20e6, payload_size=1000)
        flow.start(at_ns=400 * NS_PER_MS, duration_ns=600 * NS_PER_MS)
        net.fail_link("A", "B", at_ns=600 * NS_PER_MS)
        net.run(until_ms=1800)
        results[frr] = (flow.stats.sent, meter.packets, ctrl)
    sent, delivered, ctrl = results[False]
    igp_loss = sent - delivered
    # IGP only: the loss window is the failure-detection window.
    rate_pps = 20e6 / (8 * 1048)
    expected = ctrl.dead_interval_ns / NS_PER_SEC * rate_pps
    assert 0.5 * expected < igp_loss < 2 * expected
    sent, delivered, ctrl = results[True]
    frr_loss = sent - delivered
    assert ctrl.bus.count("frr-fired", "A") == 1
    # FRR: only in-flight packets die; the A—B link holds ~µs of traffic.
    assert frr_loss <= 3
    assert frr_loss < igp_loss


def test_a_destination_left_without_repair_is_listed_unprotected():
    """Triangle B–A 4, C–A 8, B–C 1: losing B—A leaves A reachable via C,
    but C's own shortest path to A runs over B—A and node SIDs alone
    cannot pin C→A, so TI-LFA finds no repair.  The plan says so."""
    net = Network(seed=1)
    for name in ("A", "B", "C"):
        net.add_node(name, addr=f"fc00:{name.lower()}::1")
    net.add_link("B", "A")  # B.eth0, A.eth0
    net.add_link("C", "A")  # C.eth0, A.eth1
    net.add_link("B", "C")  # B.eth1, C.eth1
    costs = {("B", "eth0"): 4, ("A", "eth0"): 4, ("C", "eth0"): 8,
             ("A", "eth1"): 8, ("B", "eth1"): 1, ("C", "eth1"): 1}  # fmt: skip
    ctrl = net.ctrl(frr=True, costs=costs)
    net.run(until_ms=400)
    speaker = ctrl.speakers["B"]
    plan = speaker.frr.plans["eth0"]
    assert (plan.prefixes, plan.repaired, plan.rerouted) == ([], 0, 0)
    bare = sorted(p for p, hops in speaker.routes.items() if all(h.dev == "eth0" for h in hops))
    assert bare and plan.unprotected == bare
    assert "fc00:a::1/128" in plan.unprotected
    net.fail_link("B", "A", at_ns=net.now_ns)
    net.run(until_ms=410)
    fired = ctrl.bus.last("frr-fired", "B")
    assert fired.detail["unprotected"] == len(bare)


def test_frr_plan_uses_surviving_ecmp_sibling_without_segments():
    net = Network(seed=1)
    for name in ("A", "B", "C", "D"):
        net.add_node(name, addr=f"fc00:{name.lower()}::1")
    net.add_link("A", "B")
    net.add_link("A", "C")
    net.add_link("B", "D")
    net.add_link("C", "D")
    ctrl = net.ctrl(frr=True)  # perfect diamond: ECMP everywhere
    net.run(until_ms=400)
    plan = ctrl.speakers["A"].frr.plans["eth0"]
    assert plan.rerouted > 0
    net.fail_link("A", "B", at_ns=net.now_ns)
    net.run(until_ms=500)
    route = net["A"].main_table().lookup(pton("fc00:d::1"))
    assert [nh.dev for nh in route.nexthops] == ["eth1"]


def test_short_flap_does_not_leave_stale_repair_routes():
    """A flap shorter than the dead interval changes no LSA — hellos just
    resume — so carrier-up itself must re-run SPF, or the seg6 repair
    stays in the FIB forever."""
    net, ctrl = square(frr=True)
    net.run(until_ms=400)
    net.fail_link("A", "B", at_ns=400 * NS_PER_MS)
    net.recover_link("A", "B", at_ns=430 * NS_PER_MS)  # < 200 ms dead interval
    net.run(until_ms=2000)
    assert ctrl.bus.count("adjacency-down") == 0  # the flap went undetected
    assert ctrl.bus.count("frr-fired", "A") == 1  # ... but the repair fired
    shown = net.config("A", "route show")
    assert not any("encap seg6 mode encap" in line for line in shown)
    route = [l for l in shown if l.startswith("fc00:d::1/128")]
    assert route == ["fc00:d::1/128 via fc00:b::1 dev eth0"]


def test_unreachable_prefix_after_repair_is_deleted_not_stale():
    """Double failure: the repair fires, then the prefix becomes
    unreachable.  The SPF deletion sweep must remove the seg6 repair —
    it is programmed state like any other — not leave traffic
    encapsulating into a dead link forever."""
    net, ctrl = square(frr=True)
    net.run(until_ms=400)
    net.fail_link("A", "B", at_ns=600 * NS_PER_MS)
    net.fail_link("A", "C", at_ns=650 * NS_PER_MS)  # before reconvergence
    net.run(until_ms=3000)
    shown = net.config("A", "route show")
    assert not any("encap seg6 mode encap" in line for line in shown)
    assert not any(line.startswith("fc00:d::1/128") for line in shown)


def test_frr_repair_targets_the_origin_routing_chose():
    """Anycast: the repair endpoint must be the instance SPF routed to,
    not the lexicographically smallest advertiser."""
    net, ctrl = square(frr=True)
    net.run(until_ms=400)
    speaker = ctrl.speakers["A"]
    # D is the routed origin for its own address; a fake earlier-sorting
    # advertiser must not hijack the repair endpoint.
    assert speaker.frr._origin_of("fc00:d::1/128") == "D"
    assert speaker.route_origins["fc00:d::1/128"] == "D"


def test_link_added_after_ctrl_gets_carrier_protection():
    """A link wired after net.ctrl() must deliver carrier events (and so
    FRR activation) exactly like the links that existed at arm time."""
    net = Network(seed=1)
    for name in ("A", "B", "C", "D"):
        net.add_node(name, addr=f"fc00:{name.lower()}::1")
    net.add_link("A", "B")
    net.add_link("B", "D")
    net.add_link("A", "C")
    costs = {("A", "eth0"): 5, ("B", "eth0"): 5, ("B", "eth1"): 5, ("D", "eth0"): 5}
    ctrl = net.ctrl(frr=True, costs=costs)
    net.add_link("C", "D")  # the detour leg arrives late
    net.run(until_ms=400)
    assert ctrl.converged()
    net.fail_link("A", "B", at_ns=net.now_ns)
    net.run(until_ms=800)
    assert ctrl.bus.count("carrier-down") == 2
    assert ctrl.bus.count("frr-fired", "A") == 1


def test_stop_before_first_run_sends_no_hellos():
    """stop() must also cancel the t=0 bootstrap hello one-shot."""
    net, ctrl = square()
    ctrl.stop()  # the start()-time LSA flood is already on the wire...
    sent = [
        link.a_to_b.stats.bytes_sent + link.b_to_a.stats.bytes_sent
        for link in net.links
    ]
    net.run(until_ms=500)
    # ... but nothing further goes out: no bootstrap hellos, no timers.
    assert [
        link.a_to_b.stats.bytes_sent + link.b_to_a.stats.bytes_sent
        for link in net.links
    ] == sent
    assert ctrl.bus.count("adjacency-up") == 0


def test_stop_quiesces_speakers_but_keeps_fib_state():
    net, ctrl = square(frr=True)
    net.run(until_ms=400)
    routes_before = net.config("A", "route show")
    ctrl.stop()
    events_before = len(ctrl.bus.events)
    net.fail_link("A", "B", at_ns=net.now_ns)  # nobody is listening
    net.run(until_ms=2000)
    assert len(ctrl.bus.events) == events_before  # no hellos, no carrier fan-out
    assert net.config("A", "route show") == routes_before  # FIB state remains
    assert all(not s.started and s._listener is None for s in ctrl.speakers.values())


# --- the Setup-2 acceptance scenario -----------------------------------------


def run_setup2_failover(frr: bool):
    setup = build_setup2()
    net = setup.net
    ctrl = net.ctrl(frr=frr, costs=SETUP2_IGP_COSTS)
    net.run(until_ms=500)
    assert ctrl.converged()
    meter = net.sink("S2")
    flow = net.trafgen("S1", dst="fc00:2::2", rate_bps=10e6, payload_size=1000)
    flow.start(at_ns=500 * NS_PER_MS, duration_ns=NS_PER_SEC)
    net.fail_link("A", "R", dev="dsl", at_ns=900 * NS_PER_MS)
    net.run(until_ms=3500)
    return flow, meter, ctrl


def test_setup2_core_link_failure_igp_only():
    flow, meter, ctrl = run_setup2_failover(frr=False)
    loss = flow.stats.sent - meter.packets
    rate_pps = 10e6 / (8 * 1048)
    window = ctrl.dead_interval_ns / NS_PER_SEC
    # Deliveries resumed: the flow ran 600 ms past the failure and most
    # of it arrived.
    assert meter.packets > 0.6 * flow.stats.sent
    # ... but the loss window matches the detection window.
    assert 0.5 * window * rate_pps < loss < 2.5 * window * rate_pps
    assert ctrl.bus.count("adjacency-down") >= 2


def test_setup2_core_link_failure_with_frr():
    flow, meter, ctrl = run_setup2_failover(frr=True)
    loss = flow.stats.sent - meter.packets
    assert ctrl.bus.count("frr-fired", "A") == 1
    # Post-failure loss is bounded by in-flight packets on the failed
    # link (~10 µs of propagation at 10 Mb/s: at most a couple).
    assert loss <= 3
    # And the repair detoured through R's decap SID, visible in the FIB
    # right after the carrier event (before reconvergence overwrites it).
    assert any(
        e.detail.get("repaired", 0) > 0 for e in ctrl.bus.of("frr-fired", "A")
    )
