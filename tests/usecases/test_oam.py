"""§4.3 End.OAMP and the ECMP-aware traceroute."""

import pytest

from repro.net import Nexthop, Node, pton
from repro.sim import Link, Scheduler
from repro.usecases import OampDaemon, SrTraceroute, install_end_oamp

ADDR = {
    "C": "fc00:c::1",
    "R1": "fc00:10::1",
    "R2A": "fc00:2a::1",
    "R2B": "fc00:2b::1",
    "R3": "fc00:30::1",
    "T": "fc00:f::1",
}
OAMP_SEG = {"R1": "fc00:10::aa", "R3": "fc00:30::aa"}


@pytest.fixture
def diamond():
    """C - R1 - {R2A, R2B} - R3 - T with OAMP on R1 and R3."""
    sched = Scheduler()
    clock = lambda: sched.now_ns  # noqa: E731
    nodes = {name: Node(name, clock_ns=clock) for name in ADDR}
    for name, node in nodes.items():
        node.add_address(ADDR[name])

    def wire(n1, d1, n2, d2):
        nodes[n1].add_device(d1)
        nodes[n2].add_device(d2)
        Link(sched, nodes[n1].devices[d1], nodes[n2].devices[d2], 1e9, 50_000)

    wire("C", "eth0", "R1", "c")
    wire("R1", "a", "R2A", "up")
    wire("R1", "b", "R2B", "up")
    wire("R2A", "down", "R3", "a")
    wire("R2B", "down", "R3", "b")
    wire("R3", "t", "T", "eth0")

    c, r1, r2a, r2b, r3, t = (nodes[n] for n in ("C", "R1", "R2A", "R2B", "R3", "T"))
    c.add_route("::/0", via=ADDR["R1"], dev="eth0")
    r1.add_route(
        "fc00:f::/64",
        nexthops=[Nexthop(via=ADDR["R2A"], dev="a"), Nexthop(via=ADDR["R2B"], dev="b")],
    )
    r1.add_route("fc00:c::/64", via=ADDR["C"], dev="c")
    r1.add_route("fc00:2a::/64", via=ADDR["R2A"], dev="a")
    r1.add_route("fc00:2b::/64", via=ADDR["R2B"], dev="b")
    r1.add_route("fc00:30::/64", via=ADDR["R2A"], dev="a")
    for r2 in (r2a, r2b):
        r2.add_route("fc00:f::/64", via=ADDR["R3"], dev="down")
        r2.add_route("fc00:30::/64", via=ADDR["R3"], dev="down")
        r2.add_route("fc00:c::/64", via=ADDR["R1"], dev="up")
        r2.add_route("fc00:10::/64", via=ADDR["R1"], dev="up")
    r3.add_route("fc00:f::/64", via=ADDR["T"], dev="t")
    r3.add_route("fc00:2a::/64", via=ADDR["R2A"], dev="a")
    r3.add_route("fc00:2b::/64", via=ADDR["R2B"], dev="b")
    r3.add_route("fc00:c::/64", via=ADDR["R2A"], dev="a")
    r3.add_route("fc00:10::/64", via=ADDR["R2A"], dev="a")
    t.add_route("::/0", via=ADDR["R3"], dev="eth0")

    daemons = {}
    for name, router in (("R1", r1), ("R3", r3)):
        events, _action = install_end_oamp(router, OAMP_SEG[name])
        daemon = OampDaemon(router, events)
        daemon.start(sched)
        daemons[name] = daemon

    return sched, nodes, daemons


def trace(sched, nodes, segs=None):
    tr = SrTraceroute(
        nodes["C"],
        ADDR["T"],
        sched,
        oamp_segments=segs
        if segs is not None
        else {pton(ADDR[n]): pton(OAMP_SEG[n]) for n in OAMP_SEG},
    )
    return tr.run()


def test_full_trace_reaches_target(diamond):
    sched, nodes, _ = diamond
    hops = trace(sched, nodes)
    assert hops[-1].reached
    assert hops[-1].router == pton(ADDR["T"])
    assert len(hops) == 4


def test_oamp_hop_reports_all_ecmp_nexthops(diamond):
    sched, nodes, _ = diamond
    hops = trace(sched, nodes)
    first = hops[0]
    assert first.router == pton(ADDR["R1"])
    assert first.nexthops is not None
    assert set(first.nexthops) == {pton(ADDR["R2A"]), pton(ADDR["R2B"])}


def test_single_nexthop_hop_reports_one(diamond):
    sched, nodes, _ = diamond
    hops = trace(sched, nodes)
    r3_hop = next(h for h in hops if h.router == pton(ADDR["R3"]))
    assert r3_hop.nexthops == [pton(ADDR["T"])]


def test_legacy_fallback_without_oamp(diamond):
    sched, nodes, _ = diamond
    hops = trace(sched, nodes, segs={})  # no OAMP segments known
    assert hops[-1].reached
    assert all(h.nexthops is None for h in hops)
    assert hops[0].router == pton(ADDR["R1"])


def test_middle_hop_falls_back(diamond):
    sched, nodes, _ = diamond
    hops = trace(sched, nodes)
    middle = hops[1]
    assert middle.router in (pton(ADDR["R2A"]), pton(ADDR["R2B"]))
    assert middle.nexthops is None  # no OAMP on the R2 routers


def test_oamp_probe_consumed_not_forwarded(diamond):
    sched, nodes, daemons = diamond
    trace(sched, nodes)
    # Probes were answered by the daemons, not forwarded to the target.
    assert daemons["R1"].relayed >= 1
    assert daemons["R3"].relayed >= 1


def test_hop_result_formatting(diamond):
    sched, nodes, _ = diamond
    hops = trace(sched, nodes)
    text = str(hops[0])
    assert "fc00:10::1" in text
    assert "ecmp=" in text
    assert "(destination)" in str(hops[-1])
