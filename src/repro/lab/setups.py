"""The paper's two lab setups (Figure 1), declared as :class:`Topo` subclasses.

Setup 1 (§3.2): ``S1 —— R —— S2``.  Three Xeon servers with 10 Gb/s NICs;
S1 generates trafgen UDP with a two-segment SRH, R executes the endpoint
function under test, S2 sinks.

Setup 2 (§4.2): ``S1 —— A ==(two shaped paths via R)== M —— S2``.  A is
the ISP aggregation box, M the CPE (Turris Omnia), R shapes the two
access links with netem (50 Mb/s @ 30±5 ms RTT and 30 Mb/s @ 5±2 ms RTT).

``build_setup1``/``build_setup2`` keep their historical signatures and
return the same :class:`Setup1`/:class:`Setup2` records — now assembled
by ~20-line :class:`~repro.lab.topo.Topo` subclasses instead of a page
of hand wiring, and carrying the :class:`~repro.lab.network.Network`
they were built in (``setup.net``) so experiments use the builder's
config plane, generators and run loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..net.node import Node
from ..sim.link import Link
from ..sim.netem import NetemQdisc
from ..sim.scheduler import NS_PER_MS, Scheduler
from .network import Network
from .topo import Topo


@dataclass
class Setup1:
    """The §3.2 microbenchmark chain."""

    scheduler: Scheduler
    s1: Node
    r: Node
    s2: Node
    links: list[Link] = field(default_factory=list)
    net: Network | None = None

    S1_ADDR = "fc00:1::1"
    R_ADDR = "fc00:e::1"
    S2_ADDR = "fc00:2::2"
    FUNC_SEGMENT = "fc00:e::100"  # install the function under test here


class Setup1Topo(Topo):
    """``S1 — R — S2`` with plain forwarding routes installed."""

    def build(self, rate_bps: float = 10e9, link_delay_ns: int = 5000) -> None:
        net = self.net
        for name, addr in (
            ("S1", Setup1.S1_ADDR),
            ("R", Setup1.R_ADDR),
            ("S2", Setup1.S2_ADDR),
        ):
            net.add_node(name, addr=addr)
        net.add_link("S1", "R", rate_bps, link_delay_ns)  # S1.eth0 — R.eth0
        net.add_link("R", "S2", rate_bps, link_delay_ns)  # R.eth1 — S2.eth0
        net.config("S1", "ip -6 route add ::/0 via fc00:1::ff dev eth0")
        net.config("R", f"ip -6 route add fc00:1::/64 via {Setup1.S1_ADDR} dev eth0")
        net.config("R", f"ip -6 route add fc00:2::/64 via {Setup1.S2_ADDR} dev eth1")
        net.config("S2", "ip -6 route add ::/0 via fc00:2::ff dev eth0")

    def setup(self) -> Setup1:
        net = self.net
        return Setup1(net.scheduler, net["S1"], net["R"], net["S2"], list(net.links), net)


def build_setup1(rate_bps: float = 10e9, link_delay_ns: int = 5000) -> Setup1:
    """Build the S1—R—S2 chain through the declarative builder."""
    return Setup1Topo(rate_bps=rate_bps, link_delay_ns=link_delay_ns).setup()


@dataclass
class HybridLinkSpec:
    """One access link's shaping parameters (netem on R, §4.2)."""

    rate_bps: float
    rtt_ns: int
    jitter_rtt_ns: int

    @property
    def one_way_ns(self) -> int:
        return self.rtt_ns // 2

    @property
    def one_way_jitter_ns(self) -> int:
        return self.jitter_rtt_ns // 2


# The paper's two links: 50 Mb/s @ 30±5 ms and 30 Mb/s @ 5±2 ms.
PAPER_LINK0 = HybridLinkSpec(50e6, 30 * NS_PER_MS, 5 * NS_PER_MS)
PAPER_LINK1 = HybridLinkSpec(30e6, 5 * NS_PER_MS, 2 * NS_PER_MS)

# IGP link costs for running ``net.ctrl()`` on Setup 2: prefer the DSL
# side of both parallel-link pairs, so a DSL failure forces a detour
# onto LTE (the convergence/FRR scenario family) instead of vanishing
# into an ECMP tie.
SETUP2_IGP_COSTS = {
    ("A", "dsl"): 10,
    ("A", "lte"): 20,
    ("R", "a0"): 10,
    ("R", "a1"): 20,
    ("R", "m0"): 10,
    ("R", "m1"): 20,
    ("M", "dsl"): 10,
    ("M", "lte"): 20,
}


@dataclass
class Setup2:
    """The §4.2 hybrid-access testbed."""

    scheduler: Scheduler
    s1: Node  # server-side host
    a: Node  # aggregation box
    r: Node  # shaper
    m: Node  # CPE (Turris Omnia)
    s2: Node  # client LAN host
    links: list[Link] = field(default_factory=list)
    shapers: dict[str, NetemQdisc] = field(default_factory=dict)
    compensators: dict[str, NetemQdisc] = field(default_factory=dict)
    net: Network | None = None

    S1_ADDR = "fc00:1::1"
    S2_ADDR = "fc00:2::2"
    A_ADDR = "fc00:aa::1"
    M_ADDR = "fc00:bb::1"
    # Decap segments on each side, one per access link (End.DT6 targets).
    A_SEG = ("fc00:aa::d0", "fc00:aa::d1")
    M_SEG = ("fc00:bb::d0", "fc00:bb::d1")
    # End.DM segments for the TWD daemon's probes (§4.2 + §4.1).
    M_DM_SEG = ("fc00:bb::dd0", "fc00:bb::dd1")


class Setup2Topo(Topo):
    """The hybrid-access topology with shaping but *no* WRR yet.

    The hybrid use case (``repro.usecases.hybrid``) installs the WRR
    programs, decap segments and compensation on top of this.
    """

    def build(
        self,
        link0: HybridLinkSpec = PAPER_LINK0,
        link1: HybridLinkSpec = PAPER_LINK1,
        lan_rate_bps: float = 1e9,
        netem_seed: int = 7,
    ) -> None:
        S, net = Setup2, self.net
        net.add_node("S1", addr=S.S1_ADDR)
        net.add_node("A", addr=S.A_ADDR)
        net.add_node("R", addr="fc00:ee::1")
        net.add_node("M", addr=S.M_ADDR)
        net.add_node("S2", addr=S.S2_ADDR)

        fast = 1e9  # physical port rate; shaping happens in netem on R
        net.add_link("S1", "A", lan_rate_bps, 100_000, dev_a="eth0", dev_b="wan")
        net.add_link("A", "R", fast, 10_000, dev_a="dsl", dev_b="a0")
        net.add_link("A", "R", fast, 10_000, dev_a="lte", dev_b="a1")
        net.add_link("R", "M", fast, 10_000, dev_a="m0", dev_b="dsl")
        net.add_link("R", "M", fast, 10_000, dev_a="m1", dev_b="lte")
        net.add_link("M", "S2", lan_rate_bps, 10_000, dev_a="lan", dev_b="eth0")

        # netem shaping on R, both directions of each access link.
        for devname, spec, seed_off in (
            ("m0", link0, 0),
            ("a0", link0, 1),
            ("m1", link1, 2),
            ("a1", link1, 3),
        ):
            net.netem(
                "R",
                devname,
                rate_bps=spec.rate_bps,
                delay_ns=spec.one_way_ns,
                jitter_ns=spec.one_way_jitter_ns,
                seed=netem_seed + seed_off,
            )

        # Plain forwarding on R: the path is pinned by the decap segment.
        for seg, a_dev, m_dev in ((0, "a0", "m0"), (1, "a1", "m1")):
            net.config("R", f"route add {S.M_SEG[seg]}/128 via {S.M_ADDR} dev {m_dev}")
            net.config("R", f"route add {S.M_DM_SEG[seg]}/128 via {S.M_ADDR} dev {m_dev}")
            net.config("R", f"route add {S.A_SEG[seg]}/128 via {S.A_ADDR} dev {a_dev}")
        # Direct (non-aggregated) paths used before WRR is installed: pin to link 0.
        net.config("R", f"route add fc00:2::/64 via {S.M_ADDR} dev m0")
        net.config("R", f"route add fc00:bb::/64 via {S.M_ADDR} dev m0")
        net.config("R", f"route add fc00:1::/64 via {S.A_ADDR} dev a0")
        net.config("R", f"route add fc00:aa::/64 via {S.A_ADDR} dev a0")

        # Hosts.
        net.config("S1", f"route add ::/0 via {S.A_ADDR} dev eth0")
        net.config("S2", f"route add ::/0 via {S.M_ADDR} dev eth0")

        # Aggregation box: server side + per-segment access routes.
        net.config("A", f"route add fc00:1::/64 via {S.S1_ADDR} dev wan")
        net.config("A", f"route add {S.M_SEG[0]}/128 via fc00:ee::1 dev dsl")
        net.config("A", f"route add {S.M_SEG[1]}/128 via fc00:ee::1 dev lte")
        net.config("A", f"route add {S.M_DM_SEG[0]}/128 via fc00:ee::1 dev dsl")
        net.config("A", f"route add {S.M_DM_SEG[1]}/128 via fc00:ee::1 dev lte")
        net.config("A", "route add fc00:2::/64 via fc00:ee::1 dev dsl")  # WRR replaces
        net.config("A", "route add fc00:bb::/64 via fc00:ee::1 dev dsl")

        # CPE: LAN side + per-segment access routes.
        net.config("M", f"route add fc00:2::/64 via {S.S2_ADDR} dev lan")
        net.config("M", f"route add {S.A_SEG[0]}/128 via fc00:ee::1 dev dsl")
        net.config("M", f"route add {S.A_SEG[1]}/128 via fc00:ee::1 dev lte")
        net.config("M", "route add fc00:1::/64 via fc00:ee::1 dev dsl")  # WRR replaces
        net.config("M", "route add fc00:aa::/64 via fc00:ee::1 dev dsl")

    def setup(self) -> Setup2:
        net = self.net
        shapers = {
            dev: net.qdiscs[("R", dev)] for dev in ("m0", "a0", "m1", "a1")
        }
        return Setup2(
            net.scheduler,
            net["S1"],
            net["A"],
            net["R"],
            net["M"],
            net["S2"],
            list(net.links),
            shapers,
            net=net,
        )


def build_setup2(
    link0: HybridLinkSpec = PAPER_LINK0,
    link1: HybridLinkSpec = PAPER_LINK1,
    lan_rate_bps: float = 1e9,
    seed: int = 7,
) -> Setup2:
    """Build the hybrid-access topology through the declarative builder."""
    return Setup2Topo(
        link0=link0,
        link1=link1,
        lan_rate_bps=lan_rate_bps,
        netem_seed=seed,
    ).setup()
