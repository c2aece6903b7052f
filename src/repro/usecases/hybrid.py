"""§4.2 — Hybrid access networks: SRv6-BPF link aggregation.

An aggregation box (A) in the ISP and a CPE (M) bond two access links of
different capacity and latency.  Both run the same 120-SLOC eBPF WRR
scheduler on the BPF LWT hook: each packet toward the other side is
encapsulated with an SRH whose single segment pins it to one link; the
peer's native ``End.DT6`` decapsulates.

Plain TCP over the bond collapses (the paper measured 3.8 Mb/s of an
80 Mb/s aggregate) because the links' delay gap reorders segments.  The
fix is the paper's TWD extension of End.DM: a daemon on the aggregation
box probes both links' two-way delays and *delays the fastest path* with
a netem qdisc by half the measured gap, aligning one-way delays.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..ebpf import ArrayMap, PerfEventArrayMap
from ..lab import Setup2
from ..net.addr import as_addr
from ..net.iproute import IpRoute
from ..net.ipv6 import PROTO_UDP
from ..net.lwt_bpf import BpfLwt
from ..net.node import Node
from ..net.packet import Packet, make_udp_packet
from ..net.seg6 import push_outer_encap
from ..net.srh import DM_KIND_TWD, make_controller_tlv, make_dm_tlv, make_srh
from ..net.udp import UDP_HEADER_LEN
from ..progs import (
    WRR_CONFIG_SIZE,
    WRR_STATE_SIZE,
    wrr_config_value,
    wrr_prog,
    wrr_state_counters,
)
from ..sim.netem import NetemQdisc
from ..sim.scheduler import NS_PER_MS, Scheduler
from .delay import install_end_dm

TWD_PORT = 8890


@dataclass
class WrrHandle:
    """One direction's installed WRR scheduler."""

    lwt: BpfLwt
    config: ArrayMap
    state: ArrayMap

    def counters(self) -> tuple[int, int, int, int]:
        """(credit0, credit1, packets0, packets1) from the WRR state map (§4.2)."""
        return wrr_state_counters(self.state)

    def set_weights(self, w0: int, w1: int) -> None:
        """Rewrite the per-link weights in the config map at run time."""
        raw = bytearray(self.config.lookup((0).to_bytes(4, "little")))
        struct.pack_into("<II", raw, 32, w0, w1)
        self.config.update((0).to_bytes(4, "little"), bytes(raw))


def install_wrr(
    node: Node,
    prefix: str,
    seg_link0: str | bytes,
    seg_link1: str | bytes,
    weight0: int,
    weight1: int,
    jit: bool = True,
) -> WrrHandle:
    """Attach the WRR scheduler to ``node``'s route toward ``prefix``."""
    config = ArrayMap(f"wrr_cfg_{node.name}_{prefix}", value_size=WRR_CONFIG_SIZE, max_entries=1)
    state = ArrayMap(f"wrr_st_{node.name}_{prefix}", value_size=WRR_STATE_SIZE, max_entries=1)
    config.update(
        (0).to_bytes(4, "little"),
        wrr_config_value(seg_link0, seg_link1, weight0, weight1),
    )
    program = wrr_prog(config, state, jit=jit)
    lwt = BpfLwt(prog_out=program)
    node.add_route(prefix, encap=lwt)
    return WrrHandle(lwt, config, state)


class TwdDaemon:
    """Two-way-delay measurement + delay compensation (§4.2).

    Runs "on" the aggregation box: periodically emits one TWD probe per
    link (an SRv6 packet through the CPE's End.DM segment for that link,
    whose final segment is the querier itself), computes per-link RTT
    EWMAs from the returned probes, and sets a netem delay on the fastest
    link's egress equal to half the RTT gap.
    """

    PROBE_FORMAT = "<BQ"  # link id, tx timestamp

    def __init__(
        self,
        node: Node,
        scheduler: Scheduler,
        dm_segments: tuple[str, str],
        return_segments: tuple[str, str],
        compensators: tuple[NetemQdisc, NetemQdisc],
        port: int = TWD_PORT,
        ewma_alpha: float = 0.3,
        interval_ns: int = 100 * NS_PER_MS,
    ):
        self.node = node
        self.scheduler = scheduler
        self.dm_segments = tuple(as_addr(seg) for seg in dm_segments)
        # The probe's final segment is our own decap segment *on the same
        # link*, so the round trip measures that link's full RTT.
        self.return_segments = tuple(as_addr(seg) for seg in return_segments)
        self.compensators = compensators
        self.port = port
        self.ewma_alpha = ewma_alpha
        self.interval_ns = interval_ns
        self.rtt_ewma_ns: list[float | None] = [None, None]
        self.samples: list[tuple[int, int]] = []  # (link, rtt_ns)
        self.applied_delay_ns = 0
        self.compensated_link: int | None = None
        node.bind(self._on_probe_return, proto=PROTO_UDP, port=port)

    # -- probing -------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic two-way-delay probing on the scheduler (§4.2)."""
        self.scheduler.schedule(0, self._tick)

    def _tick(self) -> None:
        for link in (0, 1):
            self._send_probe(link)
        self.scheduler.schedule(self.interval_ns, self._tick)

    def _send_probe(self, link: int) -> None:
        now = self.scheduler.now_ns
        me = self.node.primary_address()
        inner = make_udp_packet(
            me, me, self.port, self.port, struct.pack(self.PROBE_FORMAT, link, now)
        )
        srh = make_srh(
            [self.dm_segments[link], self.return_segments[link]],
            next_header=41,
            tlvs=[make_dm_tlv(now, DM_KIND_TWD), make_controller_tlv(me, self.port)],
        )
        probe = Packet(push_outer_encap(bytes(inner.data), me, srh))
        self.node.send(probe)

    def _on_probe_return(self, pkt: Packet, node: Node, offset: int) -> None:
        payload = bytes(pkt.data[offset + UDP_HEADER_LEN :])
        if len(payload) < struct.calcsize(self.PROBE_FORMAT):
            return
        link, tx_ns = struct.unpack_from(self.PROBE_FORMAT, payload)
        if link not in (0, 1):
            return
        rtt = self.scheduler.now_ns - tx_ns
        self.samples.append((link, rtt))
        previous = self.rtt_ewma_ns[link]
        if previous is None:
            self.rtt_ewma_ns[link] = float(rtt)
        else:
            self.rtt_ewma_ns[link] = (
                (1 - self.ewma_alpha) * previous + self.ewma_alpha * rtt
            )
        self._recompute()

    # -- compensation ----------------------------------------------------------
    def _recompute(self) -> None:
        rtt0, rtt1 = self.rtt_ewma_ns
        if rtt0 is None or rtt1 is None:
            return
        # Compare the links' *base* RTTs: subtract the compensation already
        # in effect (probes cross the compensating qdisc once per round
        # trip), so the control loop converges instead of chasing its own
        # correction.
        base0 = rtt0 - self.compensators[0].delay_ns
        base1 = rtt1 - self.compensators[1].delay_ns
        fast = 0 if base0 < base1 else 1
        gap = abs(base1 - base0)
        one_way = max(0, int(gap / 2))
        self.compensated_link = fast
        self.applied_delay_ns = one_way
        self.compensators[fast].set_delay(one_way)
        self.compensators[1 - fast].set_delay(0)


@dataclass
class HybridAccess:
    """The fully assembled §4.2 deployment on a :class:`Setup2` topology."""

    setup: Setup2
    wrr_down: WrrHandle  # A -> M (toward the client LAN)
    wrr_up: WrrHandle  # M -> A (toward the ISP)
    dm_events: tuple[PerfEventArrayMap, PerfEventArrayMap]
    daemon: TwdDaemon | None = None


def deploy_hybrid_access(
    setup: Setup2,
    weights: tuple[int, int] = (5, 3),
    jit: bool = True,
    compensation: bool = False,
) -> HybridAccess:
    """Install decap segments, WRR schedulers and (optionally) the TWD
    delay-compensation daemon on a built Setup 2 topology.

    ``weights`` should match the link capacities (§4.2): the paper's
    50/30 Mb/s links give 5:3.
    """
    a, m = setup.a, setup.m

    # Native decapsulation segments (the kernel's static End.DT6),
    # installed through the textual config plane — the exact commands
    # the paper's testbed runs.  Setups carrying a builder use its
    # cached per-node planes (and shared object registry).
    for node, segs in ((a, Setup2.A_SEG), (m, Setup2.M_SEG)):
        plane = setup.net.plane(node) if setup.net is not None else IpRoute(node)
        for seg in segs:
            plane.execute(
                f"ip -6 route add {seg}/128 encap seg6local action End.DT6 table 254"
            )

    # End.DM (TWD mode) on the CPE, one segment per link (§4.2 extension).
    events0, _ = install_end_dm(m, Setup2.M_DM_SEG[0], jit=jit)
    events1, _ = install_end_dm(m, Setup2.M_DM_SEG[1], jit=jit)

    # The WRR schedulers replace the static routes installed by the
    # topology builder (more-specific prefixes are not needed: add_route
    # overwrites the same prefix).
    wrr_down = install_wrr(
        a, "fc00:2::/64", Setup2.M_SEG[0], Setup2.M_SEG[1], *weights, jit=jit
    )
    wrr_up = install_wrr(
        m, "fc00:1::/64", Setup2.A_SEG[0], Setup2.A_SEG[1], *weights, jit=jit
    )

    daemon = None
    if compensation:
        # The daemon's compensating qdiscs on the aggregation box's two
        # access devices (``tc qdisc add``, via the builder when the
        # setup carries one).
        if setup.net is not None:
            comp0 = setup.net.netem(a, "dsl", seed=101)
            comp1 = setup.net.netem(a, "lte", seed=102)
        else:
            comp0 = NetemQdisc(setup.scheduler, seed=101)
            comp1 = NetemQdisc(setup.scheduler, seed=102)
            a.devices["dsl"].qdisc = comp0
            a.devices["lte"].qdisc = comp1
        setup.compensators = {"dsl": comp0, "lte": comp1}
        daemon = TwdDaemon(
            a,
            setup.scheduler,
            Setup2.M_DM_SEG,
            Setup2.A_SEG,
            (comp0, comp1),
        )
        daemon.start()

    return HybridAccess(setup, wrr_down, wrr_up, (events0, events1), daemon)
