"""The IGP: per-node link-state speakers and the network-wide control plane.

Each :class:`IgpSpeaker` is a daemon bound to one node's UDP port 521
(listening on the all-routers group ``ff02::5``): it sends periodic
hellos on every link-attached device, forms adjacencies from the hellos
it hears, originates and floods LSAs, and — after a coalescing SPF
delay — runs Dijkstra over its :class:`~repro.ctrl.spf.LinkStateDb` and
programs the outcome **through the node's iproute2 textual plane**
(``ip -6 route replace/del``).  Converged state is therefore ordinary
FIB state: ``net.config(node, "route show")`` dumps it, and the dump
re-parses like any hand-written configuration.

:class:`ControlPlane` is the per-:class:`~repro.lab.network.Network`
orchestrator (``net.ctrl()``): it allocates each node a pair of SRv6
SIDs from the ``fcff::/16`` locator block (an ``End`` SID for transit
steering and an ``End.DT6`` SID for decap-and-route), starts every
speaker, and wires link carrier events to the fast-reroute layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..net.packet import make_udp_packet
from ..net.udp import UDP_HEADER_LEN
from ..sim.scheduler import NS_PER_MS
from .events import ControlBus
from .frr import FrrManager
from .spf import AdjacencyInfo, LinkStateDb, Lsa, run_spf

ALL_ROUTERS = "ff02::5"  # all-routers multicast group the IGP listens on
IGP_PORT = 521  # hello/LSA transport (the RIPng port, reused)

HELLO_INTERVAL_NS = 50 * NS_PER_MS
SPF_DELAY_NS = 5 * NS_PER_MS
DEFAULT_COST = 10


@dataclass
class Adjacency:
    """A live neighbor on one local device."""

    neighbor: str
    via: str  # neighbor's interface address (gateway for routes)
    dev: str  # local device toward the neighbor
    remote_dev: str  # the neighbor's device on the same link (from hellos)
    cost: int
    last_heard_ns: int


class IgpSpeaker:
    """One node's link-state routing daemon."""

    def __init__(
        self,
        ctrl: "ControlPlane",
        node,
        plane,
        *,
        sid: str | None = None,
        dt6_sid: str | None = None,
        extra_prefixes: tuple[str, ...] = (),
    ):
        self.ctrl = ctrl
        self.node = node
        self.name = node.name
        self.plane = plane
        self.scheduler = ctrl.net.scheduler
        self.bus = ctrl.bus
        self.sid = sid
        self.dt6_sid = dt6_sid
        self.extra_prefixes = tuple(extra_prefixes)
        self.adjacencies: dict[str, Adjacency] = {}  # keyed by local dev
        self.lsdb = LinkStateDb()
        self.seq = 0
        # prefix -> rendered command body last programmed, so SPF only
        # issues commands on change; prefix -> ECMP first-hop set and
        # prefix -> chosen origin node for FRR (repairs must target the
        # same anycast instance routing picked).
        self.programmed: dict[str, str] = {}
        self.routes: dict[str, tuple[AdjacencyInfo, ...]] = {}
        self.route_origins: dict[str, str] = {}
        self.frr: FrrManager | None = None
        self._spf_event = None
        self._timers = []
        self._listener = None
        self._bootstrap = None  # the t=0 first-hello one-shot
        self.started = False

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Install SIDs + the all-routers route, bind, and start timers."""
        self.plane.execute(f"route add local {ALL_ROUTERS}/128")
        if self.sid:
            self.plane.execute(
                f"route add {self.sid}/128 encap seg6local action End"
            )
        if self.dt6_sid:
            self.plane.execute(
                f"route add {self.dt6_sid}/128 encap seg6local action End.DT6 table 254"
            )
        self._listener = self.node.bind(self._on_packet, proto=17, port=IGP_PORT)
        hello = self.ctrl.hello_interval_ns
        self._timers.append(self.scheduler.every(hello, self._send_hellos))
        self._timers.append(self.scheduler.every(hello, self._check_dead))
        self._bootstrap = self.scheduler.schedule(0, self._send_hellos)
        self.started = True
        self._originate_lsa()

    def stop(self) -> None:
        """Quiesce the daemon: no more hellos, detection, or programming.

        Routes already in the FIB stay — stopping a routing daemon does
        not flush the kernel FIB.
        """
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        if self._bootstrap is not None:
            self.scheduler.cancel(self._bootstrap)  # no-op if it already fired
            self._bootstrap = None
        if self._spf_event is not None:
            self.scheduler.cancel(self._spf_event)
            self._spf_event = None
        if self._listener is not None:
            try:
                self.node.listeners.remove(self._listener)
            except ValueError:
                pass
            self._listener = None
        self.started = False

    # -- message TX ----------------------------------------------------------
    def _link_devices(self) -> list:
        return [
            dev
            for _name, dev in sorted(self.node.devices.items())
            if dev.link_endpoint is not None
        ]

    def _send(self, payload: dict, dev) -> None:
        pkt = make_udp_packet(
            self.node.primary_address(),
            ALL_ROUTERS,
            IGP_PORT,
            IGP_PORT,
            json.dumps(payload, sort_keys=True).encode(),
        )
        dev.transmit(pkt)

    def _send_hellos(self) -> None:
        from ..net.addr import ntop

        addr = ntop(self.node.primary_address())
        for dev in self._link_devices():
            # "d" names the egress device, so the receiver learns which
            # remote interface its adjacency lands on — the link identity
            # TI-LFA needs to exclude one parallel link but not its twin.
            self._send({"t": "hello", "n": self.name, "a": addr, "d": dev.name}, dev)

    def _flood(self, lsa_wire: dict, except_dev: str | None = None) -> None:
        message = {"t": "lsa", "lsa": lsa_wire}
        for dev in self._link_devices():
            if dev.name != except_dev:
                self._send(message, dev)

    # -- message RX ----------------------------------------------------------
    def _on_packet(self, pkt, _node, offset: int) -> None:
        payload = bytes(pkt.data[offset + UDP_HEADER_LEN :])
        if not payload:
            return
        try:
            message = json.loads(payload)
        except (ValueError, UnicodeDecodeError):
            return
        kind = message.get("t")
        if kind == "hello":
            self._on_hello(message, pkt.input_dev)
        elif kind == "lsa":
            self._on_lsa(message, pkt.input_dev)

    def _on_hello(self, message: dict, dev: str | None) -> None:
        neighbor, via = message.get("n"), message.get("a")
        remote_dev = message.get("d", "")
        if dev is None or neighbor is None or neighbor == self.name:
            return
        now = self.scheduler.now_ns
        adj = self.adjacencies.get(dev)
        if adj is not None and adj.neighbor == neighbor:
            adj.last_heard_ns = now
            adj.via = via
            adj.remote_dev = remote_dev
            return
        self.adjacencies[dev] = Adjacency(
            neighbor,
            via,
            dev,
            remote_dev,
            self.ctrl.cost_of(self.name, dev, neighbor),
            now,
        )
        self.bus.publish(self.name, "adjacency-up", neighbor=neighbor, dev=dev)
        self._originate_lsa()
        # Database sync for the new neighbor: push everything we hold out
        # of that interface (the simplified DBD exchange).
        device = self.node.devices.get(dev)
        if device is not None and device.link_endpoint is not None:
            for lsa in self.lsdb.lsas.values():
                if lsa.origin != self.name:
                    self._send({"t": "lsa", "lsa": lsa.to_wire()}, device)

    def _on_lsa(self, message: dict, dev: str | None) -> None:
        try:
            lsa = Lsa.from_wire(message["lsa"])
        except (KeyError, TypeError, ValueError):
            return
        if lsa.origin == self.name:
            return  # we are authoritative for our own LSA
        if self.lsdb.insert(lsa):
            self._flood(lsa.to_wire(), except_dev=dev)
            self._schedule_spf()

    # -- LSA origination ------------------------------------------------------
    def own_prefixes(self) -> tuple[str, ...]:
        from ..net.addr import ntop

        prefixes = [f"{ntop(addr)}/128" for addr in self.node.addresses]
        if self.sid:
            prefixes.append(f"{self.sid}/128")
        if self.dt6_sid:
            prefixes.append(f"{self.dt6_sid}/128")
        prefixes.extend(self.extra_prefixes)
        return tuple(dict.fromkeys(prefixes))

    def _originate_lsa(self) -> None:
        self.seq += 1
        lsa = Lsa(
            origin=self.name,
            seq=self.seq,
            adjacencies=tuple(
                AdjacencyInfo(
                    adj.neighbor, adj.cost, adj.dev, adj.via, adj.remote_dev
                )
                for _dev, adj in sorted(self.adjacencies.items())
            ),
            prefixes=self.own_prefixes(),
            sid=self.sid,
            dt6_sid=self.dt6_sid,
        )
        self.lsdb.insert(lsa)
        self.bus.publish(self.name, "lsa-originated", seq=self.seq)
        self._flood(lsa.to_wire())
        self._schedule_spf()

    # -- failure detection ----------------------------------------------------
    def _check_dead(self) -> None:
        now = self.scheduler.now_ns
        dead = [
            dev
            for dev, adj in self.adjacencies.items()
            if now - adj.last_heard_ns > self.ctrl.dead_interval_ns
        ]
        if not dead:
            return
        for dev in dead:
            adj = self.adjacencies.pop(dev)
            self.bus.publish(
                self.name, "adjacency-down", neighbor=adj.neighbor, dev=dev
            )
        self._originate_lsa()

    # -- SPF and route programming --------------------------------------------
    def _schedule_spf(self) -> None:
        if self._spf_event is None or self._spf_event[5] is None:  # [5]: None once cancelled
            self._spf_event = self.scheduler.schedule(
                self.ctrl.spf_delay_ns, self._run_spf
            )

    def _run_spf(self) -> None:
        self._spf_event = None
        result = run_spf(self.lsdb, self.name)
        own = set(self.own_prefixes())
        desired: dict[str, tuple[AdjacencyInfo, ...]] = {}
        origin_of: dict[str, tuple[int, str]] = {}
        for origin in self.lsdb.nodes():
            if origin == self.name or not result.reachable(origin):
                continue
            hops = result.first_hops.get(origin)
            if not hops:
                continue
            rank = (result.dist[origin], origin)
            for prefix in self.lsdb.lsas[origin].prefixes:
                if prefix in own:
                    continue
                # Nearest origin wins when a prefix is advertised twice
                # (anycast); ties break on name for determinism.
                if prefix in origin_of and origin_of[prefix] <= rank:
                    continue
                origin_of[prefix] = rank
                desired[prefix] = hops
        changed = 0
        for prefix in sorted(desired):
            body = self._render_route(prefix, desired[prefix])
            if self.programmed.get(prefix) == body:
                continue
            self.plane.execute(f"route replace {body}")
            self.programmed[prefix] = body
            changed += 1
        for prefix in sorted(set(self.programmed) - set(desired)):
            self.plane.execute(f"route del {prefix}")
            self.programmed.pop(prefix, None)
            changed += 1
        self.routes = dict(desired)
        self.route_origins = {p: origin_of[p][1] for p in desired}
        self.bus.publish(
            self.name, "spf-run", routes=len(desired), changed=changed
        )
        if self.frr is not None:
            self.frr.recompute()

    @staticmethod
    def _render_route(prefix: str, hops: tuple[AdjacencyInfo, ...]) -> str:
        if len(hops) == 1:
            return f"{prefix} via {hops[0].via} dev {hops[0].dev}"
        blocks = " ".join(f"nexthop via {h.via} dev {h.dev}" for h in hops)
        return f"{prefix} {blocks}"


class ControlPlane:
    """The network-wide IGP: one speaker per node, one event bus.

    Created through :meth:`repro.lab.network.Network.ctrl`.  ``frr=True``
    arms the TI-LFA layer: every speaker precomputes per-destination
    backup routes and installs them the instant a local link loses
    carrier, instead of waiting out the hello dead interval.
    """

    def __init__(
        self,
        net,
        *,
        hello_interval_ns: int = HELLO_INTERVAL_NS,
        dead_interval_ns: int | None = None,
        spf_delay_ns: int = SPF_DELAY_NS,
        frr: bool = False,
        costs: dict | None = None,
        advertise: dict | None = None,
        default_cost: int = DEFAULT_COST,
        nodes: "list[str] | None" = None,
    ):
        self.net = net
        self.hello_interval_ns = int(hello_interval_ns)
        self.dead_interval_ns = int(
            dead_interval_ns
            if dead_interval_ns is not None
            else 4 * hello_interval_ns
        )
        self.spf_delay_ns = int(spf_delay_ns)
        self.frr_enabled = bool(frr)
        self.costs = dict(costs or {})
        self.default_cost = int(default_cost)
        self.bus = ControlBus(net.scheduler)
        advertise = advertise or {}
        names = sorted(nodes) if nodes is not None else sorted(net.nodes)
        self.sids: dict[str, str] = {}
        self.dt6_sids: dict[str, str] = {}
        self.speakers: dict[str, IgpSpeaker] = {}
        for index, name in enumerate(names, start=1):
            sid, dt6_sid = f"fcff:{index:x}::e", f"fcff:{index:x}::d"
            self.sids[name] = sid
            self.dt6_sids[name] = dt6_sid
            speaker = IgpSpeaker(
                self,
                net.node(name),
                net.plane(name),
                sid=sid,
                dt6_sid=dt6_sid,
                extra_prefixes=tuple(advertise.get(name, ())),
            )
            if self.frr_enabled:
                speaker.frr = FrrManager(speaker)
            self.speakers[name] = speaker
        for link in net.links:
            link.watchers.append(self._on_carrier)

    def cost_of(self, node: str, dev: str, neighbor: str) -> int:
        """Resolve a link cost: per-(node, dev), per node pair, or default."""
        for key in ((node, dev), (node, neighbor), (neighbor, node)):
            if key in self.costs:
                return int(self.costs[key])
        return self.default_cost

    def start(self) -> "ControlPlane":
        for name in sorted(self.speakers):
            self.speakers[name].start()
        return self

    def stop(self) -> None:
        """Quiesce every speaker and detach from link carrier events.

        Programmed FIB state (routes, SIDs) remains — inspectable and
        still forwarding, exactly like killing a routing daemon on a
        router.  Arming a second control plane on the same network is
        not supported.
        """
        for speaker in self.speakers.values():
            speaker.stop()
        for link in self.net.links:
            if self._on_carrier in link.watchers:
                link.watchers.remove(self._on_carrier)

    # -- carrier events --------------------------------------------------------
    def _on_carrier(self, link, up: bool) -> None:
        """Loss-of-light fan-out: purely local knowledge at each end."""
        for dev in (link.dev_a, link.dev_b):
            name = getattr(dev.node, "name", None)
            speaker = self.speakers.get(name)
            if speaker is None or not speaker.started:
                continue  # a stopped daemon neither observes nor programs
            self.bus.publish(
                name, "carrier-up" if up else "carrier-down", dev=dev.name
            )
            if not up and speaker.frr is not None:
                speaker.frr.on_carrier_down(dev.name)
            if up:
                # A flap shorter than the dead interval changes no LSA —
                # hellos just resume — so nothing else would overwrite an
                # active FRR repair.  Re-run SPF: the repair invalidated
                # its prefixes' programmed-state memo, so the desired
                # (pre-failure) routes are reissued.
                speaker._schedule_spf()

    # -- inspection ------------------------------------------------------------
    def converged(self) -> bool:
        """True when every speaker's LSDB agrees and no SPF is pending."""
        versions = {
            tuple(sorted((l.origin, l.seq) for l in s.lsdb.lsas.values()))
            for s in self.speakers.values()
        }
        return len(versions) == 1 and all(
            s._spf_event is None for s in self.speakers.values()
        )

    def routes(self, node: str) -> list[str]:
        """The node's converged FIB, as replayable ``route show`` lines."""
        return self.net.config(node, "route show")
