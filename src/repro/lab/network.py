"""The declarative network builder: topology, config plane, experiment runs.

:class:`Network` is the one sanctioned way to construct a scenario.  It
owns the :class:`~repro.sim.scheduler.Scheduler`, creates nodes and
devices, wires :class:`~repro.sim.link.Link`/:class:`~repro.sim.netem.NetemQdisc`/
:class:`~repro.sim.cpu.CpuQueue` objects onto it, and routes *all*
configuration through the :class:`~repro.net.iproute.IpRoute` textual
front-end — the same ``ip -6 route`` syntax an operator would type on
the paper's testbed.  The mininet ``Topo.build()`` idiom
(``addHost``/``addLink(bw=, delay=, loss=)``) is the model: scenario
construction is a handful of declarative calls, not twenty lines of
``add_device``/``add_route`` plumbing.

    net = Network(seed=7)
    net.add_node("S1", addr="fc00:1::1")
    net.add_node("R", addr="fc00:e::1")
    net.add_link("S1", "R", rate_bps=10e9, delay_ns=5000)
    net.config("S1", "ip -6 route add ::/0 via fc00:e::1 dev eth0")
    net.attach("R", "fc00:e::100", EndBPF(prog))
    flow = net.trafgen("S1", dst="fc00:2::2", rate_bps=100e6)
    meter = net.sink("S2")
    flow.start(duration_ns=NS_PER_SEC)
    net.run(until_ns=2 * NS_PER_SEC)
    print(meter.goodput_bps())

``Network(seed=N)`` makes a run bit-reproducible end to end: every
node RNG (eBPF ``get_prandom_u32``), netem jitter/loss draw, traffic
generator RNG and ECMP hash salt is derived deterministically from the
one experiment seed.  With ``seed=None`` components fall back to their
own deterministic defaults (unsalted ECMP, per-name node seeds), which
keeps a builder-made network byte-identical to hand-wired code.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Iterable

from ..ebpf import Program
from ..net.addr import as_addr, ntop
from ..net.iproute import IpRoute, register_object
from ..net.ipv6 import PROTO_UDP
from ..net.node import Node
from ..net.seg6local import Seg6LocalAction
from ..sim.cpu import CostModel, CpuQueue
from ..sim.link import Link
from ..sim.netem import NetemQdisc
from ..sim.scheduler import Scheduler
from ..sim.stats import FlowMeter
from ..sim.tcp import TcpReceiver, TcpSender, make_connection
from ..sim.trafgen import Srv6UdpFlood, UdpFlow


class Network:
    """Declarative builder for nodes, links, config and experiment runs."""

    def __init__(
        self,
        seed: int | None = None,
        objects: dict[str, Program] | None = None,
        shards: int = 1,
    ):
        self.seed = seed
        self.shards = int(shards)
        self.scheduler = Scheduler()
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []
        self.qdiscs: dict[tuple[str, str], NetemQdisc] = {}  # (node, dev)
        self.flows: list[UdpFlow] = []
        self.meters: list[FlowMeter] = []
        # eBPF object registry shared (by reference) with every node's
        # IpRoute plane: net.load() makes a program configurable by name.
        self.objects: dict[str, Program] = dict(objects or {})
        self._planes: dict[str, IpRoute] = {}
        self._auto_addr = 0
        self._ctrl = None  # repro.ctrl.ControlPlane, created by ctrl()
        self._metrics = None  # repro.telemetry.MetricsRegistry, lazy
        self._telemetry = None  # repro.telemetry.TelemetrySession
        self._meter_nodes: list[str] = []  # sink() owners, for repro.shard
        self._sharded = False  # a sharded run is terminal for the network
        self._tracer = None  # repro.trace.Tracer, created by trace()

    # -- seed derivation -------------------------------------------------------
    def derive_seed(self, *key) -> int | None:
        """A stable per-component seed from the experiment seed.

        Returns None when the network has no seed, so components keep
        their own deterministic defaults.  The full experiment seed is
        mixed into the digest (not masked), so seeds differing only in
        high bits derive distinct experiments.
        """
        if self.seed is None:
            return None
        return zlib.crc32(repr((self.seed,) + key).encode())

    # -- lookup ----------------------------------------------------------------
    def node(self, ref: "Node | str") -> Node:
        """Resolve a node by name (or pass a Node through)."""
        if isinstance(ref, Node):
            return ref
        try:
            return self.nodes[ref]
        except KeyError:
            raise KeyError(f"no node named {ref!r} in this network") from None

    def __getitem__(self, name: str) -> Node:
        return self.node(name)

    @property
    def now_ns(self) -> int:
        return self.scheduler.now_ns

    # -- topology --------------------------------------------------------------
    def add_node(
        self,
        name: str,
        addr: "str | bytes | Iterable[str | bytes] | None" = None,
        *,
        devices: Iterable[str] = (),
        seed: int | None = None,
        shard: int | None = None,
    ) -> Node:
        """Create a node on the shared scheduler clock.

        ``addr`` assigns local addresses: a single address, an iterable,
        or None to auto-assign a unique ``fd00::/16`` address (pass an
        empty tuple for an address-less node).  ``devices`` pre-creates
        named detached devices (useful for single-node datapath tests
        that read ``tx_buffer`` directly); link-facing devices are
        normally auto-created by :meth:`add_link`.  ``shard`` pins the
        node to one shard of a ``run(shards=K)`` partition (see
        :mod:`repro.shard`).
        """
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        node_seed = seed if seed is not None else self.derive_seed("node", name)
        node = Node(name, seed=node_seed)
        node.clock = self.scheduler
        ecmp_seed = self.derive_seed("ecmp", name)
        if ecmp_seed is not None:
            node.ecmp_seed = ecmp_seed
        if shard is not None:
            node.shard = int(shard)
        self.nodes[name] = node
        for dev in devices:
            node.add_device(dev)
        if addr is None:
            self._auto_addr += 1
            addr = f"fd00::{self._auto_addr:x}"
        addrs = [addr] if isinstance(addr, (str, bytes)) else list(addr)
        for one in addrs:
            node.add_address(one)
        if self._tracer is not None:
            # A tracer is armed: late-added nodes finalise traces too.
            node.tracer = self._tracer
        return node

    def _next_dev_name(self, node: Node) -> str:
        n = 0
        while f"eth{n}" in node.devices:
            n += 1
        return f"eth{n}"

    def add_link(
        self,
        a: "Node | str",
        b: "Node | str",
        rate_bps: float = 10e9,
        delay_ns: int = 1000,
        *,
        jitter_ns: int = 0,
        loss: float = 0.0,
        netem: "dict | tuple[dict | None, dict | None] | None" = None,
        queue_limit: int | None = 1000,
        dev_a: str | None = None,
        dev_b: str | None = None,
    ) -> Link:
        """Wire a bidirectional link, auto-creating a device on each end.

        Devices are named ``eth0``, ``eth1``, … per node unless
        ``dev_a``/``dev_b`` name them (``wan``, ``dsl``, …).

        Shaping follows the mininet ``addLink(bw=, delay=, loss=)``
        idiom: ``jitter_ns``/``loss`` attach a netem qdisc to *both*
        directions, and the propagation delay moves into the netem so
        the mean latency stays ``delay_ns`` with ±``jitter_ns`` of
        spread.  For asymmetric or fully explicit shaping pass
        ``netem=`` — a dict of :class:`~repro.sim.netem.NetemQdisc`
        keyword arguments applied to both directions, or a
        ``(a_egress, b_egress)`` tuple of dicts/None.  Netem RNG seeds
        are derived from the experiment seed unless the dict names one.
        """
        node_a, node_b = self.node(a), self.node(b)
        da = node_a.add_device(dev_a or self._next_dev_name(node_a))
        db = node_b.add_device(dev_b or self._next_dev_name(node_b))
        shape_a = shape_b = None
        if netem is not None:
            if jitter_ns or loss:
                raise ValueError(
                    "pass shaping either as jitter_ns/loss shorthand or as "
                    "an explicit netem= spec, not both"
                )
            if isinstance(netem, dict):
                shape_a, shape_b = dict(netem), dict(netem)
            else:
                one, two = netem
                shape_a = dict(one) if one is not None else None
                shape_b = dict(two) if two is not None else None
        elif jitter_ns or loss:
            shaped = {"delay_ns": delay_ns, "jitter_ns": jitter_ns, "loss": loss}
            shape_a, shape_b = dict(shaped), dict(shaped)
            delay_ns = 0  # the netem carries the latency budget
        link = Link(self.scheduler, da, db, rate_bps, delay_ns, queue_limit)
        self.links.append(link)
        if self._ctrl is not None:
            # A control plane is armed: the new link must deliver carrier
            # events like the ones that existed when ctrl() ran.
            link.watchers.append(self._ctrl._on_carrier)
        if shape_a is not None:
            self.netem(node_a, da.name, **shape_a)
        if shape_b is not None:
            self.netem(node_b, db.name, **shape_b)
        return link

    def find_link(self, a: "Node | str", b: "Node | str", dev: str | None = None) -> Link:
        """The link joining ``a`` and ``b`` (``dev`` names a's device when
        parallel links exist between the pair)."""
        node_a, node_b = self.node(a), self.node(b)
        matches = []
        for link in self.links:
            ends = {id(link.dev_a.node), id(link.dev_b.node)}
            if ends != {id(node_a), id(node_b)}:
                continue
            a_dev = link.dev_a if link.dev_a.node is node_a else link.dev_b
            if dev is not None and a_dev.name != dev:
                continue
            matches.append(link)
        if not matches:
            raise KeyError(f"no link between {node_a.name} and {node_b.name}")
        if len(matches) > 1:
            raise KeyError(
                f"{len(matches)} parallel links between {node_a.name} and "
                f"{node_b.name}; disambiguate with dev="
            )
        return matches[0]

    def fail_link(
        self,
        a: "Node | str",
        b: "Node | str",
        *,
        dev: str | None = None,
        at_ns: int | None = None,
    ) -> Link:
        """Fail the a—b link (now, or at ``at_ns`` on the event loop).

        In-flight deliveries on the link are lost, new sends are dropped,
        and every carrier watcher (the control plane's fast-reroute
        layer) is notified at the failure instant.
        """
        link = self.find_link(a, b, dev)
        if at_ns is None:
            link.set_down()
        else:
            self.scheduler.schedule_at(at_ns, link.set_down)
        return link

    def recover_link(
        self,
        a: "Node | str",
        b: "Node | str",
        *,
        dev: str | None = None,
        at_ns: int | None = None,
    ) -> Link:
        """Bring a failed a—b link back (now, or at ``at_ns``)."""
        link = self.find_link(a, b, dev)
        if at_ns is None:
            link.set_up()
        else:
            self.scheduler.schedule_at(at_ns, link.set_up)
        return link

    def netem(self, node: "Node | str", dev: str, **kwargs) -> NetemQdisc:
        """Attach a netem qdisc to one device's egress (``tc qdisc add``).

        Accepts :class:`~repro.sim.netem.NetemQdisc` keyword arguments
        (``rate_bps``, ``delay_ns``, ``jitter_ns``, ``loss``,
        ``ordered``, ``seed``, …).  The RNG seed, unless given, is
        derived from the experiment seed and the (node, device) pair —
        distinct per qdisc, reproducible per run.
        """
        target = self.node(node)
        if dev not in target.devices:
            raise KeyError(f"{target.name}: no device {dev!r}")
        if "seed" not in kwargs:
            derived = self.derive_seed("netem", target.name, dev)
            kwargs["seed"] = (
                derived
                if derived is not None
                else zlib.crc32(f"{target.name}/{dev}".encode())
            )
        qdisc = NetemQdisc(self.scheduler, **kwargs)
        target.devices[dev].qdisc = qdisc
        self.qdiscs[(target.name, dev)] = qdisc
        return qdisc

    def cpu(
        self, node: "Node | str", model: CostModel, queue_limit: int = 1000
    ) -> CpuQueue:
        """Attach a CPU cost model to a node (replaces any): every packet
        the node receives queues for its modelled cost before it is routed."""
        target = self.node(node)
        target.cpu = CpuQueue(self.scheduler, model, target, queue_limit=queue_limit)
        return target.cpu

    # -- configuration plane ----------------------------------------------------
    def load(self, name: str, program, maps=None, jit: bool = True) -> Program:
        """Register an eBPF object so ``config`` can reference ``obj <name>``.

        ``program`` is either an already-loaded
        :class:`~repro.ebpf.program.Program`, or eBPF assembly text in the
        kernel ``.s`` syntax (see :mod:`repro.ebpf.text`) — the textual
        path assembles, links and verifies here, so a bad source fails at
        ``load`` time with an ``AsmError``/``LinkError``/``VerifierError``
        rather than when a route first references it.  A
        :class:`pathlib.Path` is read as a ``.s`` file.  ``maps`` supplies
        pre-created map instances to textual programs (by symbol name).
        """
        if isinstance(program, Path):
            program = program.read_text()
        if isinstance(program, str):
            program = Program(program, maps=maps, name=name, jit=jit)
        elif maps is not None:
            raise TypeError("maps= only applies to textual .s programs")
        self.objects[name] = program
        return program

    def plane(self, node: "Node | str") -> IpRoute:
        """The node's ``ip -6`` configuration plane (created on first use)."""
        target = self.node(node)
        if target.name not in self._planes:
            self._planes[target.name] = IpRoute(target, self.objects)
        return self._planes[target.name]

    def config(self, node: "Node | str", command: str):
        """Apply one iproute2-style command to a node.

        Accepts the full operator syntax (``ip -6 route add …``,
        ``ip -6 route del/replace/show``, ``ip -6 addr add …``) or the
        same with the ``ip -6`` prefix omitted.  This is the *only*
        configuration door the builder offers: everything an experiment
        sets up is expressible — and replayable — as the commands an
        operator would type on the paper's testbed.
        """
        return self.plane(node).execute(command)

    def attach(
        self, node: "Node | str", segment: str | bytes, action: "Seg6LocalAction | Program"
    ):
        """Install a seg6local action (e.g. ``EndBPF(prog)``) on a local segment.

        A bare :class:`~repro.ebpf.program.Program` is wrapped in
        ``End.BPF``, matching the paper's deployment unit (§3).  An
        ``End.BPF`` program is auto-registered in the object registry,
        so ``route show`` output names it and replays.
        """
        from ..net.seg6local import EndBPF

        if isinstance(action, Program):
            action = EndBPF(action)
        if not isinstance(action, Seg6LocalAction):
            raise TypeError(
                "attach() expects a Seg6LocalAction or a Program, "
                f"got {type(action).__name__}"
            )
        if isinstance(action, EndBPF):
            self._register_program(action.program)
        target = self.node(node)
        return target.add_route(f"{ntop(as_addr(segment))}/128", encap=action)

    def _register_program(self, program: Program) -> str:
        """Ensure ``program`` is in the object registry; return its name."""
        return register_object(self.objects, program)

    # -- workload --------------------------------------------------------------
    def trafgen(
        self,
        node: "Node | str",
        dst: str | bytes | None = None,
        *,
        path: list | None = None,
        rate_bps: float = 100e6,
        payload_size: int = 1400,
        src: str | bytes | None = None,
        **kwargs,
    ) -> UdpFlow:
        """Create a constant-rate UDP generator on a node.

        ``dst`` makes an iperf3-style plain-IPv6 flow
        (:class:`~repro.sim.trafgen.UdpFlow`); ``path`` makes a
        trafgen-style SRv6 flood through a segment list
        (:class:`~repro.sim.trafgen.Srv6UdpFlood`).  The generator's RNG
        is derived from the experiment seed.  Call ``.start()`` to begin.
        """
        source = self.node(node)
        src = src if src is not None else ntop(source.primary_address())
        rng_seed = self.derive_seed("trafgen", source.name, len(self.flows))
        if rng_seed is not None and "seed" not in kwargs:
            kwargs["seed"] = rng_seed
        if (dst is None) == (path is None):
            raise ValueError("trafgen needs exactly one of dst= or path=")
        if path is not None:
            flow = Srv6UdpFlood(
                self.scheduler, source, src, path, rate_bps, payload_size, **kwargs
            )
        else:
            flow = UdpFlow(
                self.scheduler, source, src, dst, rate_bps, payload_size, **kwargs
            )
        self.flows.append(flow)
        # Per-network ids: sampled-trace admission is a function of (seed,
        # topology), not of how many flows the process built before.
        flow.flow_id = len(self.flows)
        if self._tracer is not None and self._tracer.admits_flow(flow.flow_id):
            flow.tracer = self._tracer
        return flow

    def sink(
        self,
        node: "Node | str",
        port: int | None = 5201,
        proto: int = PROTO_UDP,
        name: str | None = None,
    ) -> FlowMeter:
        """Bind a :class:`~repro.sim.stats.FlowMeter` listener on a node."""
        target = self.node(node)
        meter = FlowMeter(name or f"{target.name}:{port}")
        target.bind(meter.on_packet, proto=proto, port=port)
        self.meters.append(meter)
        self._meter_nodes.append(target.name)
        return meter

    def tcp(
        self,
        sender: "Node | str",
        receiver: "Node | str",
        src: str | bytes | None = None,
        dst: str | bytes | None = None,
        port: int = 5000,
        **sender_kwargs,
    ) -> tuple[TcpSender, TcpReceiver]:
        """Wire a TCP sender/receiver pair between two nodes."""
        snd, rcv = self.node(sender), self.node(receiver)
        src = src if src is not None else ntop(snd.primary_address())
        dst = dst if dst is not None else ntop(rcv.primary_address())
        return make_connection(self.scheduler, snd, rcv, src, dst, port, **sender_kwargs)

    # -- control plane -----------------------------------------------------------
    def ctrl(self, **kwargs):
        """Enable the IGP control plane (:class:`repro.ctrl.ControlPlane`).

        Creates one :class:`~repro.ctrl.igp.IgpSpeaker` per node, assigns
        SRv6 SIDs, starts hello/LSA exchange on the shared scheduler, and
        returns the started plane.  Keyword arguments are forwarded
        (``hello_interval_ns=``, ``dead_interval_ns=``, ``spf_delay_ns=``,
        ``frr=True``, ``costs=``, ``advertise=``, ``nodes=``).  Call it
        after the topology is built, before :meth:`run`.
        """
        from ..ctrl.igp import ControlPlane

        if self._ctrl is not None:
            raise RuntimeError("this network already has a control plane")
        self._ctrl = ControlPlane(self, **kwargs).start()
        return self._ctrl

    # -- observability -----------------------------------------------------------
    @property
    def metrics(self):
        """The network's :class:`~repro.telemetry.MetricsRegistry` (lazy).

        Every counter the simulation keeps — node/device/link/CPU
        counters, per-SID seg6local actions, BPF verdicts per hook, perf
        rings, flow meters, IGP state, the global JIT caches — is
        readable here, labelled by ``(node, device, sid, hook)``.
        Collection snapshots the live structs; nothing is added to the
        datapath.
        """
        if self._metrics is None:
            from ..telemetry import MetricsRegistry, instrument_network

            self._metrics = instrument_network(MetricsRegistry(), self)
        return self._metrics

    def telemetry(
        self,
        interval_ms: "int | float" = 10,
        sink=None,
        *,
        interval_ns: int | None = None,
        rings: dict | None = None,
    ):
        """Start a streaming export (:class:`~repro.telemetry.TelemetrySession`).

        Arms a recurring sampler on the simulation scheduler: every
        interval it drains installed perf event rings, flushes buffered
        control-bus events and snapshots :attr:`metrics`, all into one
        time-ordered JSONL stream on ``sink`` (default: a bounded
        in-memory :class:`~repro.telemetry.RingSink`).  With
        ``Network(seed=N)`` the export is byte-identical across runs.
        One session per network; ``session.close()`` disarms it.
        """
        from ..telemetry import TelemetrySession

        if self._telemetry is not None and not self._telemetry.closed:
            raise RuntimeError("this network already has a telemetry session")
        if interval_ns is None:
            interval_ns = int(interval_ms * 1_000_000)
        self._telemetry = TelemetrySession(
            self, self.metrics, interval_ns, sink=sink, rings=rings
        )
        return self._telemetry

    def trace(
        self,
        sample: int = 1,
        flows: Iterable = (),
        *,
        profile: bool = False,
    ):
        """Arm causal packet tracing (:class:`repro.trace.Tracer`).

        ``sample=N`` admits roughly one flow in N by a deterministic
        seed-derived hash (``1`` traces every flow, ``0`` none);
        ``flows=`` lists flows (or flow ids) traced regardless.  Every
        packet of an admitted flow carries a trace context through the
        whole datapath — emit, qdisc, link, CPU, each pipeline stage and
        eBPF hook — and finalises at local delivery into a record whose
        span durations sum exactly to the measured end-to-end delay.
        Works unchanged under ``run(shards=K)``: contexts travel in the
        handoff codec and the merged export is byte-identical to the
        unsharded run.  ``profile=True`` also attaches a
        :class:`repro.trace.SelfProfiler` (as ``tracer.profiler``)
        attributing host wall-clock per event-callback category.
        One tracer per network; arm it before :meth:`run`.
        """
        from ..trace import SelfProfiler, Tracer

        if self._tracer is not None:
            raise RuntimeError("this network already has a tracer")
        tracer = Tracer(net=self, sample=sample, seed=self.seed or 0)
        for flow in flows:
            tracer.always.add(flow if isinstance(flow, int) else flow.flow_id)
        self._tracer = tracer
        for node in self.nodes.values():
            node.tracer = tracer
        for flow in self.flows:
            if tracer.admits_flow(flow.flow_id):
                flow.tracer = tracer
        if profile:
            tracer.profiler = SelfProfiler(self.scheduler).start()
        return tracer

    def on(self, at_ns: int, fn, *args):
        """Run ``fn(*args)`` at simulated time ``at_ns`` (scripted events).

        The sanctioned way for examples and experiments to schedule
        mid-run actions — failures, reconfigurations, readouts — without
        reaching into ``net.scheduler``.  Returns the event handle, the
        scheduler's heap entry: ``net.scheduler.cancel(handle)``
        unschedules it.
        """
        return self.scheduler.schedule_at(at_ns, fn, *args)

    # -- execution -------------------------------------------------------------
    def run(
        self,
        until_ns: int | None = None,
        max_events: int | None = None,
        *,
        until_ms: "int | float | None" = None,
        shards: int | None = None,
    ) -> int:
        """Drive the event loop to the horizon (or until the heap drains).

        ``until_ms`` is the millisecond convenience spelling of
        ``until_ns`` (mutually exclusive).  Returns the executed-event
        count.

        ``shards=K`` (or ``Network(shards=K)``) executes the run across
        K worker processes with the conservative parallel engine
        (:mod:`repro.shard`): same deliveries, counters and telemetry
        export as ``shards=1``, byte for byte, on a seeded network.  A sharded run
        needs an explicit horizon, must be the network's first run, and
        is terminal — results are merged back here, but the network
        cannot be driven further afterwards.
        """
        if self._sharded:
            raise RuntimeError(
                "this network already completed a sharded run; its results "
                "are merged, but it cannot be driven further — build a "
                "fresh Network for another run"
            )
        if until_ms is not None:
            if until_ns is not None:
                raise ValueError("pass either until_ns or until_ms, not both")
            until_ns = int(until_ms * 1_000_000)
        count = self.shards if shards is None else int(shards)
        if count > 1:
            from ..shard import run_sharded

            return run_sharded(self, until_ns, count, max_events=max_events)
        return self.scheduler.run(until_ns=until_ns, max_events=max_events)

    def __repr__(self) -> str:
        return (
            f"<Network nodes={list(self.nodes)} links={len(self.links)} "
            f"seed={self.seed}>"
        )
