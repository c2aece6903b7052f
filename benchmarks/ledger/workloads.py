"""The ledger's seven workloads.

Four drive the datapath directly (no event loop), two run the paper's
lab setups through the discrete-event engine, one runs a multi-region
topology across two worker processes.  Each class offers the same three
steps to the runner:

* ``setup()`` — build the system under test (topology, program load =
  assemble + verify + JIT, configuration) and return it; the runner
  times this call, caches cleared, for ``setup_s``;
* ``warm(state)`` — untimed cache fill before the measurement;
* ``measure(state, spans)`` — a *fixed* amount of work, timed per batch
  or per simulated slice, returning a :class:`Result`; the runner calls
  it ``size["repeats"]`` times, each time on a state built for it, so
  every repeat starts from the same system.

Inputs derive from the seed; the system under test only ever sees the
generated packets and scenario parameters.  README.md says why each
workload exists and which layer it isolates.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from harness import Spans, gc_quiesced, sim_digest

from repro.bench import FUNC_SEGMENT, SINK_ADDR, copy_batch, drive_batch, make_router
from repro.ebpf.jit import handler_cache_stats
from repro.lab import Network, build_setup1, build_setup2
from repro.net import EndBPF
from repro.progs import add_tlv_prog, end_prog
from repro.sim.trafgen import batch_srv6_udp, batch_srv6_udp_flows, batch_udp
from repro.usecases import deploy_hybrid_access

NS_PER_MS = 1_000_000

# Work per measurement.  ``quick`` keeps every code path of ``full`` at
# a size the tier-1 smoke test affords.
SIZES = {
    "full": {
        # A timed slice lasts about a millisecond wherever the workload
        # allows it: the shorter the slice, the likelier that one of its
        # repeats ran undisturbed by the host (harness.undisturbed).
        # ``repeats`` is fixed, sized so that a run takes 13 to 15 s
        # on the 2-core box the bounds were set on (run_seconds is 18).
        "fwd_ipv6": {"repeats": 150, "batch": 256, "chunk": 100, "warm": 4},
        "end_bpf": {"repeats": 160, "batch": 256, "chunk": 50, "warm": 4},
        "add_tlv_interp": {"repeats": 150, "batch": 32, "chunk": 50, "warm": 2},
        # 65 534 flows = 2x the FlowTable's default 32 768 entries.  Set-up
        # and warm-up drive half a cycle, which fills the table exactly; the
        # measured 55 296 packets then span one period of the cost sawtooth
        # that FIFO eviction from a dict produces (evicted slots are
        # scanned past until the dict next resizes, every ~54 600 inserts).
        # One repeat takes ~2 s, so few fit: the slices are kept short.
        "flow_churn": {
            "repeats": 5,
            "batch": 32,
            "flows": 65534,
            "chunk": 1728,
            "warm": 1023,
            "capacity": None,
        },
        "setup1_events": {"repeats": 26, "sim_ms": 10, "slice_ms": 0.02, "drain_ms": 1},
        "setup2_hybrid": {
            "repeats": 16,
            "warmup_ms": 1000,
            "sim_ms": 300,
            "slice_ms": 0.5,
            "drain_ms": 200,
        },
        "regions_shard2": {"repeats": 48, "start_ms": 50, "sim_ms": 100, "drain_ms": 30},
    },
    "quick": {
        "fwd_ipv6": {"repeats": 3, "batch": 64, "chunk": 4, "warm": 1},
        "end_bpf": {"repeats": 3, "batch": 64, "chunk": 4, "warm": 1},
        "add_tlv_interp": {"repeats": 3, "batch": 32, "chunk": 2, "warm": 1},
        # Same 2x ratio, reached by shrinking the table instead of
        # building 65 534 templates.
        "flow_churn": {
            "repeats": 3,
            "batch": 32,
            "flows": 512,
            "chunk": 16,
            "warm": 7,
            "capacity": 256,
        },
        "setup1_events": {"repeats": 2, "sim_ms": 2, "slice_ms": 1, "drain_ms": 1},
        "setup2_hybrid": {
            "repeats": 2,
            "warmup_ms": 300,
            "sim_ms": 100,
            "slice_ms": 50,
            "drain_ms": 300,
        },
        "regions_shard2": {"repeats": 2, "start_ms": 50, "sim_ms": 20, "drain_ms": 30},
    },
}


@dataclass
class Result:
    """One measurement: host time per slice plus what was checked.

    A *slice* is one timed region — a batch, or one ``net.run`` step.
    Repeats of one workload do identical work slice by slice, which is
    what lets the runner compare a slice across repeats.
    """

    slice_ns: list  # host ns of each timed region, in order
    slice_pkts: list  # packets forwarded or delivered in each
    attempted: int
    failed: int
    sim_ns: int = 0  # simulated time the timed regions covered
    events: int = 0
    digest: str | None = None
    # Simulated statistics that must repeat exactly for one seed.
    exact: dict = field(default_factory=dict)
    # Host-side observations (profiler rows, cache counters, busy time).
    host: dict = field(default_factory=dict)

    @property
    def packets(self) -> int:
        return sum(self.slice_pkts)

    @property
    def timed_ns(self) -> int:
        return sum(self.slice_ns)

    @property
    def samples_ns(self) -> list:
        """Host ns per packet of every slice that moved packets."""
        return [ns / pkts for ns, pkts in zip(self.slice_ns, self.slice_pkts) if pkts]


def _cache_counters(nodes) -> dict:
    stats = handler_cache_stats()
    return {
        "flow_hits": sum(n.flow_table.hits for n in nodes),
        "flow_misses": sum(n.flow_table.misses for n in nodes),
        "handler_hits": stats["handler_hits"],
        "handler_misses": stats["handler_misses"],
    }


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


# --- direct datapath -------------------------------------------------------------------


class Direct:
    """Batches pushed straight into ``Node.receive_batch`` (closed loop:
    the next batch enters when the previous one has been forwarded)."""

    kind = "direct"

    def __init__(self, name: str, seed: int, size: dict):
        self.name = name
        self.size = size
        src = f"fc00:1::{1 + seed % 0xFFFE:x}"
        batch = size["batch"]
        if name == "fwd_ipv6":
            templates = batch_udp(src, SINK_ADDR, batch, payload_size=64)
        elif name == "flow_churn":
            templates = batch_srv6_udp_flows(
                src, FUNC_SEGMENT, "fc00:2", size["flows"], size["flows"]
            )
        else:
            templates = batch_srv6_udp(src, [FUNC_SEGMENT, SINK_ADDR], batch, payload_size=64)
        random.Random(seed).shuffle(templates)
        self.templates = templates
        self._cursor = 0

    def _next_batch(self) -> list:
        """The next ``batch`` templates, cyclically (every batch is full)."""
        templates = self.templates
        start = self._cursor
        end = start + self.size["batch"]
        out = templates[start:end]
        if end >= len(templates):
            end -= len(templates)
            out += templates[:end]
        self._cursor = end
        return out

    def setup(self):
        self._cursor = 0
        node = make_router()
        if self.name == "add_tlv_interp":
            node.add_route(f"{FUNC_SEGMENT}/128", encap=EndBPF(add_tlv_prog(jit=False)))
        elif self.name != "fwd_ipv6":
            node.add_route(f"{FUNC_SEGMENT}/128", encap=EndBPF(end_prog()))
        if self.size.get("capacity"):
            node.flow_table.capacity = self.size["capacity"]
        # First batch inside set-up: lazy handler assembly is set-up work.
        drive_batch(node, copy_batch(self._next_batch()))
        return node

    def warm(self, node) -> None:
        for _ in range(self.size["warm"]):
            drive_batch(node, copy_batch(self._next_batch()))

    def measure(self, node, spans: Spans) -> Result:
        slice_ns, slice_pkts, offered = [], [], 0
        before = _cache_counters([node])
        with gc_quiesced(), spans.group("workload.chunk"):
            for _ in range(self.size["chunk"]):
                _copy_ns, pkts = spans.timed(
                    "net.packet.copy_batch", copy_batch, self._next_batch()
                )
                ns, forwarded = spans.timed("net.node.receive_batch", drive_batch, node, pkts)
                slice_ns.append(ns)
                slice_pkts.append(forwarded)
                offered += len(pkts)
        return Result(
            slice_ns,
            slice_pkts,
            attempted=offered,
            failed=offered - sum(slice_pkts),
            host=_delta(_cache_counters([node]), before),
        )


# --- event-driven ------------------------------------------------------------------------


def _run_slices(net, spans: Spans, start_ns: int, size: dict, delivered) -> tuple:
    """Drive ``sim_ms`` of simulation in ``slice_ms`` steps, timing each
    ``net.run``; returns (ns per slice, packets delivered per slice, events)."""
    slice_ns, slice_pkts, events = [], [], 0
    step_ns = int(size["slice_ms"] * NS_PER_MS)
    end_ns = start_ns + size["sim_ms"] * NS_PER_MS
    seen = delivered()
    now = start_ns
    with gc_quiesced(), spans.group("workload.repeat"):
        while now < end_ns:
            now = min(now + step_ns, end_ns)
            ns, executed = spans.timed("lab.network.run", net.run, now)
            events += int(executed)
            got = delivered()
            slice_ns.append(ns)
            slice_pkts.append(got - seen)
            seen = got
    return slice_ns, slice_pkts, events


def _profile_rows(tracer) -> dict:
    if tracer is None:
        return {}
    tracer.profiler.stop()
    return {cat: (count, ns) for cat, count, ns in tracer.profiler.report()}


class Setup1Events:
    """Setup 1 (S1 - R - S2), End.BPF on R, one packet per trafgen tick
    (open loop at a fixed rate far below capacity of the simulated links)."""

    name = "setup1_events"
    kind = "event"

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size

    def setup(self):
        setup = build_setup1()
        net = setup.net
        net.attach("R", setup.FUNC_SEGMENT, EndBPF(end_prog()))
        flow = net.trafgen(
            "S1",
            path=[setup.FUNC_SEGMENT, setup.S2_ADDR],
            rate_bps=400e6,
            payload_size=64,
            burst=1,
            seed=self.seed,
            src_port_spread=1000,
        )
        meter = net.sink("S2")
        flow.start(at_ns=0, duration_ns=self.size["sim_ms"] * NS_PER_MS)
        return net, flow, meter

    def warm(self, state) -> None:
        pass

    def measure(self, state, spans: Spans) -> Result:
        net, flow, meter = state
        size = self.size
        tracer = net.trace(sample=0, profile=True) if spans.enabled else None
        nodes = list(net.nodes.values())
        before = _cache_counters(nodes)
        slice_ns, slice_pkts, events = _run_slices(net, spans, 0, size, lambda: meter.packets)
        profile = _profile_rows(tracer)
        net.run(until_ns=(size["sim_ms"] + size["drain_ms"]) * NS_PER_MS)
        duration_ns = size["sim_ms"] * NS_PER_MS
        expected = -(-duration_ns // flow.interval_ns)  # one tick per interval
        sent = flow.stats.sent
        host = _delta(_cache_counters(nodes), before)
        host["profile"] = profile
        return Result(
            slice_ns,
            slice_pkts,
            attempted=max(sent, expected),
            failed=abs(sent - expected) + (sent - meter.packets),
            sim_ns=duration_ns,
            events=events,
            digest=sim_digest(net),
            exact={"sent": sent, "delivered": meter.packets},
            host=host,
        )


class Setup2Hybrid:
    """Setup 2 with the WRR bond and TWD compensation: two TCP connections
    (closed loop) plus one 10 Mb/s UDP flow of 1000-byte payloads."""

    name = "setup2_hybrid"
    kind = "event"

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size

    def setup(self):
        setup = build_setup2(seed=self.seed)
        deploy_hybrid_access(setup, weights=(5, 3), compensation=True)
        net = setup.net
        connections = [net.tcp("S1", "S2", port=5000 + i) for i in range(2)]
        flow = net.trafgen(
            "S1", dst=setup.S2_ADDR, rate_bps=10e6, payload_size=1000, seed=self.seed
        )
        meter = net.sink("S2")
        return net, connections, flow, meter

    def warm(self, state) -> None:
        pass

    def measure(self, state, spans: Spans) -> Result:
        net, connections, flow, meter = state
        size = self.size
        warm_ns = size["warmup_ms"] * NS_PER_MS
        sim_ns = size["sim_ms"] * NS_PER_MS
        # Simulated warm-up with no load: only TWD probes fly, so the
        # delay compensation has converged when the traffic starts.
        net.run(until_ns=warm_ns)
        tracer = net.trace(sample=0, profile=True) if spans.enabled else None
        nodes = list(net.nodes.values())
        before = _cache_counters(nodes)
        for sender, _receiver in connections:
            sender.start()
        flow.start(at_ns=warm_ns, duration_ns=sim_ns)

        def delivered() -> int:
            return meter.packets + sum(r.stats.segments_received for _s, r in connections)

        slice_ns, slice_pkts, events = _run_slices(net, spans, warm_ns, size, delivered)
        profile = _profile_rows(tracer)
        goodput_mbps = sum(r.delivered_bytes for _s, r in connections) * 8e3 / sim_ns
        for sender, _receiver in connections:
            sender.stop()
        net.run(until_ns=warm_ns + sim_ns + size["drain_ms"] * NS_PER_MS)
        sent = flow.stats.sent + sum(s.stats.segments_sent for s, _r in connections)
        host = _delta(_cache_counters(nodes), before)
        host["profile"] = profile
        return Result(
            slice_ns,
            slice_pkts,
            attempted=sent,
            failed=sent - delivered(),
            sim_ns=sim_ns,
            events=events,
            digest=sim_digest(net, connections),
            exact={
                "udp_delivered": meter.packets,
                "tcp_goodput_mbps": goodput_mbps,
                "tcp_retransmits": sum(s.stats.retransmits for s, _r in connections),
                "tcp_segments": sum(r.stats.segments_received for _s, r in connections),
                "netem_lost": sum(q.stats.lost for q in net.qdiscs.values()),
            },
            host=host,
        )


# --- sharded -----------------------------------------------------------------------------

REGIONS = 4
REGION_SIZE = 4


def _region_node(region: int, i: int) -> str:
    return f"R{region}N{i}"


def _region_addr(region: int, i: int) -> str:
    return f"fc00:{region + 1}:{i + 1}::1"


def make_regions(seed: int, start_ns: int, duration_ns: int):
    """Four chains of four nodes joined by 5 ms trunks, IGP on, one local
    40 Mb/s flow per region and one 2 Mb/s flow into the next region.

    The ledger's own copy of the shard-scaling bench's topology, with one
    change: flows start after the IGP has converged and stop before the
    horizon, so every packet sent must be delivered.
    """
    net = Network(seed=seed)
    for region in range(REGIONS):
        for i in range(REGION_SIZE):
            net.add_node(_region_node(region, i), addr=_region_addr(region, i))
        for i in range(REGION_SIZE - 1):
            net.add_link(
                _region_node(region, i),
                _region_node(region, i + 1),
                rate_bps=1e9,
                delay_ns=50_000,
            )
    for region in range(REGIONS - 1):
        net.add_link(
            _region_node(region, 0),
            _region_node(region + 1, 0),
            rate_bps=1e9,
            delay_ns=5 * NS_PER_MS,
        )
    ctrl = net.ctrl(hello_interval_ns=10 * NS_PER_MS)
    last = REGION_SIZE - 1
    for region in range(REGIONS):
        net.sink(_region_node(region, last))
        for src_i, dst_region, rate in ((1, region, 40e6), (2, (region + 1) % REGIONS, 2e6)):
            net.trafgen(
                _region_node(region, src_i),
                dst=_region_addr(dst_region, last),
                rate_bps=rate,
                payload_size=600,
            ).start(at_ns=start_ns, duration_ns=duration_ns)
    return net, ctrl


class RegionsShard:
    """The multi-region topology under ``net.run(shards=K)``.  A sharded
    run is terminal for its network, so one sample per repeat: a region
    of 0.2 to 0.3 s on two cores at once, too long for any repeat to
    escape a noisy host.  BENCHMARK.json therefore does not list it; the
    ledger runs it, and ``compare`` may call its rows unresolved."""

    name = "regions_shard2"
    kind = "shard"

    def __init__(self, seed: int, size: dict, shards: int = 2):
        self.seed = seed
        self.size = size
        # Never more workers than cores: a worker without a core measures
        # the host's scheduler, not the coordinator.
        self.shards = max(1, min(shards, os.cpu_count() or 1))
        self._warmed = False

    def setup(self):
        size = self.size
        return make_regions(
            self.seed, size["start_ms"] * NS_PER_MS, size["sim_ms"] * NS_PER_MS
        )

    def warm(self, state) -> None:
        # Workers fork from this process: run a sliver of the same
        # scenario here once, so they inherit warm code paths and memos.
        if self._warmed:
            return
        self._warmed = True
        net, _ctrl = make_regions(self.seed, 0, 5 * NS_PER_MS)
        net.run(until_ns=10 * NS_PER_MS)

    def measure(self, state, spans: Spans) -> Result:
        net, ctrl = state
        size = self.size
        horizon = (size["start_ms"] + size["sim_ms"] + size["drain_ms"]) * NS_PER_MS
        nodes = list(net.nodes.values())
        before = _cache_counters(nodes)
        with gc_quiesced(), spans.group("workload.repeat"):
            ns, run = spans.timed(
                "shard.coord.run_sharded", lambda: net.run(until_ns=horizon, shards=self.shards)
            )
        sent = sum(flow.stats.sent for flow in net.flows)
        delivered = sum(meter.packets for meter in net.meters)
        host = _delta(_cache_counters(nodes), before)
        host["busy_s"] = list(getattr(run, "busy_s", []))
        return Result(
            [ns],
            [delivered],
            attempted=sent,
            failed=sent - delivered,
            sim_ns=horizon,
            events=int(run),
            digest=sim_digest(net),
            exact={
                "sent": sent,
                "delivered": delivered,
                "rounds": getattr(run, "rounds", 0),
                "spf_runs": ctrl.bus.count("spf-run"),
                "lsas_originated": ctrl.bus.count("lsa-originated"),
            },
            host=host,
        )


DIRECT = ("fwd_ipv6", "end_bpf", "add_tlv_interp", "flow_churn")
NAMES = DIRECT + ("setup1_events", "setup2_hybrid", "regions_shard2")


def make(name: str, seed: int, sizes: dict):
    size = sizes[name]
    if name in DIRECT:
        return Direct(name, seed, size)
    if name == "setup1_events":
        return Setup1Events(seed, size)
    if name == "setup2_hybrid":
        return Setup2Hybrid(seed, size)
    if name == "regions_shard2":
        return RegionsShard(seed, size)
    raise KeyError(name)
