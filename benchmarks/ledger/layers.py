"""Layer probes: every per-layer metric of the ledger.

A probe times calls into one layer's public functions, with a span
around each timed call, and reports the cost per operation of its
quietest repetition.  The
suite is the same on every traced run, whatever the workload, so a
layer's unit cost can be read off any of them; the probes of the event
engine, TCP, netem and the shard coordinator run short instances of the
event-driven workloads themselves and read the scheduler self-profiler
(``net.trace(profile=True)``), whose per-callback figures are
*inclusive* of everything the callback calls.

Budgets recompose a direct workload's per-packet cost from the probes
of the layers on its path; ``coverage`` is that sum over the path's own
measured cost, so a coverage far from 1 says the layer figures do not
explain the end-to-end number.
"""

from __future__ import annotations

from harness import ROOT, Spans, gc_quiesced
from workloads import NS_PER_MS, RegionsShard, Setup1Events, Setup2Hybrid, make_regions

from repro.bench import FUNC_SEGMENT, SINK_ADDR, copy_batch, drive_batch, make_router
from repro.ctrl.spf import AdjacencyInfo, LinkStateDb, Lsa, run_spf
from repro.ebpf import VerifierError
from repro.ebpf.jit import JitProgram
from repro.ebpf.text import link, parse_asm
from repro.lab import Network, build_setup1, build_setup2
from repro.net import (
    SRH,
    End,
    EndBPF,
    EndDT6,
    FibTable,
    IPv6Header,
    Nexthop,
    Packet,
    as_addr,
    clear_advance_memo,
)
from repro.net.fib import route_from_text
from repro.net.packet import make_udp_packet
from repro.net.seg6 import push_outer_encap
from repro.net.srh import make_srh
from repro.progs import add_tlv_prog, asm_text, end_prog
from repro.shard import partition
from repro.shard.wire import pack_batch, unpack_batch
from repro.sim.trafgen import batch_srv6_udp, batch_srv6_udp_flows, batch_udp
from repro.usecases import deploy_hybrid_access, install_wrr

SRC = "fc00:1::1"
LIBRARY_ASM = ("end", "end_t", "tag_increment", "add_tlv", "wrr")
CORPUS_DIR = ROOT / "tests" / "ebpf" / "corpus"

# Sizes of the probe suite: timed repetitions per probe, packets per
# repetition, distinct flows of the miss probe, and the simulated
# milliseconds of the three scenario probes.
PROBE_SIZES = {
    "full": {
        "reps": 7,
        "n": 256,
        "miss_flows": 1024,
        "setup1": {"sim_ms": 4, "slice_ms": 1, "drain_ms": 1},
        "setup2": {"warmup_ms": 500, "sim_ms": 200, "slice_ms": 100, "drain_ms": 300},
        "regions": {"start_ms": 50, "sim_ms": 50, "drain_ms": 30},
    },
    "quick": {
        "reps": 2,
        "n": 32,
        "miss_flows": 64,
        "setup1": {"sim_ms": 1, "slice_ms": 1, "drain_ms": 1},
        "setup2": {"warmup_ms": 200, "sim_ms": 50, "slice_ms": 50, "drain_ms": 300},
        "regions": {"start_ms": 50, "sim_ms": 5, "drain_ms": 30},
    },
}


class Probe:
    """Timing helper bound to one run's span log and sizes."""

    def __init__(self, spans: Spans, seed: int, size: dict):
        self.spans = spans
        self.seed = seed
        self.size = size
        self.n = size["n"]

    def per_op(self, name: str, fn, ops: int, prepare=None) -> float:
        """Host ns per operation of ``fn`` (which performs ``ops``): the
        quietest repetition, as for the end-to-end figures."""
        samples = []
        with gc_quiesced(), self.spans.group(name):
            for _ in range(self.size["reps"]):
                args = (prepare(),) if prepare is not None else ()
                ns, _result = self.spans.timed(name + ".call", fn, *args)
                samples.append(ns / ops)
        return min(samples)

    def once_ms(self, name: str, fn) -> tuple:
        ns, result = self.spans.timed(name, fn)
        return ns / 1e6, result


def _srv6_templates(n: int) -> list:
    return batch_srv6_udp(SRC, [FUNC_SEGMENT, SINK_ADDR], n, payload_size=64)


def _each(method):
    """``fn(items)`` that applies ``method`` to every item."""

    def run(items):
        for item in items:
            method(item)

    return run


# --- net.packet / net.srh / net.netdev -------------------------------------------------------


def probe_packet(p: Probe) -> dict:
    n = p.n
    templates = _srv6_templates(n)
    raws = [bytes(t.data) for t in templates]
    node = make_router()
    dev = node.devices["eth1"]

    def header_ops(pkts):
        for pkt in pkts:
            pkt.dst
            pkt.decrement_hop_limit()

    def transmit(pkts):
        dev.transmit_batch(pkts)
        dev.tx_buffer.clear()

    fresh = lambda: copy_batch(templates)  # noqa: E731
    return {
        "net.packet.copy_ns": p.per_op("net.packet.copy", lambda: copy_batch(templates), n),
        "net.packet.parse_ns": p.per_op("net.ipv6.parse", _each(IPv6Header.parse), n, lambda: raws),
        "net.srh.parse_ns": p.per_op(
            "net.srh.parse", _each(lambda raw: SRH.parse(raw, 40)), n, lambda: raws
        ),
        "net.packet.hdr_ns": p.per_op("net.packet.hdr", header_ops, n, fresh),
        "net.netdev.tx_ns": p.per_op("net.netdev.transmit_batch", transmit, n, fresh),
        "sim.trafgen.make_pkt_ns": p.per_op(
            "sim.trafgen.make_packet", lambda: _srv6_templates(32), 32
        ),
    }


# --- net.fib -----------------------------------------------------------------------------------


def _fib(routes: int, lengths: tuple) -> tuple:
    table = FibTable()
    dsts = []
    for i in range(routes):
        length = lengths[i % len(lengths)]
        table.add(
            route_from_text(
                f"fc00:{i + 1:x}::/{length}", nexthops=[Nexthop(via="fe80::1", dev="eth0")]
            )
        )
        dsts.append(as_addr(f"fc00:{i + 1:x}::" if length == 128 else f"fc00:{i + 1:x}::1"))
    return table, dsts


def probe_fib(p: Probe) -> dict:
    out = {}
    for label, routes, lengths in (
        ("r8", 8, (128, 64)),
        ("r1k", 1000, (128, 112, 96, 80, 64, 56, 48, 32)),
    ):
        table, dsts = _fib(routes, lengths)
        dsts = [dsts[i % routes] for i in range(p.n)]
        ns = p.per_op("net.fib.lookup_" + label, _each(table.lookup), p.n, lambda: dsts)
        out["net.fib.lookup_ns_" + label] = ns
    return out


# --- net.node / net.seg6local: the direct paths -------------------------------------------------------


def _router(action=None):
    node = make_router()
    if action is not None:
        node.add_route(f"{FUNC_SEGMENT}/128", encap=action)
    return node


def probe_paths(p: Probe) -> dict:
    """Per-packet cost of the four direct paths, batch-of-one dispatch and
    the flow-table miss path."""
    n = p.n
    srv6 = _srv6_templates(n)
    plain = batch_udp(SRC, SINK_ADDR, n, payload_size=64)
    out = {}
    for label, node, templates in (
        ("fwd_ipv6", _router(), plain),
        ("end_bpf", _router(EndBPF(end_prog())), srv6),
        ("add_tlv_interp", _router(EndBPF(add_tlv_prog(jit=False))), srv6),
    ):
        drive_batch(node, copy_batch(templates))
        out["path." + label] = p.per_op(
            "net.node.receive_batch." + label,
            lambda pkts, node=node: drive_batch(node, pkts),
            n,
            lambda templates=templates: copy_batch(templates),
        )

    node = _router(EndBPF(end_prog()))
    dev = node.devices["eth0"]

    def one_by_one(pkts):
        for pkt in pkts:
            node.receive(pkt, dev)
        node.devices["eth1"].tx_buffer.clear()

    drive_batch(node, copy_batch(srv6))
    b1 = p.per_op("net.node.receive", one_by_one, n, lambda: copy_batch(srv6))
    out["net.node.b1_over_b256"] = b1 / out["path.end_bpf"]

    flows = p.size["miss_flows"]
    distinct = batch_srv6_udp_flows(SRC, FUNC_SEGMENT, "fc00:2", flows, flows)
    node = _router(EndBPF(end_prog()))

    def cold():
        node.flow_table.clear()
        clear_advance_memo()
        return copy_batch(distinct)

    drive = lambda pkts: drive_batch(node, pkts)  # noqa: E731
    drive(copy_batch(distinct))
    miss = p.per_op("net.node.receive_batch.miss", drive, flows, cold)
    hit = p.per_op("net.node.receive_batch.hit", drive, flows, lambda: copy_batch(distinct))
    out["path.flow_churn"] = miss
    out["net.node.flow_miss_ns"] = miss - hit
    return out


def probe_seg6local(p: Probe) -> dict:
    n = p.n
    node = make_router()
    srv6 = _srv6_templates(n)
    inner = make_udp_packet(SRC, SINK_ADDR, 40000, 5201, bytes(64))
    encapsulated = Packet(
        push_outer_encap(
            bytes(inner.data), as_addr(SRC), make_srh([FUNC_SEGMENT], next_header=41)
        )
    )
    out = {}
    for key, action, templates in (
        ("end_ns", End(), srv6),
        ("end_bpf_ns", EndBPF(end_prog()), srv6),
        ("end_dt6_ns", EndDT6(254), [encapsulated] * n),
    ):
        out["net.seg6local." + key] = p.per_op(
            "net.seg6local." + action.kind,
            _each(lambda pkt, action=action: action.process(pkt, node)),
            n,
            lambda templates=templates: copy_batch(templates),
        )
    return out


def probe_lwt(p: Probe) -> dict:
    n = p.n
    node = make_router()
    handle = install_wrr(node, "fc00:2::/64", "fc00:bb::d0", "fc00:bb::d1", 5, 3)
    plain = batch_udp(SRC, SINK_ADDR, n, payload_size=64)
    key = (0).to_bytes(4, "little")
    return {
        "net.lwt_bpf.wrr_ns": p.per_op(
            "net.lwt_bpf.run_hook",
            _each(lambda pkt: handle.lwt.run_hook("lwt_out", pkt, node)),
            n,
            lambda: copy_batch(plain),
        ),
        "ebpf.maps.lookup_ns": p.per_op(
            "ebpf.maps.lookup", _each(handle.config.lookup), n, lambda: [key] * n
        ),
    }


# --- ebpf ------------------------------------------------------------------------------------------


def _toolchain_sources() -> list:
    texts = [asm_text(name) for name in LIBRARY_ASM]
    if CORPUS_DIR.is_dir():
        texts += [path.read_text() for path in sorted(CORPUS_DIR.glob("*.s"))]
    return texts


def probe_ebpf(p: Probe) -> dict:
    raw = bytes(_srv6_templates(1)[0].data)
    jitted, interpreted = add_tlv_prog(jit=True), add_tlv_prog(jit=False)
    runs = max(8, p.n // 8)
    node = make_router()

    def contexts(prog) -> list:
        made = []
        for _ in range(runs):
            hctx = prog.make_context(raw)
            # What End.BPF binds before it runs a program (the seg6
            # helpers refuse any other hook).
            hctx.packet, hctx.node, hctx.hook = Packet(raw), node, "seg6local"
            made.append(hctx)
        return made

    out = {}
    for key, prog in (("ebpf.jit.run_ns", jitted), ("ebpf.vm.run_ns", interpreted)):
        out[key] = p.per_op(
            key[:-7] + ".run", _each(prog.run), runs, lambda prog=prog: contexts(prog)
        )
    out["ebpf.jit_over_vm"] = out["ebpf.vm.run_ns"] / out["ebpf.jit.run_ns"]
    out["ebpf.jit.compile_ms"] = (
        p.per_op(
            "ebpf.jit.compile",
            lambda: JitProgram(jitted.insns, regions=jitted.region_hints),
            1,
        )
        / 1e6
    )

    texts = _toolchain_sources()
    assemble_ms, linked = p.once_ms(
        "ebpf.asm.assemble", lambda: [link(parse_asm(text)) for text in texts]
    )

    def verify_all():
        for i, program in enumerate(linked):
            try:
                program.load(name=f"p{i}", jit=False)
            except VerifierError:
                pass  # the corpus pins rejections too; the verifier still ran

    verify_ms, _ = p.once_ms("ebpf.verifier.verify", verify_all)
    out["ebpf.asm.assemble_ms"] = assemble_ms
    out["ebpf.verifier.verify_ms"] = verify_ms
    out["ebpf.verifier.insns_per_ms"] = sum(len(l.insns) for l in linked) / verify_ms
    return out


# --- lab / iproute / ctrl.spf / shard.wire ---------------------------------------------------------


def probe_control(p: Probe) -> dict:
    out = {}
    out["lab.build_ms.setup1"] = p.per_op("lab.build_setup1", build_setup1, 1) / 1e6
    out["lab.build_ms.setup2"] = (
        p.per_op(
            "lab.build_setup2",
            lambda: deploy_hybrid_access(build_setup2(), weights=(5, 3), compensation=True),
            1,
        )
        / 1e6
    )
    net = build_setup1().net
    commands = [f"ip -6 route replace fc00:9:{i:x}::/64 via fc00:2::2 dev eth1" for i in range(32)]
    out["net.iproute.exec_us"] = (
        p.per_op("net.iproute.execute", _each(lambda c: net.config("R", c)), 32, lambda: commands)
        / 1e3
    )
    for nodes in (16, 64):
        lsdb = LinkStateDb()
        for i in range(nodes):
            peers = sorted({(i + d) % nodes for d in (1, -1, 5, -5)})
            lsdb.insert(
                Lsa(
                    f"n{i}",
                    1,
                    tuple(
                        AdjacencyInfo(f"n{j}", 10 + (i + j) % 3, f"eth{k}", "fe80::1", f"eth{k}")
                        for k, j in enumerate(peers)
                    ),
                )
            )
        out[f"ctrl.spf.run_ms_n{nodes}"] = (
            p.per_op("ctrl.spf.run_spf", lambda lsdb=lsdb: run_spf(lsdb, "n0"), 1) / 1e6
        )

    pkts = copy_batch(_srv6_templates(p.n))
    for seq, pkt in enumerate(pkts):
        pkt.seq, pkt.flow_id, pkt.tx_tstamp_ns = seq + 1, 7, 1000 + seq
    blob = pack_batch(pkts)
    out["shard.wire.pack_ns_pkt"] = p.per_op("shard.wire.pack_batch", lambda: pack_batch(pkts), p.n)
    out["shard.wire.unpack_ns_pkt"] = p.per_op(
        "shard.wire.unpack_batch", lambda: unpack_batch(blob), p.n
    )
    out["shard.wire.bytes_per_pkt"] = len(blob) / p.n
    regions, _ctrl = make_regions(p.seed, 0, NS_PER_MS)
    out["shard.partition.partition_ms"] = (
        p.per_op("shard.partition", lambda: partition(regions, 2), 1) / 1e6
    )
    return out


# --- sim: unit probes ---------------------------------------------------------------------------------


def _pair(**link_kwargs):
    """Two nodes, one link, a UDP sink on the far end."""
    net = Network()
    net.add_node("a", addr="fc00:a::1")
    net.add_node("b", addr=SINK_ADDR)
    link_ = net.add_link("a", "b", **link_kwargs)
    net.config("a", f"ip -6 route add ::/0 via {SINK_ADDR} dev eth0")
    net.sink("b")
    return net, link_


def probe_sim_units(p: Probe) -> dict:
    n = p.n
    plain = batch_udp("fc00:a::1", SINK_ADDR, n, payload_size=64)
    out = {}

    def noop():
        pass

    empty = Network()

    def events():
        now = empty.now_ns
        for i in range(n):
            empty.on(now + i + 1, noop)
        empty.run()

    out["sim.scheduler.event_ns"] = p.per_op("sim.scheduler.schedule_run", events, n)

    def fresh_after_drain(net):
        def fresh():
            net.run()  # the previous repetition's deliveries, untimed
            return copy_batch(plain)

        return fresh

    net, link_ = _pair(rate_bps=100e9, delay_ns=1000)
    endpoint, fresh = link_.a_to_b, fresh_after_drain(net)
    out["sim.link.send_ns_b1"] = p.per_op("sim.link.send", _each(endpoint.send), n, fresh)
    out["sim.link.send_ns_b256"] = p.per_op("sim.link.send_batch", endpoint.send_batch, n, fresh)

    net, _link = _pair(rate_bps=100e9, delay_ns=1000)
    qdisc = net.netem("a", "eth0", rate_bps=10e9, delay_ns=1000, jitter_ns=100)
    dev = net["a"].devices["eth0"]
    out["sim.netem.enqueue_ns"] = p.per_op(
        "sim.netem.enqueue",
        _each(lambda pkt: qdisc.enqueue(pkt, dev)),
        n,
        fresh_after_drain(net),
    )
    return out


# --- sim / shard / ctrl: scenario probes ----------------------------------------------------------------


def _per_call_us(profile: dict, category: str) -> float:
    count, ns = profile.get(category, (0, 0))
    return ns / count / 1e3 if count else 0.0


def probe_scenarios(p: Probe) -> dict:
    out = {}
    spans = p.spans

    workload = Setup1Events(p.seed, p.size["setup1"])
    state = workload.setup()
    with spans.group("probe.setup1"):
        r = workload.measure(state, spans)
    profile = r.host["profile"]
    out["sim.scheduler.events_per_s"] = r.events / (r.timed_ns / 1e9)
    out["sim.scheduler.overhead_frac"] = 1 - sum(ns for _c, ns in profile.values()) / r.timed_ns
    out["sim.trafgen.tick_us"] = _per_call_us(profile, "UdpFlow._tick")
    out["sim.link.deliver_us"] = _per_call_us(profile, "LinkEndpoint._deliver_batch")
    net = state[0]
    net.metrics.collect()  # the first call builds the registry
    out["telemetry.collect_ms"] = p.per_op("telemetry.collect", net.metrics.collect, 1) / 1e6

    workload = Setup2Hybrid(p.seed, p.size["setup2"])
    state = workload.setup()
    with spans.group("probe.setup2"):
        r = workload.measure(state, spans)
    out["sim.netem.dequeue_us"] = _per_call_us(r.host["profile"], "NetemQdisc._dequeue")
    out["sim.netem.drops"] = r.exact["netem_lost"]
    out["sim.tcp.goodput_mbps"] = r.exact["tcp_goodput_mbps"]
    out["sim.tcp.retransmits"] = r.exact["tcp_retransmits"]
    out["sim.tcp.segs_per_s"] = r.exact["tcp_segments"] / (r.timed_ns / 1e9)

    workload = RegionsShard(p.seed, p.size["regions"])
    with spans.group("probe.regions"):
        r = workload.measure(workload.setup(), spans)
        idle, _ctrl = workload.setup()
        # A zero-horizon sharded run is fork + one round + merge.
        fork_ns, _ = spans.timed(
            "shard.coord.fork_merge", lambda: idle.run(until_ns=0, shards=workload.shards)
        )
    wall_s = r.timed_ns / 1e9
    busy = r.host["busy_s"] or [wall_s]
    out["shard.coord.rounds"] = r.exact["rounds"]
    out["shard.coord.busy_s_max"] = max(busy)
    out["shard.coord.stall_frac"] = 1 - sum(busy) / (len(busy) * wall_s)
    out["shard.coord.fork_merge_s"] = fork_ns / 1e9
    out["shard.coord.capacity_pps"] = r.packets / max(busy)
    out["ctrl.igp.lsas_flooded"] = r.exact["lsas_originated"]
    out["ctrl.spf.runs"] = r.exact["spf_runs"]
    return out


# --- the suite -------------------------------------------------------------------------------------------

BUDGETS = {
    # direct path -> the layer figures that recompose its per-packet cost
    "fwd_ipv6": ("net.packet.hdr_ns", "net.fib.lookup_ns_r8", "net.netdev.tx_ns"),
    "end_bpf": ("path.fwd_ipv6", "net.seg6local.end_bpf_ns"),
    "add_tlv_interp": ("path.fwd_ipv6", "net.seg6local.end_bpf_ns", "ebpf.vm.run_ns"),
    "flow_churn": ("path.fwd_ipv6", "net.seg6local.end_bpf_ns", "net.node.flow_miss_ns"),
}


def run_probes(spans: Spans, seed: int, size: dict) -> dict:
    """Every probe-derived per-layer metric, by name."""
    p = Probe(spans, seed, size)
    out = {}
    with spans.group("probes"):
        for probe in (
            probe_packet,
            probe_fib,
            probe_paths,
            probe_seg6local,
            probe_lwt,
            probe_ebpf,
            probe_control,
            probe_sim_units,
            probe_scenarios,
        ):
            out.update(probe(p))
    for path, parts in BUDGETS.items():
        total = sum(out[part] for part in parts)
        out[f"budget.{path}.sum_ns"] = total
        out[f"budget.{path}.coverage"] = total / out["path." + path]
    # The node's own dispatch: the bare forwarding path minus the layer
    # calls it makes (whole - children).
    out["net.node.self_ns"] = out["path.fwd_ipv6"] - out["budget.fwd_ipv6.sum_ns"]
    out["net.seg6local.end_bpf_over_ipv6"] = out["path.end_bpf"] / out["path.fwd_ipv6"]
    return {name: value for name, value in out.items() if not name.startswith("path.")}
