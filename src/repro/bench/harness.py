"""Shared benchmark infrastructure: router variants, batch driving,
normalisation against the raw-IPv6-forwarding baseline, and reporting.

The §3.2 methodology is reproduced directly: the router under test is
driven with trafgen-style UDP packets carrying a two-segment SRH (64-byte
payload); throughput is reported *normalised to plain IPv6 forwarding* —
the paper's 610 kpps reference — so the benches regenerate relative bars,
not absolute testbed numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lab import Network
from ..net import End, EndBPF, EndT, Node, Packet
from ..progs import add_tlv_prog, end_prog, end_t_prog, tag_increment_prog
from ..sim.trafgen import batch_srv6_udp, batch_udp

FUNC_SEGMENT = "fc00:e::100"
SINK_PREFIX = "fc00:2::/64"
SINK_ADDR = "fc00:2::2"
BATCH_SIZE = 256


def make_router_net() -> tuple[Network, Node]:
    """The router-under-test (R in setup 1) and the network that owns it.

    Built through the declarative builder with detached devices: the
    direct-datapath microbenchmarks push batches straight into the node
    and read ``eth1``'s ``tx_buffer``, bypassing the event loop (the
    builder's never-run scheduler keeps the clock at 0).  The network
    handle is what telemetry-enabled benches attach their
    :meth:`~repro.lab.network.Network.telemetry` session to.
    """
    net = Network()
    node = net.add_node("R", addr="fc00:e::1", devices=("eth0", "eth1"))
    net.config("R", "ip -6 route add fc00:1::/64 via fc00:1::1 dev eth0")
    net.config("R", f"ip -6 route add {SINK_PREFIX} via {SINK_ADDR} dev eth1")
    return net, node


def make_router() -> Node:
    """Just the router node (see :func:`make_router_net`)."""
    return make_router_net()[1]


# --- Figure 2 router variants -------------------------------------------------

FIG2_VARIANTS = (
    "baseline_ipv6",
    "end_static",
    "end_bpf",
    "end_t_static",
    "end_t_bpf",
    "tag_increment_bpf",
    "add_tlv_bpf",
    "add_tlv_bpf_nojit",
)


def make_fig2_router(variant: str) -> tuple[Node, list[Packet]]:
    """Configure R for one Figure 2 bar and build its packet templates."""
    node = make_router()
    srv6 = batch_srv6_udp(
        "fc00:1::1", [FUNC_SEGMENT, SINK_ADDR], BATCH_SIZE, payload_size=64
    )
    if variant == "baseline_ipv6":
        return node, batch_udp("fc00:1::1", SINK_ADDR, BATCH_SIZE, payload_size=64)
    if variant == "end_static":
        node.add_route(f"{FUNC_SEGMENT}/128", encap=End())
    elif variant == "end_bpf":
        node.add_route(f"{FUNC_SEGMENT}/128", encap=EndBPF(end_prog()))
    elif variant == "end_t_static":
        node.add_route(f"{FUNC_SEGMENT}/128", encap=EndT(table_id=254))
    elif variant == "end_t_bpf":
        node.add_route(f"{FUNC_SEGMENT}/128", encap=EndBPF(end_t_prog()))
    elif variant == "tag_increment_bpf":
        node.add_route(f"{FUNC_SEGMENT}/128", encap=EndBPF(tag_increment_prog()))
    elif variant == "add_tlv_bpf":
        node.add_route(f"{FUNC_SEGMENT}/128", encap=EndBPF(add_tlv_prog()))
    elif variant == "add_tlv_bpf_nojit":
        node.add_route(f"{FUNC_SEGMENT}/128", encap=EndBPF(add_tlv_prog(jit=False)))
    else:
        raise ValueError(f"unknown Figure 2 variant {variant!r}")
    return node, srv6


def drive_batch(node: Node, packets: list[Packet]) -> int:
    """Push a batch through the datapath; returns forwarded count."""
    node.receive_batch(packets, node.devices["eth0"])
    out = node.devices["eth1"].tx_buffer
    forwarded = len(out)
    out.clear()
    return forwarded


def copy_batch(templates: list[Packet]) -> list[Packet]:
    """Fresh packet copies (the datapath mutates packets in place)."""
    return [Packet(bytes(p.data)) for p in templates]


def amortisation_stats(node: Node, scheduler=None, since: dict | None = None) -> dict:
    """Cache-effectiveness counters for benchmark reporting.

    Reports what the datapath amortises per batch: route-resolution
    memoisation (:class:`~repro.net.node.FlowTable` hits/misses) and —
    when a scheduler is involved — the heap events saved by batch
    delivery, from the :mod:`repro.telemetry` collectors a streaming
    session samples.  The sample kind drives the ``since`` delta —
    counters are diffed, gauges like ``flow_table_entries`` never are.
    Attach the result to benchmark JSON (``benchmark.extra_info``) so
    amortisation regressions show up in recorded runs, not just
    wall-clock.
    """
    from ..telemetry.instrument import node_cache_samples, scheduler_samples
    from ..telemetry.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.register(lambda: node_cache_samples(node))
    if scheduler is not None:
        registry.register(lambda: scheduler_samples(scheduler))
    samples = registry.collect()
    stats = {sample.render(): sample.value for sample in samples}
    if since is not None:
        gauges = {sample.render() for sample in samples if sample.kind == "gauge"}
        stats = {
            key: value - since.get(key, 0) if key not in gauges else value
            for key, value in stats.items()
        }
    return stats


def attach_amortisation_info(benchmark, node: Node, scheduler=None, since=None) -> dict:
    """Record :func:`amortisation_stats` in a pytest-benchmark's JSON."""
    stats = amortisation_stats(node, scheduler, since=since)
    extra = getattr(benchmark, "extra_info", None)
    if extra is not None:
        extra.update(stats)
    return stats


# --- cross-test result registry -----------------------------------------------------


@dataclass
class BenchResult:
    name: str
    pps: float
    extra: dict = field(default_factory=dict)


class ResultRegistry:
    """Collects per-variant throughput so a final test can normalise."""

    def __init__(self, title: str):
        self.title = title
        self.results: dict[str, BenchResult] = {}

    def record(self, name: str, seconds_per_batch: float, batch_size: int = BATCH_SIZE, **extra):
        pps = batch_size / seconds_per_batch if seconds_per_batch > 0 else 0.0
        self.results[name] = BenchResult(name, pps, extra)
        return pps

    def normalised(self, baseline: str) -> dict[str, float]:
        base = self.results[baseline].pps
        return {name: r.pps / base for name, r in self.results.items()}

    def report(self, baseline: str, paper: dict[str, float] | None = None) -> str:
        norm = self.normalised(baseline)
        lines = [f"\n=== {self.title} (normalised to {baseline}) ==="]
        width = max(len(name) for name in norm)
        for name, value in norm.items():
            paper_note = ""
            if paper and name in paper:
                paper_note = f"   paper ≈ {paper[name]:.2f}"
            lines.append(
                f"  {name:<{width}}  {value:6.3f}   "
                f"({self.results[name].pps / 1e3:8.1f} kpps){paper_note}"
            )
        return "\n".join(lines)
