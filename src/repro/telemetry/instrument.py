"""Collectors adopting the simulation's scattered counters into a registry.

Each ``*_samples`` function snapshots one component's existing counters
as labelled :class:`~repro.telemetry.metrics.Sample` tuples; nothing
here adds work to the datapath — the hot path keeps its plain attribute
increments and collectors read them on demand.

:func:`instrument_network` registers one dynamic collector for a whole
:class:`~repro.lab.network.Network`: it re-walks nodes, devices, links,
CPU queues, seg6local attachments, perf rings, flow meters and the
control plane at every ``collect()``, so components added mid-run are
picked up automatically.  Naming/label scheme (axes per the telemetry
issue: ``node``, ``device``, ``sid``, ``hook``):

====================  ===========================================
``node_*{node=}``     :class:`~repro.net.node.NodeCounters` fields
``flow_table_*``      route-resolution memo hits/misses/occupancy
``bpf_group*{node=}`` seg6local groups formed / packets / flushes
``dev_*{device=}``    per-device ``ip -s link`` counters
``link_*{device=}``   per-direction wire counters (egress device)
``cpu_*{node=}``      :class:`~repro.sim.cpu.CpuStats` + queue depth
``sid_*{sid=}``       per-segment seg6local action counters (§4.3)
``lwt_*{sid=,hook=}`` BPF LWT verdicts and per-hook run counts
``perf_*{ring=}``     per-CPU perf ring push/drop/depth
``igp_*``/``ctrl_events{kind=}``  control-plane state + bus counts
``meter_*{meter=}``   flow-meter delivery counters
====================  ===========================================
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .metrics import MetricsRegistry, Sample


def _labels(extra: dict | None = None, **base) -> tuple:
    merged = dict(base)
    if extra:
        merged.update(extra)
    return tuple(sorted((str(k), str(v)) for k, v in merged.items()))


# -- per-component snapshots ---------------------------------------------------


def node_counter_samples(node, labels: dict | None = None) -> Iterator[Sample]:
    """The :class:`~repro.net.node.NodeCounters` fields, as counters."""
    tags = _labels(labels, node=node.name)
    counters = node.counters
    for field in (
        "rx",
        "tx",
        "forwarded",
        "delivered_local",
        "dropped",
        "no_route",
        "hop_limit_exceeded",
        "seg6local_processed",
        "bpf_dropped",
    ):
        yield Sample(f"node_{field}", tags, getattr(counters, field))


def node_cache_samples(node, labels: dict | None = None) -> Iterator[Sample]:
    """Flow-table memo effectiveness (hits/misses counters, occupancy gauge)
    and the node's seg6local groups (formed, packets run, flushed)."""
    tags = _labels(labels) if labels else ()
    flow_table = node.flow_table
    yield Sample("flow_table_hits", tags, flow_table.hits)
    yield Sample("flow_table_misses", tags, flow_table.misses)
    yield Sample("flow_table_entries", tags, len(flow_table), "gauge")
    tags = _labels(labels, node=node.name)
    yield Sample("bpf_groups", tags, node.groups)
    yield Sample("bpf_grouped_packets", tags, node.grouped_packets)
    yield Sample("bpf_group_flushes", tags, node.group_flushes)


def scheduler_samples(scheduler, labels: dict | None = None) -> Iterator[Sample]:
    """Event-loop amortisation: heap events saved by batch delivery."""
    tags = _labels(labels) if labels else ()
    yield Sample("events_coalesced", tags, scheduler.events_coalesced)


def dev_samples(node, labels: dict | None = None) -> Iterator[Sample]:
    """Per-device ``ip -s link`` counters."""
    for dev_name in sorted(node.devices):
        stats = node.devices[dev_name].stats
        tags = _labels(labels, node=node.name, device=dev_name)
        for field in ("tx_packets", "tx_bytes", "rx_packets", "rx_bytes", "tx_dropped"):
            yield Sample(f"dev_{field}", tags, getattr(stats, field))


def cpu_samples(node, labels: dict | None = None) -> Iterator[Sample]:
    """CPU cost-model queue counters (absent when no model is attached)."""
    cpu = node.cpu
    if cpu is None:
        return
    tags = _labels(labels, node=node.name)
    yield Sample("cpu_processed", tags, cpu.stats.processed)
    yield Sample("cpu_dropped", tags, cpu.stats.dropped)
    yield Sample("cpu_busy_ns", tags, cpu.stats.busy_ns)
    yield Sample("cpu_queue_depth", tags, cpu._queued, "gauge")


def link_samples(link, labels: dict | None = None) -> Iterator[Sample]:
    """Per-direction wire counters, labelled by the transmitting device."""
    for endpoint, dev in ((link.a_to_b, link.dev_a), (link.b_to_a, link.dev_b)):
        node_name = getattr(dev.node, "name", "?")
        tags = _labels(labels, node=node_name, device=dev.name)
        stats = endpoint.stats
        yield Sample("link_sent", tags, stats.sent)
        yield Sample("link_delivered", tags, stats.delivered)
        yield Sample("link_dropped", tags, stats.dropped)
        yield Sample("link_bytes_sent", tags, stats.bytes_sent)
        yield Sample("link_queue_depth", tags, endpoint.queue_depth, "gauge")
        yield Sample("link_up", tags, int(endpoint.up), "gauge")


def _sorted_routes(node):
    """Deterministic walk of every route on a node (tables, then prefix)."""
    for table_id in sorted(node.tables):
        routes = node.tables[table_id].routes()
        yield from sorted(routes, key=lambda r: (r.prefixlen, r.prefix))


def _sid_of(route) -> str:
    from ..net.addr import ntop

    rendered = ntop(route.prefix)
    return rendered if route.prefixlen == 128 else f"{rendered}/{route.prefixlen}"


def seg6local_samples(node, labels: dict | None = None) -> Iterator[Sample]:
    """Per-SID seg6local counters: the live ``End.OAMP`` FIB view (§4.3)."""
    from ..net.lwt_bpf import BpfLwt
    from ..net.seg6local import Seg6LocalAction

    for route in _sorted_routes(node):
        encap = route.encap
        if isinstance(encap, Seg6LocalAction):
            sid = _sid_of(route)
            tags = _labels(labels, node=node.name, sid=sid, action=encap.kind)
            yield Sample("sid_processed", tags, encap.processed)
            stats = getattr(encap, "stats", None)
            if stats is not None:  # End.BPF verdicts
                vtags = _labels(
                    labels, node=node.name, sid=sid, hook="seg6local"
                )
                for verdict in ("ok", "drop", "redirect", "errors"):
                    yield Sample(f"bpf_{verdict}", vtags, stats[verdict])
        elif isinstance(encap, BpfLwt):
            sid = _sid_of(route)
            for verdict in ("ok", "drop", "redirect", "errors"):
                yield Sample(
                    f"bpf_{verdict}",
                    _labels(labels, node=node.name, sid=sid, hook="lwt"),
                    encap.stats[verdict],
                )
            for hook in sorted(encap.hook_runs):
                yield Sample(
                    "lwt_runs",
                    _labels(labels, node=node.name, sid=sid, hook=hook),
                    encap.hook_runs[hook],
                )


def perf_maps(net) -> dict:
    """Every installed perf event array, keyed by map name (sorted).

    Walks all route-attached programs (``End.BPF`` actions and BPF LWT
    hooks) for :class:`~repro.ebpf.maps.PerfEventArrayMap` instances —
    the rings a telemetry session drains.  Same-name maps on different
    programs are disambiguated with a ``#n`` suffix in discovery order.
    """
    from ..ebpf.maps import PerfEventArrayMap
    from ..net.lwt_bpf import BpfLwt
    from ..net.seg6local import EndBPF

    found: dict[str, object] = {}
    seen: set[int] = set()

    def adopt(program) -> None:
        if program is None:
            return
        for map_name in sorted(program.maps):
            map_obj = program.maps[map_name]
            if not isinstance(map_obj, PerfEventArrayMap) or id(map_obj) in seen:
                continue
            seen.add(id(map_obj))
            key, n = map_obj.name, 1
            while key in found:
                n += 1
                key = f"{map_obj.name}#{n}"
            found[key] = map_obj

    for node_name in sorted(net.nodes):
        for route in _sorted_routes(net.nodes[node_name]):
            encap = route.encap
            if isinstance(encap, EndBPF):
                adopt(encap.program)
            elif isinstance(encap, BpfLwt):
                for program in (encap.prog_in, encap.prog_out, encap.prog_xmit):
                    adopt(program)
    return dict(sorted(found.items()))


def perf_ring_samples(rings: dict, labels: dict | None = None) -> Iterator[Sample]:
    """Push/drop/depth per (ring, cpu) for a :func:`perf_maps` mapping."""
    for name in sorted(rings):
        pmap = rings[name]
        for cpu in range(pmap.max_entries):
            ring = pmap.ring(cpu)
            tags = _labels(labels, ring=name, cpu=cpu)
            yield Sample("perf_pushed", tags, ring.pushed)
            yield Sample("perf_dropped", tags, ring.dropped)
            yield Sample("perf_depth", tags, len(ring), "gauge")


def ctrl_samples(ctrl, labels: dict | None = None) -> Iterator[Sample]:
    """Control-plane state gauges plus per-(node, kind) bus event counts."""
    for name in sorted(ctrl.speakers):
        speaker = ctrl.speakers[name]
        tags = _labels(labels, node=name)
        yield Sample("igp_adjacencies", tags, len(speaker.adjacencies), "gauge")
        yield Sample("igp_lsdb_size", tags, len(speaker.lsdb.lsas), "gauge")
        yield Sample("igp_routes", tags, len(speaker.routes), "gauge")
    for (kind, node_name), count in sorted(ctrl.bus.counts.items()):
        yield Sample(
            "ctrl_events", _labels(labels, kind=kind, node=node_name), count
        )


def meter_samples(meter, labels: dict | None = None) -> Iterator[Sample]:
    """Flow-meter delivery counters (goodput is derivable: bytes over time)."""
    tags = _labels(labels, meter=meter.name)
    yield Sample("meter_packets", tags, meter.packets)
    yield Sample("meter_payload_bytes", tags, meter.payload_bytes)
    yield Sample("meter_out_of_order", tags, meter.out_of_order)
    yield Sample("meter_delay_count", tags, meter.delay_count)
    yield Sample("meter_delay_sum_ns", tags, meter.delay_sum_ns)


# -- whole-network adoption ----------------------------------------------------


def network_samples(net) -> Iterable[Sample]:
    """One full snapshot of a network's counters (unsorted; registry sorts)."""
    out: list[Sample] = []
    for name in sorted(net.nodes):
        node = net.nodes[name]
        out.extend(node_counter_samples(node))
        out.extend(node_cache_samples(node, labels={"node": name}))
        out.extend(dev_samples(node))
        out.extend(cpu_samples(node))
        out.extend(seg6local_samples(node))
    for link in net.links:
        out.extend(link_samples(link))
    out.extend(perf_ring_samples(perf_maps(net)))
    for meter in net.meters:
        out.extend(meter_samples(meter))
    ctrl = net._ctrl
    if ctrl is not None:
        out.extend(ctrl_samples(ctrl))
    out.extend(scheduler_samples(net.scheduler))
    return out


def instrument_network(registry: MetricsRegistry, net) -> MetricsRegistry:
    """Adopt a whole network: one dynamic collector re-walked per collect."""
    registry.register(lambda: network_samples(net))
    return registry
