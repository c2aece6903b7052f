"""The per-shard worker: localise a forked replica, then run in rounds.

Each worker process inherits (fork, copy-on-write) the fully built
network and *localises* it — quiesces every driver owned by another
shard, converts cut-link endpoints into proxies, and swaps the
telemetry sink for an unbounded private one — then sits in the
coordinator's grant loop: inject the round's handoffs, execute up to
the granted horizon, hand back what crossed the cut.  Because drivers
are disabled rather than deleted, the replica's object graph (routes,
seg6local actions, eBPF programs) stays byte-identical to the parent's,
and local execution is exactly the shard's subsequence of the global
keyed event order.
"""

from __future__ import annotations

import traceback
from dataclasses import asdict
from time import process_time

from ..telemetry.sink import RingSink
from .wire import pack_batch, unpack_batch

# FlowMeter state worth carrying back to the parent (derived metrics
# recompute from these; the reservoir RNG and cap stay parent-side).
_METER_FIELDS = (
    "packets",
    "payload_bytes",
    "first_ns",
    "last_ns",
    "out_of_order",
    "delay_count",
    "delay_sum_ns",
    "_last_seq",
)


def local_nodes(assignment: dict, shard_id: int) -> set:
    return {name for name, shard in assignment.items() if shard == shard_id}


def _make_export(endpoint, outbox, dst_shard, link_idx, direction):
    scheduler = endpoint.scheduler

    def export(arrival_ns, seq, pkts):
        outbox.append(
            (
                dst_shard,
                (link_idx, direction, seq, scheduler.now_ns, arrival_ns, pack_batch(pkts)),
            )
        )

    return export


def _quiesce(endpoint) -> None:
    """Silence a replica endpoint this shard owns neither end of.

    Pre-fork in-flight deliveries (a control plane floods LSAs at build
    time) are cancelled without touching any statistic: the owning
    shards execute the real deliveries, and nothing here may move a
    counter the merge would then double-count.
    """
    for event, _pkts in endpoint._in_flight.values():
        event.cancel()
    endpoint._in_flight.clear()


def localise(net, assignment: dict, shard_id: int, outbox: list) -> dict:
    """Turn the forked replica into shard ``shard_id``'s working set.

    Returns the inject map: ``(link_idx, direction) -> LinkEndpoint``
    for every cut direction this shard receives on.
    """
    local = local_nodes(assignment, shard_id)

    # Traffic generators tick only on their owner (the kill switch also
    # cancels an already-armed first tick).
    for flow in net.flows:
        if flow.node.name not in local:
            flow.enabled = False
            if flow._event is not None:
                flow._event.cancel()

    # IGP speakers run where their node lives; a stopped daemon neither
    # sends hellos nor reacts to carrier events, so every bus event and
    # route programming happens on exactly one shard.  Remote speakers'
    # LSAs still arrive here — as packets over the (proxied) links.
    ctrl = net._ctrl
    if ctrl is not None:
        for name in sorted(ctrl.speakers):
            if name not in local:
                ctrl.speakers[name].stop()

    # Packets sitting *inside* a remote node's qdisc at fork time (a
    # build-time LSA flood through a netem shaper, say) would otherwise
    # be released by this replica's copy of the dequeue event and
    # re-enter the link locally — duplicating the delivery the owning
    # shard forwards as a handoff.  Cancel every scheduled action of a
    # remote qdisc; the owner's replica runs the real dequeues.
    remote_qdiscs = {
        id(dev.qdisc)
        for name, node in net.nodes.items()
        if name not in local
        for dev in node.devices.values()
        if dev.qdisc is not None
    }
    if remote_qdiscs:
        for *_key, event in net.scheduler._heap:
            held_by = getattr(event.callback, "__self__", None)
            if held_by is not None and id(held_by) in remote_qdiscs:
                event.cancel()

    # The replica's telemetry ticks into a private unbounded sink; the
    # coordinator merges the per-shard streams back into the user's sink.
    session = net._telemetry
    if session is not None and not session.closed:
        session.sink = RingSink(capacity=None)

    inject: dict = {}
    for link_idx, link in enumerate(net.links):
        shard_a = assignment[link.dev_a.node.name]
        shard_b = assignment[link.dev_b.node.name]
        if shard_a == shard_b:
            if shard_a != shard_id:
                _quiesce(link.a_to_b)
                _quiesce(link.b_to_a)
            continue
        for direction, (endpoint, src, dst) in enumerate(
            ((link.a_to_b, shard_a, shard_b), (link.b_to_a, shard_b, shard_a))
        ):
            if src == shard_id:
                endpoint.export = _make_export(
                    endpoint, outbox, dst, link_idx, direction
                )
                # Batches already on the wire at fork time become drains:
                # the receiving shard's replica holds its own copy of the
                # delivery event (same key), so delivery/stats happen
                # there and only the queue bookkeeping remains here.
                for event, _pkts in endpoint._in_flight.values():
                    event.callback = endpoint._drain_remote
            elif dst == shard_id:
                inject[(link_idx, direction)] = endpoint
            else:
                _quiesce(endpoint)
    return inject


def dump_state(net, assignment: dict, shard_id: int, executed: int, busy_s: float, prefork_bus: int) -> dict:
    """Everything the coordinator needs to reassemble the parent view."""
    local = local_nodes(assignment, shard_id)
    state = {
        "shard": shard_id,
        "executed": executed,
        "busy_s": busy_s,
        "events_run": net.scheduler.events_run,
        "samples": net.metrics.collect(),
        "nodes": {},
        "devs": {},
        "links": {},
        "meters": {},
        "flows": {},
        "bus": [],
        "telemetry": None,
        "ticks": 0,
        "pending": [],
        "trace": None,
        "trace_started": 0,
    }
    tracer = getattr(net, "_tracer", None)
    if tracer is not None:
        # Each trace finalises exactly once, on the shard that owns the
        # delivering node; the coordinator concatenates and re-sorts.
        state["trace"] = list(tracer.records)
        state["trace_started"] = tracer.started
    for name in sorted(local):
        node = net.nodes[name]
        state["nodes"][name] = asdict(node.counters)
        for dev_name in sorted(node.devices):
            state["devs"][(name, dev_name)] = asdict(node.devices[dev_name].stats)
    for link_idx, link in enumerate(net.links):
        state["links"][link_idx] = (
            asdict(link.a_to_b.stats),
            asdict(link.b_to_a.stats),
        )
    meter_nodes = getattr(net, "_meter_nodes", [])
    for idx, meter in enumerate(net.meters):
        if idx < len(meter_nodes) and meter_nodes[idx] in local:
            fields = {f: getattr(meter, f) for f in _METER_FIELDS}
            fields["delays_ns"] = list(meter.delays_ns)
            fields["delay_exemplars"] = list(meter.delay_exemplars)
            state["meters"][idx] = fields
    for idx, flow in enumerate(net.flows):
        if flow.node.name in local:
            state["flows"][idx] = {
                "sent": flow.stats.sent,
                "bytes_sent": flow.stats.bytes_sent,
                "_seq": flow._seq,
            }
    if net._ctrl is not None:
        state["bus"] = [
            (e.time_ns, e.node, e.kind, e.detail)
            for e in net._ctrl.bus.events[prefork_bus:]
            if e.node in local
        ]
    session = net._telemetry
    if session is not None and not session.closed:
        state["telemetry"] = session.sink.lines()
        state["ticks"] = session.samples
        state["pending"] = [
            (e.time_ns, e.node, e.kind, e.detail) for e in session._pending_events
        ]
    return state


def worker_main(conn, net, assignment: dict, shard_id: int, until_ns: int, prefork_bus: int) -> None:
    """The worker process body: localise, then serve grant rounds."""
    try:
        outbox: list = []
        inject = localise(net, assignment, shard_id, outbox)
        scheduler = net.scheduler
        executed = 0
        busy_s = 0.0
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "run":
                _, horizon_ns, handoffs = message
                # CPU time, not wall: sibling workers timeshare the same
                # cores, and a preempted worker is not "busy" — busy_s is
                # the capacity metric's critical-path denominator.
                start = process_time()
                for link_idx, direction, seq, sent, arrival, blob in handoffs:
                    inject[(link_idx, direction)].inject_remote(
                        sent, arrival, seq, unpack_batch(blob)
                    )
                executed += scheduler.run_until_grant(horizon_ns)
                out = outbox[:]
                outbox.clear()
                busy_s += process_time() - start
                conn.send(("done", out))
            elif kind == "finish":
                # The final grant is until_ns + 1 (events *at* the
                # horizon must run, matching run(until_ns) inclusivity);
                # park the clock back on the horizon itself.
                if scheduler.now_ns > until_ns:
                    scheduler.now_ns = until_ns
                conn.send(
                    ("state", dump_state(net, assignment, shard_id, executed, busy_s, prefork_bus))
                )
                return
            else:
                raise RuntimeError(f"unknown coordinator message {kind!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
        raise
