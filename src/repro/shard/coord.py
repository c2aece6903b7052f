"""The shard coordinator: fork, grant rounds, merge, write back.

``run_sharded(net, until_ns, shards)`` is what ``net.run(shards=K)``
calls.  The parent builds the network once, snapshots the pre-fork
metric baseline, forks one worker per shard (copy-on-write replicas —
nothing is pickled), and then drives conservative rounds:

    grant    H[s] = min(until_end, min over in-neighbours n
                        of T[n] + lookahead[n][s])
    execute  each worker runs strictly below its grant
    exchange handoff batches produced this round are routed to their
             receiving shard for injection at the next round's start

Every cross-shard link has positive delay (the partitioner's
invariant), so the minimum-granted shard always advances strictly and
the loop terminates.  A handoff produced in round ``r`` by shard ``n``
carries ``arrival >= T[n] + lookahead[n][s] >= H[s]``, so it is always
injected at or ahead of the receiver's clock — never into executed
history.

After the last round the coordinator collects each worker's state and
reassembles the parent: the ownership-merged metrics registry replaces
``net.metrics``, per-shard telemetry streams merge into the user's
sink, and node/device/link/meter/flow/bus state is written back onto
the parent objects so post-run readouts work exactly as after an
in-process run.  A sharded run is terminal for its network: the parent
never executed the event heap, so the network cannot be driven further.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict

from ..telemetry.metrics import MetricsRegistry
from .merge import classify_samples, merge_samples, merge_telemetry, merge_trace_records
from .partition import ShardingError, lookahead_matrix, partition
from .worker import worker_main


class ShardRunResult(int):
    """The executed-event count (total over the workers, proxy
    drain/delivery events included) carrying the sharded run's
    shape: ``shards``, ``rounds``, the node ``assignment``, and each
    worker's busy-time ``busy_s`` (the per-shard wall clock spent
    executing, which is what the scaling benchmark's capacity metric
    divides by)."""

    def __new__(cls, executed, *, shards, rounds, assignment, busy_s):
        self = super().__new__(cls, int(executed))
        self.shards = shards
        self.rounds = rounds
        self.assignment = dict(assignment)
        self.busy_s = list(busy_s)
        return self


def run_sharded(net, until_ns: int, shards: int, max_events: int | None = None) -> ShardRunResult:
    """Partition ``net``, run it across ``shards`` worker processes."""
    if shards == 1:
        executed = net.scheduler.run(until_ns=until_ns, max_events=max_events)
        return ShardRunResult(
            executed,
            shards=1,
            rounds=0,
            assignment={name: 0 for name in sorted(net.nodes)},
            busy_s=[],
        )
    if max_events is not None:
        raise ShardingError(
            "max_events= is not supported with shards > 1: an event budget "
            "has no deterministic meaning across concurrent schedulers"
        )
    if until_ns is None:
        raise ShardingError("a sharded run needs an explicit until_ns horizon")
    if net.scheduler.events_run:
        raise ShardingError(
            "a sharded run needs a fresh network (events already executed); "
            "build the topology, then run once with shards="
        )
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        raise ShardingError(
            "sharded runs need the fork start method (POSIX only)"
        ) from None

    assignment = partition(net, shards)
    matrix = lookahead_matrix(net, assignment, shards)

    # Instantiate the registry and telemetry state *before* forking so
    # every replica shares the parent's collector layout, then snapshot
    # the baseline the delta merge subtracts.
    registry = net.metrics
    baseline = registry.collect()
    baseline_dict = {sample.render(): sample.value for sample in baseline}
    base_links = [
        (asdict(link.a_to_b.stats), asdict(link.b_to_a.stats)) for link in net.links
    ]
    prefork_bus = len(net._ctrl.bus.events) if net._ctrl is not None else 0

    conns, procs = [], []
    try:
        for k in range(shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main,
                args=(child_conn, net, assignment, k, until_ns, prefork_bus),
                name=f"repro-shard-{k}",
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        until_end = until_ns + 1  # inclusive horizon: events AT until_ns run
        clocks = [0] * shards
        pending: list[list] = [[] for _ in range(shards)]
        rounds = 0
        while any(t < until_end for t in clocks) or any(pending):
            horizons = []
            for s in range(shards):
                horizon = until_end
                for n in range(shards):
                    delay = matrix[n][s]
                    if delay is not None:
                        horizon = min(horizon, clocks[n] + delay)
                horizons.append(horizon)
            for s in range(shards):
                conns[s].send(("run", horizons[s], pending[s]))
                pending[s] = []
            for s in range(shards):
                kind, payload = _recv(conns[s], s)
                if kind != "done":
                    raise RuntimeError(f"shard {s} failed:\n{payload}")
                for dst, item in payload:
                    pending[dst].append(item)
                clocks[s] = horizons[s]
            rounds += 1

        states = []
        for s in range(shards):
            conns[s].send(("finish",))
            kind, payload = _recv(conns[s], s)
            if kind != "state":
                raise RuntimeError(f"shard {s} failed:\n{payload}")
            states.append(payload)
        for proc in procs:
            proc.join()
    finally:
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - error cleanup
                proc.terminate()
                proc.join()
        for conn in conns:
            conn.close()

    _merge_into_parent(net, assignment, baseline, baseline_dict, base_links, states)
    net.scheduler.now_ns = until_ns
    net.scheduler.events_run = sum(st["events_run"] for st in states)
    net._sharded = True
    return ShardRunResult(
        sum(st["executed"] for st in states),
        shards=shards,
        rounds=rounds,
        assignment=assignment,
        busy_s=[st["busy_s"] for st in states],
    )


def _recv(conn, shard: int):
    try:
        return conn.recv()
    except EOFError:
        raise RuntimeError(
            f"shard {shard} worker died without reporting an error"
        ) from None


def _merge_into_parent(net, assignment, baseline, baseline_dict, base_links, states):
    owner = assignment.get
    worker_samples = [st["samples"] for st in states]
    merged_samples = merge_samples(baseline, worker_samples, owner)

    # The parent registry's live collectors would re-read parent-side
    # structs that never ran; replace it with the merged static view (the
    # union of everything the workers measured, ownership rules applied).
    merged = MetricsRegistry().merge(merged_samples)
    shard_view = MetricsRegistry()
    for k, samples in enumerate(worker_samples):
        shard_view.merge(samples, extra_labels={"shard": k})
    net._metrics = merged
    net.shard_metrics = shard_view

    session = net._telemetry
    if session is not None and not session.closed:
        lines = merge_telemetry(
            [st["telemetry"] or [] for st in states],
            baseline=baseline_dict,
            kinds=classify_samples(merged_samples),
            owner=owner,
        )
        for line in lines:
            session.sink.emit(line)
        session.registry = merged
        session.samples = states[0]["ticks"]
        # Events published after the last tick re-enter the parent
        # session so the user's close() emits them like an in-process
        # run would.
        from ..ctrl.events import CtrlEvent

        trailing = sorted(
            (event for st in states for event in st["pending"]),
            key=lambda e: (e[0], e[1], e[2], repr(sorted(e[3].items()))),
        )
        session._pending_events = [CtrlEvent(*event) for event in trailing]

    for st in states:
        for name, fields in st["nodes"].items():
            counters = net.nodes[name].counters
            for field, value in fields.items():
                setattr(counters, field, value)
        for (name, dev), fields in st["devs"].items():
            stats = net.nodes[name].devices[dev].stats
            for field, value in fields.items():
                setattr(stats, field, value)
        for idx, fields in st["meters"].items():
            meter = net.meters[idx]
            for field, value in fields.items():
                setattr(meter, field, value)
        for idx, fields in st["flows"].items():
            flow = net.flows[idx]
            flow.stats.sent = fields["sent"]
            flow.stats.bytes_sent = fields["bytes_sent"]
            flow._seq = fields["_seq"]

    for idx, link in enumerate(net.links):
        shard_a = assignment[link.dev_a.node.name]
        shard_b = assignment[link.dev_b.node.name]
        for direction, (endpoint, src, dst) in enumerate(
            ((link.a_to_b, shard_a, shard_b), (link.b_to_a, shard_b, shard_a))
        ):
            src_stats = states[src]["links"][idx][direction]
            dst_stats = states[dst]["links"][idx][direction]
            stats = endpoint.stats
            stats.sent = src_stats["sent"]
            stats.bytes_sent = src_stats["bytes_sent"]
            stats.delivered = dst_stats["delivered"]
            if src == dst:
                stats.dropped = src_stats["dropped"]
            else:
                # Queue-full drops accrue sender-side, in-flight loss
                # receiver-side; both replicas carry the fork baseline.
                stats.dropped = (
                    src_stats["dropped"]
                    + dst_stats["dropped"]
                    - base_links[idx][direction]["dropped"]
                )

    tracer = getattr(net, "_tracer", None)
    if tracer is not None:
        tracer.records = merge_trace_records(st.get("trace") for st in states)
        tracer.started = sum(st.get("trace_started", 0) for st in states)

    if net._ctrl is not None:
        from ..ctrl.events import CtrlEvent

        bus = net._ctrl.bus
        extra = sorted(
            (event for st in states for event in st["bus"]),
            key=lambda e: (e[0], e[1], e[2], repr(sorted(e[3].items()))),
        )
        bus.events.extend(CtrlEvent(*event) for event in extra)
        counts: dict = {}
        for event in bus.events:
            key = (event.kind, event.node)
            counts[key] = counts.get(key, 0) + 1
        bus.counts = counts
