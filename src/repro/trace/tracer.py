"""Span-based packet tracing with exact latency attribution.

A *trace* follows one packet from the instant a generator emits it to
the instant a node delivers it locally, as a flat list of *spans*
``(start_ns, end_ns, category, where, detail)``.  Only the three
components that consume simulated time — netem qdiscs, link endpoints
and CPU queues — record spans with duration; pipeline stages and eBPF
hook executions are zero-duration instants.  Because nothing else in
the datapath advances the clock, the span durations of a delivered
packet *tile* the interval between emission and delivery: they sum
exactly to the measured end-to-end delay (``tests/trace`` pins this).

The context is the packet itself: ``Packet.tctx`` is either ``None``
(not traced — the common case, checked with a single slot load on the
hot paths) or the span list, which rides the packet through every hop,
through the shard handoff codec, and is finalised exactly once on the
delivering node.  Trace identities are pure functions of the packet
(``"flow:seq"``) and sampling is a pure function of ``(seed, flow)``,
so a seeded sharded run produces byte-identical trace streams across
shard counts — no counters, no host clocks, nothing process-local.

Categories
----------
``emit``        instant: trafgen handed the packet to its node
``rx``          instant: a device receive (detail = device name)
``stage:*``     instant: a pipeline stage ran (lookup/seg6local/...)
``ebpf``        instant: an eBPF program executed (detail = hook/prog)
``queue``       duration: waiting for a busy resource (qdisc, link
                serialiser, CPU) including batch coalesce/completion
``serialize``   duration: the packet's own bits on the wire
``propagate``   duration: link propagation delay
``cpu``         duration: the packet's own CPU cost
``deliver``     instant: local delivery on the terminal node
"""

from __future__ import annotations

import zlib

from ..telemetry.sink import FileSink, encode
from .chrome import chrome_trace


def trace_id_of(pkt) -> str:
    """The deterministic identity of a packet's trace."""
    return f"{pkt.flow_id}:{pkt.seq}"


class Tracer:
    """One tracing session over a network (arm with ``net.trace(...)``).

    Head-based sampling is decided once per *flow*: a flow is admitted
    when ``crc32(seed || flow_id) % sample == 0`` (``sample=1`` traces
    every flow, ``sample=0`` only the explicit always-trace marks) —
    a pure function of the seed, so replicas of a sharded run agree.
    Every packet of an admitted flow is traced.
    """

    def __init__(self, net=None, sample: int = 1, seed: int = 0):
        self.net = net
        self.sample = max(0, int(sample))
        self.seed = int(seed)
        self.always: set = set()  # flow ids traced regardless of sampling
        self.records: list = []  # finalised trace records (dicts)
        self.started = 0
        self.profiler = None  # set by net.trace(profile=True)
        self._salt = b"trace:%d:" % self.seed

    # -- admission ----------------------------------------------------

    def admits_flow(self, flow_id: int) -> bool:
        if flow_id in self.always:
            return True
        n = self.sample
        if not n:
            return False
        return zlib.crc32(self._salt + b"%d" % flow_id) % n == 0

    def admit(self, pkt, origin: str, now_ns: int) -> None:
        """Start a trace on ``pkt`` unconditionally (flow pre-admitted)."""
        pkt.tctx = [(now_ns, now_ns, "emit", origin, "")]
        self.started += 1

    # -- finalisation -------------------------------------------------

    def finish(self, pkt, node) -> None:
        """Close the trace at local delivery on ``node`` (exactly once)."""
        now = node.clock.now_ns
        spans = pkt.tctx
        spans.append((now, now, "deliver", node.name, ""))
        t0 = pkt.tx_tstamp_ns
        attribution: dict = {}
        for s, e, cat, _where, _detail in spans:
            if e > s:
                attribution[cat] = attribution.get(cat, 0) + (e - s)
        self.records.append(
            {
                "type": "trace",
                "id": trace_id_of(pkt),
                "flow": pkt.flow_id,
                "seq": pkt.seq,
                "src": spans[0][3],
                "dst": node.name,
                "t0": t0,
                "t1": now,
                "delay_ns": now - t0,
                "attribution": attribution,
                "spans": [list(span) for span in spans],
            }
        )

    # -- queries ------------------------------------------------------

    def sorted_records(self) -> list:
        """Records in the canonical export order: ``(t1, flow, seq)``.

        Delivery instants are unique per ``(flow, seq)`` and the key is
        derived purely from simulated time and packet identity, so the
        order (and hence the export bytes) is identical whether records
        accumulated in one process or were stitched from shard workers.
        """
        return sorted(self.records, key=lambda r: (r["t1"], r["flow"], r["seq"]))

    def top(self, n: int = 10) -> list:
        """The ``n`` slowest delivered packets."""
        return sorted(
            self.records, key=lambda r: (-r["delay_ns"], r["t1"], r["flow"], r["seq"])
        )[:n]

    def find(self, trace_id: str):
        """The record with id ``"flow:seq"``, or ``None``."""
        for rec in self.records:
            if rec["id"] == trace_id:
                return rec
        return None

    def follow(self, flow_id: int) -> list:
        """All records of one flow, in delivery order."""
        return [r for r in self.sorted_records() if r["flow"] == int(flow_id)]

    def attribution(self) -> dict:
        """Aggregate per-category nanoseconds across all records."""
        total: dict = {}
        for rec in self.records:
            for cat, ns in rec["attribution"].items():
                total[cat] = total.get(cat, 0) + ns
        return dict(sorted(total.items()))

    # -- correlation --------------------------------------------------

    def _bus_events(self):
        net = self.net
        if net is None or getattr(net, "_ctrl", None) is None:
            return ()
        return net._ctrl.bus.events

    def events_for(self, rec) -> list:
        """ControlBus events that fired during a trace's lifetime."""
        hits = [
            (e.time_ns, e.node, e.kind)
            for e in self._bus_events()
            if rec["t0"] <= e.time_ns <= rec["t1"]
        ]
        hits.sort()
        return [list(h) for h in hits]

    # -- export -------------------------------------------------------

    def jsonl_lines(self, correlate: bool = True) -> list:
        """Canonical JSONL lines, sorted by ``(t1, flow, seq)``.

        With ``correlate=True`` each record gains an ``events`` list of
        ControlBus events that fired mid-trace (e.g. an FRR activation
        between emission and delivery).
        """
        lines = []
        has_bus = correlate and len(self._bus_events()) > 0
        for rec in self.sorted_records():
            if has_bus:
                events = self.events_for(rec)
                if events:
                    rec = dict(rec, events=events)
            lines.append(encode(rec))
        return lines

    def export(self, target, correlate: bool = True) -> int:
        """Write the canonical trace stream to a path or a sink.

        Returns the number of records written.
        """
        lines = self.jsonl_lines(correlate=correlate)
        if hasattr(target, "emit"):
            for line in lines:
                target.emit(line)
        else:
            sink = FileSink(target)
            try:
                for line in lines:
                    sink.emit(line)
            finally:
                sink.close()
        return len(lines)

    def chrome_trace(self) -> dict:
        """The trace as a Chrome trace-event object (Perfetto-loadable)."""
        return chrome_trace(self.sorted_records())

    def export_chrome(self, path) -> int:
        import json

        obj = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        return len(obj["traceEvents"])
