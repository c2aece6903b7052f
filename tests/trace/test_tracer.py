"""repro.trace: span capture, exact attribution, sampling, export."""

from __future__ import annotations

import json

from repro.lab import Network
from repro.sim import CostModel
from repro.sim.scheduler import NS_PER_MS
from repro.telemetry.sink import RingSink
from repro.trace import Tracer, trace_id_of


def build_chain(seed: int = 5, *, sample: int = 1):
    """A—B—C with a shaped egress at A and a CPU cost model at B.

    All three time-consuming components (netem qdisc, link endpoints,
    CPU queue) sit on the path, so attribution exercises every duration
    category.
    """
    net = Network(seed=seed)
    net.add_node("A", addr="fc00:a::1")
    net.add_node("B", addr="fc00:b::1")
    net.add_node("C", addr="fc00:c::1")
    net.add_link("A", "B", rate_bps=100e6, delay_ns=300_000)
    net.add_link("B", "C", rate_bps=100e6, delay_ns=300_000)
    net.config("A", "route add fc00:c::/64 via fc00:b::1 dev eth0")
    net.config("B", "route add fc00:c::/64 via fc00:c::1 dev eth1")
    net.netem("A", "eth0", rate_bps=50e6, delay_ns=150_000)
    net.cpu("B", CostModel(forward_ns=2_000))
    tracer = net.trace(sample=sample)
    flow = net.trafgen("A", dst="fc00:c::1", rate_bps=20e6, payload_size=600)
    meter = net.sink("C")
    flow.start(at_ns=0)
    return net, tracer, flow, meter


def test_span_durations_sum_exactly_to_measured_delay():
    net, tracer, flow, meter = build_chain()
    net.run(until_ns=20 * NS_PER_MS)
    assert len(tracer.records) == meter.packets > 10
    for rec in tracer.records:
        spans = rec["spans"]
        assert spans[0][2] == "emit" and spans[0][3] == "A"
        assert spans[-1][2] == "deliver" and spans[-1][3] == "C"
        assert rec["delay_ns"] == rec["t1"] - rec["t0"] > 0
        # The core contract: duration spans tile emission..delivery.
        assert sum(e - s for s, e, *_ in spans) == rec["delay_ns"]
        assert sum(rec["attribution"].values()) == rec["delay_ns"]


def test_every_component_category_appears():
    net, tracer, flow, meter = build_chain()
    net.run(until_ns=20 * NS_PER_MS)
    categories = set()
    for rec in tracer.records:
        categories.update(span[2] for span in rec["spans"])
    assert {"emit", "rx", "deliver"} <= categories
    assert {"stage:lookup", "stage:transmit"} <= categories
    assert {"serialize", "propagate", "cpu"} <= categories
    aggregate = tracer.attribution()
    assert aggregate["cpu"] == 2_000 * len(tracer.records)  # B's forward cost
    assert aggregate["propagate"] > 0 and aggregate["serialize"] > 0


def test_queries_top_find_follow():
    net, tracer, flow, meter = build_chain()
    net.run(until_ns=20 * NS_PER_MS)
    top = tracer.top(5)
    assert len(top) == 5
    assert [r["delay_ns"] for r in top] == sorted(
        (r["delay_ns"] for r in top), reverse=True
    )
    assert top[0]["delay_ns"] == max(r["delay_ns"] for r in tracer.records)
    rec = tracer.records[0]
    assert tracer.find(rec["id"]) is rec
    assert tracer.find("999999:1") is None
    followed = tracer.follow(flow.flow_id)
    assert len(followed) == len(tracer.records)
    assert [r["t1"] for r in followed] == sorted(r["t1"] for r in followed)


def test_untraced_run_keeps_tctx_none():
    net = Network(seed=5)
    net.add_node("A", addr="fc00:a::1")
    net.add_node("B", addr="fc00:b::1")
    net.add_link("A", "B")
    net.config("A", "route add fc00:b::/64 via fc00:b::1 dev eth0")
    flow = net.trafgen("A", dst="fc00:b::1", rate_bps=10e6, payload_size=200)
    seen = []
    net.nodes["B"].bind(lambda pkt, node, _offset: seen.append(pkt), port=5201)
    flow.start(at_ns=0)
    net.run(until_ns=5 * NS_PER_MS)
    assert seen and all(pkt.tctx is None for pkt in seen)


def test_sampling_is_deterministic_and_seed_derived():
    admitted = [f for f in range(200) if Tracer(sample=4, seed=9).admits_flow(f)]
    again = [f for f in range(200) if Tracer(sample=4, seed=9).admits_flow(f)]
    assert admitted == again
    assert 0 < len(admitted) < 200
    other_seed = [f for f in range(200) if Tracer(sample=4, seed=10).admits_flow(f)]
    assert admitted != other_seed
    off = Tracer(sample=0, seed=9)
    assert not any(off.admits_flow(f) for f in range(200))
    off.always.add(7)
    assert off.admits_flow(7)


def test_sample_zero_with_always_traces_only_marked_flow():
    net = Network(seed=5)
    net.add_node("A", addr="fc00:a::1")
    net.add_node("B", addr="fc00:b::1")
    net.add_link("A", "B")
    net.config("A", "route add fc00:b::/64 via fc00:b::1 dev eth0")
    tracer = net.trace(sample=0)
    flow1 = net.trafgen("A", dst="fc00:b::1", rate_bps=10e6, payload_size=200)
    flow2 = net.trafgen("A", dst="fc00:b::1", rate_bps=10e6, payload_size=200)
    tracer.always.add(flow2.flow_id)
    # Re-arm: always-marks added after trafgen() need the explicit hook.
    flow2.tracer = tracer
    net.sink("B")
    flow1.start(at_ns=0)
    flow2.start(at_ns=0)
    net.run(until_ns=5 * NS_PER_MS)
    assert tracer.records
    assert {rec["flow"] for rec in tracer.records} == {flow2.flow_id}


def test_flows_argument_marks_always_traced():
    net = Network(seed=5)
    net.add_node("A", addr="fc00:a::1")
    net.add_node("B", addr="fc00:b::1")
    net.add_link("A", "B")
    net.config("A", "route add fc00:b::/64 via fc00:b::1 dev eth0")
    flow = net.trafgen("A", dst="fc00:b::1", rate_bps=10e6, payload_size=200)
    tracer = net.trace(sample=0, flows=[flow])
    assert flow.tracer is tracer
    assert tracer.admits_flow(flow.flow_id)


def test_one_tracer_per_network():
    net = Network(seed=1)
    net.trace()
    try:
        net.trace()
    except RuntimeError as exc:
        assert "tracer" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("second trace() must be rejected")


def test_packet_copy_does_not_inherit_trace_context():
    from repro.net import make_udp_packet

    pkt = make_udp_packet("fc00::1", "fc00::2", 1, 2, b"x")
    pkt.tctx = [(0, 0, "emit", "A", "")]
    assert pkt.copy().tctx is None


def test_jsonl_export_is_byte_stable_across_identical_runs(tmp_path):
    lines = []
    for _ in range(2):
        net, tracer, flow, _meter = build_chain()
        net.run(until_ns=20 * NS_PER_MS)
        lines.append(tracer.jsonl_lines())
    assert lines[0] == lines[1]
    for line in lines[0]:
        rec = json.loads(line)
        assert rec["type"] == "trace"
        assert rec["id"] == f"{rec['flow']}:{rec['seq']}"

    net, tracer, flow, _meter = build_chain()
    net.run(until_ns=20 * NS_PER_MS)
    path = tmp_path / "trace.jsonl"
    written = tracer.export(path)
    assert written == len(lines[0])
    assert path.read_text().splitlines() == lines[0]

    ring = RingSink(capacity=None)
    assert tracer.export(ring) == written
    assert ring.lines() == lines[0]


class _Event:
    def __init__(self, time_ns, node, kind):
        self.time_ns = time_ns
        self.node = node
        self.kind = kind


class _StubNet:
    def __init__(self, events):
        class _Bus:
            pass

        class _Ctrl:
            pass

        self._ctrl = _Ctrl()
        self._ctrl.bus = _Bus()
        self._ctrl.bus.events = events


def test_bus_events_correlate_into_records():
    tracer = Tracer(
        net=_StubNet(
            [
                _Event(50, "A", "link_down"),
                _Event(150, "A", "frr_activated"),
                _Event(900, "B", "igp_spf"),
            ]
        )
    )
    rec = {
        "type": "trace",
        "id": "1:1",
        "flow": 1,
        "seq": 1,
        "src": "A",
        "dst": "C",
        "t0": 100,
        "t1": 300,
        "delay_ns": 200,
        "attribution": {},
        "spans": [],
    }
    tracer.records.append(rec)
    assert tracer.events_for(rec) == [[150, "A", "frr_activated"]]
    (line,) = tracer.jsonl_lines(correlate=True)
    assert json.loads(line)["events"] == [[150, "A", "frr_activated"]]
    (plain,) = tracer.jsonl_lines(correlate=False)
    assert "events" not in json.loads(plain)


def test_trace_id_of_matches_record_identity():
    class _Pkt:
        flow_id = 3
        seq = 14

    assert trace_id_of(_Pkt()) == "3:14"
