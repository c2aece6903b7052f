"""MetricsRegistry unit behaviour: instruments, labels, collection order."""

import pytest

from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry, Sample


def test_counter_inc_and_value():
    registry = MetricsRegistry()
    c = registry.counter("node_rx", node="R")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert registry.value("node_rx", node="R") == 5


def test_counter_rejects_negative():
    c = Counter("c", ())
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_identity_per_label_set():
    registry = MetricsRegistry()
    a = registry.counter("hits", node="A")
    b = registry.counter("hits", node="B")
    again = registry.counter("hits", node="A")
    assert a is again and a is not b
    a.inc()
    assert registry.value("hits", node="A") == 1
    assert registry.value("hits", node="B") == 0


def test_gauge_set_and_pull():
    registry = MetricsRegistry()
    g = registry.gauge("depth", node="A")
    g.set(7)
    backing = [1, 2, 3]
    registry.gauge("depth_fn", fn=lambda: len(backing), node="A")
    values = registry.as_dict()
    assert values["depth{node=A}"] == 7
    assert values["depth_fn{node=A}"] == 3
    backing.append(4)
    assert registry.as_dict()["depth_fn{node=A}"] == 4


def test_histogram_buckets_cumulative():
    registry = MetricsRegistry()
    h = registry.histogram("lat", bounds=(10, 100), node="A")
    for v in (5, 50, 500):
        h.observe(v)
    values = registry.as_dict()
    assert values["lat_count{node=A}"] == 3
    assert values["lat_sum{node=A}"] == 555
    assert values["lat_bucket{le=10,node=A}"] == 1
    assert values["lat_bucket{le=100,node=A}"] == 2
    assert values["lat_bucket{le=+Inf,node=A}"] == 3


def test_histogram_exemplars_are_sideband():
    registry = MetricsRegistry()
    h = registry.histogram("lat", bounds=(10, 100), node="A")
    before = [s for s in h.samples()]
    h.observe(5)  # untraced: no exemplar
    h.observe(50, trace_id="3:14")
    h.observe(60, trace_id="3:15")  # same bucket: last writer wins
    h.observe(500, trace_id="3:16")  # +Inf overflow bucket
    assert h.exemplars == {1: (60, "3:15"), 2: (500, "3:16")}
    # samples() output carries no exemplar fields — the export stream
    # (pinned byte for byte by the determinism tests) is unchanged.
    assert {s.name for s in h.samples()} == {s.name for s in before}
    values = registry.as_dict()
    assert values["lat_count{node=A}"] == 4
    assert values["lat_bucket{le=+Inf,node=A}"] == 4


def test_flowmeter_delay_exemplars_lockstep():
    from repro.net import make_udp_packet
    from repro.sim.stats import FlowMeter

    class _Clock:
        now_ns = 1_000

    class _Node:
        name = "D"
        clock = _Clock

    meter = FlowMeter("m")
    traced = make_udp_packet("fc00::1", "fc00::2", 1, 2, b"x")
    traced.flow_id, traced.seq, traced.tx_tstamp_ns = 9, 4, 400
    traced.tctx = [(400, 400, "emit", "A", "")]
    plain = make_udp_packet("fc00::1", "fc00::2", 1, 2, b"x")
    plain.flow_id, plain.seq, plain.tx_tstamp_ns = 9, 5, 500
    meter.on_packet(traced, _Node, 40)  # the UDP header follows IPv6's
    meter.on_packet(plain, _Node, 40)
    assert meter.delays_ns == [600, 500]
    assert meter.delay_exemplars == ["9:4", None]


def test_collect_is_sorted_and_deterministic():
    registry = MetricsRegistry()
    registry.counter("zeta")
    registry.counter("alpha", node="B")
    registry.counter("alpha", node="A")
    names = [s.render() for s in registry.collect()]
    assert names == sorted(names)
    assert names[0] == "alpha{node=A}"


def test_collector_registration_and_query():
    registry = MetricsRegistry()
    registry.register(lambda: [Sample("dyn_total", (("node", "X"),), 9)])
    assert registry.as_dict()["dyn_total{node=X}"] == 9
    assert registry.query("dyn") == {"dyn_total{node=X}": 9}
    assert registry.query("dyn", "node=X") == {"dyn_total{node=X}": 9}
    assert registry.query("nope") == {}


def test_sample_render():
    assert Sample("m", (("a", "1"), ("b", "2")), 0).render() == "m{a=1,b=2}"
    assert Sample("bare", (), 3).render() == "bare"


def test_owned_metric_kind_clash_raises():
    registry = MetricsRegistry()
    registry.counter("x", node="A")
    with pytest.raises(TypeError):
        registry.gauge("x", node="A")
