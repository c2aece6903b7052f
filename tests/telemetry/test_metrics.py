"""MetricsRegistry unit behaviour: collectors, labels, collection order."""

from repro.telemetry import MetricsRegistry, Sample


def test_value_reads_one_labelled_sample():
    registry = MetricsRegistry()
    registry.register(
        lambda: [Sample("hits", (("node", "A"),), 5), Sample("hits", (("node", "B"),), 0)]
    )
    assert registry.value("hits", node="A") == 5
    assert registry.value("hits", node="B") == 0
    assert registry.value("hits", node="C") is None
    assert registry.value("hits", default=-1) == -1


def test_collector_is_pulled_at_every_collect():
    registry = MetricsRegistry()
    backing = [1, 2, 3]
    registry.register(lambda: [Sample("depth", (("node", "A"),), len(backing), "gauge")])
    assert registry.as_dict()["depth{node=A}"] == 3
    backing.append(4)
    assert registry.as_dict()["depth{node=A}"] == 4


def test_merge_folds_in_a_snapshot_not_the_collector():
    source = MetricsRegistry()
    backing = {"value": 3}
    source.register(lambda: [Sample("rx", (("node", "A"),), backing["value"])])
    merged = MetricsRegistry().merge(source)
    backing["value"] = 8
    assert source.value("rx", node="A") == 8
    assert merged.value("rx", node="A") == 3


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
    registry.register(lambda: [Sample("zeta", (), 0), Sample("alpha", (("node", "B"),), 0)])
    registry.merge([Sample("alpha", (("node", "A"),), 0)])
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

