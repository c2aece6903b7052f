"""Perf rings under pressure: drop accounting, drain order, bridging.

The §4.1 kernel→user channel is bounded and lossy — under pressure the
kernel counts what it sheds rather than blocking the datapath.  These
tests pin that contract on :class:`~repro.userspace.perf.PerfRing`, a
consumer polling a set of per-CPU rings, and the telemetry bridge that
merges several rings into one time-ordered export stream.
"""

import json

from repro.ebpf import PerfEventArrayMap, Program
from repro.lab import Network
from repro.userspace.perf import PerfRecord, PerfRing


def test_ring_drops_when_full_and_counts():
    ring = PerfRing(capacity=4)
    accepted = [ring.push(bytes([i]), time_ns=i) for i in range(10)]
    assert accepted == [True] * 4 + [False] * 6
    assert ring.pushed == 4
    assert ring.dropped == 6
    assert len(ring) == 4
    # The drop counter survives a drain: it is cumulative shed accounting.
    ring.drain()
    assert ring.dropped == 6
    assert ring.push(b"x") is True  # space again after the drain


def test_drain_is_fifo_and_bounded():
    ring = PerfRing(capacity=8)
    for i in range(6):
        ring.push(bytes([i]), time_ns=100 + i)
    first = ring.drain(max_records=2)
    rest = ring.drain()
    assert first == [bytes([0]), bytes([1])]
    assert rest == [bytes([i]) for i in range(2, 6)]
    assert ring.drain() == []


def test_drain_records_keeps_timestamps():
    ring = PerfRing()
    ring.push(b"a", time_ns=5)
    ring.push(b"b", time_ns=9)
    assert ring.drain_records() == [PerfRecord(5, b"a"), PerfRecord(9, b"b")]


def test_poller_dispatches_per_cpu_under_pressure():
    rings = [PerfRing(capacity=2) for _ in range(2)]
    for i in range(5):
        rings[0].push(bytes([i]))
        rings[1].push(bytes([0x10 + i]))
    # What DmDaemon / OampDaemon do on their tick: drain each CPU's ring in turn.
    seen = [(cpu, data) for cpu, ring in enumerate(rings) for data in ring.drain()]
    assert len(seen) == 4  # capacity 2 per ring survived the burst
    assert seen == [(0, b"\x00"), (0, b"\x01"), (1, b"\x10"), (1, b"\x11")]
    assert rings[0].dropped == 3 and rings[1].dropped == 3


def _quiet_net():
    net = Network(seed=3)
    net.add_node("A", addr="fc00:a::1")
    return net


def test_bridge_merges_rings_in_timestamp_order():
    """A sampler tick drains several rings into one time-ordered stream."""
    pmap_a = PerfEventArrayMap("alpha", max_entries=2)
    pmap_b = PerfEventArrayMap("beta", max_entries=1)
    net = _quiet_net()
    session = net.telemetry(interval_ms=10, rings={"alpha": pmap_a, "beta": pmap_b})

    # Interleave pushes across rings and CPUs with distinct timestamps.
    pmap_a.output(0, b"\x01", time_ns=300)
    pmap_b.output(0, b"\x02", time_ns=100)
    pmap_a.output(1, b"\x03", time_ns=200)
    pmap_b.output(0, b"\x04", time_ns=400)
    pmap_a.output(0, b"\x05", time_ns=50)

    session.sample()
    records = session.sink.records()
    perf = [r for r in records if r["type"] == "perf"]
    assert [r["t"] for r in perf] == [50, 100, 200, 300, 400]
    assert [r["data"] for r in perf] == ["05", "02", "03", "01", "04"]
    assert {r["ring"] for r in perf} == {"alpha", "beta"}
    # Ring drop accounting rides along in the snapshot record.
    snapshot = [r for r in records if r["type"] == "sample"][-1]
    assert snapshot["drops"] == {"rings": 0, "sink": 0}
    session.close(final_sample=False)


def test_bridge_reports_ring_drops():
    pmap = PerfEventArrayMap("events", max_entries=1)
    ring = pmap.ring(0)
    net = _quiet_net()
    session = net.telemetry(interval_ms=10, rings={"events": pmap})
    for i in range(ring.capacity + 7):
        pmap.output(0, b"\x00", time_ns=i)
    session.sample()
    snapshot = session.sink.records()[-1]
    assert snapshot["drops"]["rings"] == 7
    session.close(final_sample=False)


def test_perf_event_output_helper_stamps_program_clock():
    """The eBPF helper stamps records with the invocation clock (§4.1)."""
    src = """
; push 8 bytes to user space
.map events, perf_event_array, entries=1
    r2 = events ll
    r3 = 0
    r4 = r10
    r4 += -8
    *(u64 *)(r10 - 8) = r3
    r5 = 8
    call perf_event_output
    r0 = 0
    exit
"""
    prog = Program(src, name="stamp")
    ctx = prog.make_context(b"\x00" * 64, clock_ns=lambda: 777)
    assert prog.run(ctx) == 0
    records = prog.maps["events"].ring(0).drain_records()
    assert records == [PerfRecord(777, b"\x00" * 8)]


def test_sink_lines_are_canonical_json():
    net = _quiet_net()
    session = net.telemetry(interval_ms=10)
    session.sample()
    for line in session.sink.lines():
        assert json.loads(line)  # valid JSON
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":"), default=str
        )
    session.close(final_sample=False)
