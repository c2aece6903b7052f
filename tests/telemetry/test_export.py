"""Export stream contracts: determinism, sinks, session lifecycle."""

import json

import pytest

from repro.ebpf import Program
from repro.lab import Network
from repro.net.lwt_bpf import BpfLwt
from repro.sim.scheduler import NS_PER_MS
from repro.telemetry import FileSink, RingSink


PERF_SRC = """
; export the packet length per transmitted packet (End.DM-style channel)
.map events, perf_event_array, entries=1
    r6 = r1
    r2 = *(u32 *)(r6 + 0)
    *(u64 *)(r10 - 8) = r2
    r1 = r6
    r2 = events ll
    r3 = 0
    r4 = r10
    r4 += -8
    r5 = 8
    call perf_event_output
    r0 = 0
    exit
"""


def _ctrl_net(seed: int) -> Network:
    """The FRR square with a flow and a mid-run failure — a busy export."""
    net = Network(seed=seed)
    for name in ("A", "B", "C", "D"):
        net.add_node(name, addr=f"fc00:{name.lower()}::1")
    net.add_link("A", "B")
    net.add_link("B", "D")
    net.add_link("A", "C")
    net.add_link("C", "D")
    costs = {("A", "eth0"): 5, ("B", "eth0"): 5, ("B", "eth1"): 5, ("D", "eth0"): 5}
    net.ctrl(frr=True, hello_interval_ns=10 * NS_PER_MS, costs=costs)
    net.sink("D")
    flow = net.trafgen("A", dst="fc00:d::1", rate_bps=5e6, payload_size=600)
    flow.start(at_ns=150 * NS_PER_MS, duration_ns=250 * NS_PER_MS)
    net.fail_link("A", "B", at_ns=300 * NS_PER_MS)
    return net


def _run_ctrl_export(seed: int) -> str:
    net = _ctrl_net(seed)
    session = net.telemetry(interval_ms=20, sink=RingSink(capacity=None))
    net.run(until_ms=450)
    session.close()
    return session.sink.text()


def test_seeded_runs_export_byte_identical_jsonl():
    first = _run_ctrl_export(seed=42)
    second = _run_ctrl_export(seed=42)
    assert first == second
    # The stream really carried both record types, not just empty ticks.
    kinds = {json.loads(line)["type"] for line in first.splitlines()}
    assert kinds == {"event", "sample"}
    assert "frr-fired" in first


def _run_perf_export(seed: int) -> str:
    """A jittery link with a BPF LWT program streaming per-packet records."""
    net = Network(seed=seed)
    net.add_node("A", addr="fc00:a::1")
    net.add_node("B", addr="fc00:b::1")
    net.add_link("A", "B", delay_ns=1000, jitter_ns=2000, loss=0.02)
    prog = Program(PERF_SRC, name="stamp")
    net["A"].add_route(
        "fc00:b::/64", via="fc00:b::1", dev="eth0", encap=BpfLwt(prog_xmit=prog)
    )
    net.config("B", "route add fc00:a::/64 via fc00:a::1 dev eth0")
    net.sink("B")
    flow = net.trafgen("A", dst="fc00:b::1", rate_bps=10e6)
    flow.start(duration_ns=50 * NS_PER_MS)
    session = net.telemetry(interval_ms=10, sink=RingSink(capacity=None))
    net.run(until_ms=80)
    session.close()
    return session.sink.text()


def test_perf_records_exported_deterministically():
    first = _run_perf_export(seed=9)
    assert first == _run_perf_export(seed=9)
    records = [json.loads(line) for line in first.splitlines()]
    perf = [r for r in records if r["type"] == "perf"]
    assert perf, "the LWT program's perf records must reach the export"
    assert all(r["ring"] == "events" for r in perf)
    # Timestamps never go backwards within a sampler tick's merge.
    times = [r["t"] for r in perf]
    assert times == sorted(times)


def test_different_seeds_diverge():
    # Jitter and loss draw from the seeded RNG, so the streams must differ.
    assert _run_perf_export(seed=9) != _run_perf_export(seed=10)


def test_ring_sink_bounded_and_lossy():
    sink = RingSink(capacity=3)
    assert [sink.emit(str(i)) for i in range(5)] == [True, True, True, False, False]
    assert sink.dropped == 2
    assert sink.lines() == ["0", "1", "2"]
    assert sink.tail(2) == ["1", "2"]
    with pytest.raises(ValueError):
        RingSink(capacity=0)


def test_file_sink_writes_jsonl(tmp_path):
    path = tmp_path / "export.jsonl"
    net = Network(seed=5)
    net.add_node("A", addr="fc00:a::1")
    session = net.telemetry(interval_ms=10, sink=FileSink(path))
    net.run(until_ms=35)
    session.close()
    lines = path.read_text().splitlines()
    assert len(lines) >= 3
    assert all(json.loads(line)["type"] == "sample" for line in lines)
    seqs = [json.loads(line)["seq"] for line in lines]
    assert seqs == list(range(len(lines)))


def test_one_session_per_network():
    net = Network(seed=1)
    net.add_node("A", addr="fc00:a::1")
    session = net.telemetry()
    with pytest.raises(RuntimeError):
        net.telemetry()
    session.close()
    replacement = net.telemetry()  # a closed session frees the slot
    assert replacement is not session
    replacement.close(final_sample=False)


def test_close_cancels_sampler_and_context_manager():
    net = Network(seed=2)
    net.add_node("A", addr="fc00:a::1")
    with net.telemetry(interval_ms=10) as session:
        net.run(until_ms=25)
    taken = session.samples
    assert session.closed
    net.run(until_ms=100)  # the timer is gone: no further samples
    assert session.samples == taken


def test_a_zero_interval_is_refused_not_clamped():
    net = Network(seed=1)
    net.add_node("A", addr="fc00:a::1")
    with pytest.raises(ValueError):
        net.telemetry(interval_ms=0)
    net.telemetry(interval_ms=10).close(final_sample=False)  # the slot stayed free
