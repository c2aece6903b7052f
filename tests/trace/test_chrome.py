"""Chrome trace-event export: schema the Perfetto UI accepts."""

from __future__ import annotations

import json

from repro.sim.scheduler import NS_PER_MS

from test_tracer import build_chain


def test_chrome_trace_schema(tmp_path):
    net, tracer, flow, _meter = build_chain()
    net.run(until_ns=20 * NS_PER_MS)
    obj = tracer.chrome_trace()
    assert set(obj) == {"traceEvents", "displayTimeUnit"}
    assert obj["displayTimeUnit"] == "ns"
    events = obj["traceEvents"]
    assert events

    phases = {"M": 0, "X": 0, "i": 0}
    for event in events:
        ph = event["ph"]
        assert ph in phases
        phases[ph] += 1
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if ph == "M":
            assert event["name"] in ("process_name", "thread_name")
            assert "name" in event["args"]
        else:
            assert isinstance(event["ts"], float)
            assert event["args"]["trace"]
            if ph == "X":
                assert isinstance(event["dur"], float) and event["dur"] > 0
            else:
                assert event["s"] == "t"
    assert phases["X"] > 0 and phases["i"] > 0 and phases["M"] > 0

    # One process per flow, metadata names both processes and threads.
    pids = {e["pid"] for e in events}
    assert pids == {flow.flow_id}
    named_threads = {
        (e["pid"], e["tid"]) for e in events if e.get("name") == "thread_name"
    }
    used_threads = {(e["pid"], e["tid"]) for e in events if e["ph"] != "M"}
    assert used_threads <= named_threads | {(flow.flow_id, 0)}

    # The file form round-trips through json and is deterministic.
    path = tmp_path / "trace.chrome.json"
    written = tracer.export_chrome(path)
    assert written == len(events)
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(obj, sort_keys=True)
    )


def test_chrome_trace_is_deterministic():
    dumps = []
    for _ in range(2):
        net, tracer, _flow, _meter = build_chain()
        net.run(until_ns=20 * NS_PER_MS)
        dumps.append(json.dumps(tracer.chrome_trace(), sort_keys=True))
    assert dumps[0] == dumps[1]
