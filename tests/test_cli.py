"""Scripted :mod:`repro.cli` sessions — the acceptance integration path.

A CLI session on the FRR square must *observe* a failure end to end:
``events -f`` prints the ``frr-fired`` event as the simulation runs, and
the counters view shows traffic shifting onto the detour node.
"""

import io
import re

from repro.cli import NetCli, build_network, main
from repro.sim.scheduler import NS_PER_MS


def _square_with_flow(seed: int = 7):
    net = build_network("square", seed=seed, with_ctrl=True, frr=True)
    net.sink("D")
    flow = net.trafgen("A", dst="fc00:d::1", rate_bps=5e6, payload_size=600)
    flow.start(at_ns=150 * NS_PER_MS, duration_ns=400 * NS_PER_MS)
    return net


def _counter(text: str, rendered: str) -> int:
    match = re.search(rf"^{re.escape(rendered)}\s+(\d+)$", text, re.MULTILINE)
    return int(match.group(1)) if match else 0


def test_scripted_session_observes_frr_reroute():
    net = _square_with_flow()
    out = io.StringIO()
    cli = NetCli(net, out=out)

    # Converge, start the flow on the primary path, snapshot C's counters.
    cli.script(["run 250", "counters C eth1"])
    before = out.getvalue()
    sent_before = _counter(before, "link_sent{device=eth1,node=C}")

    # Follow events live, break the primary link, keep running.
    cli.script(["events -f", "fail A B", "run 200", "counters C eth1"])
    after = out.getvalue()[len(before):]

    # The follow stream saw the repair happen, in order.
    assert "(follow on)" in after
    assert "frr-fired" in after
    assert "adjacency-down" in after
    assert after.index("frr-fired") < after.index("adjacency-down")

    # Counter delta: the detour node now carries the flow toward D.
    sent_after = _counter(after, "link_sent{device=eth1,node=C}")
    assert sent_after > sent_before + 50

    # The registry agrees with what the CLI printed.
    assert net.metrics.value("ctrl_events", kind="frr-fired", node="A") >= 1


def test_counters_filter_and_unknown_command():
    net = _square_with_flow()
    out = io.StringIO()
    cli = NetCli(net, out=out)
    cli.script(["run 250", "frobnicate", "counters A eth0", "counters A nosuchdev"])
    text = out.getvalue()
    assert "*** unknown command: frobnicate" in text
    assert "{device=eth0,node=A}" in text
    assert "node=B" not in text  # the node filter held
    assert "(no nonzero counters on A)" in text  # unmatched device filter


def test_events_tail_and_follow_toggle():
    net = _square_with_flow()
    out = io.StringIO()
    cli = NetCli(net, out=out)
    cli.script(["run 100", "events -n 3", "events -n 0", "events -f", "events -f"])
    text = out.getvalue()
    assert "adjacency-up" in text  # -n 0 means the full log
    assert text.count("spf-run") >= 4  # tail of 3 plus the full log again
    assert "(follow on)" in text and "(follow off)" in text
    assert not cli.follow


def test_sample_command_emits_snapshot_json():
    net = _square_with_flow()
    out = io.StringIO()
    cli = NetCli(net, out=out)
    cli.script(["run 50", "sample"])
    text = out.getvalue()
    assert "(telemetry session started" in text
    assert '"type":"sample"' in text


def test_fail_and_recover_roundtrip():
    net = _square_with_flow()
    out = io.StringIO()
    cli = NetCli(net, out=out)
    cli.script(["run 100", "fail A B", "links", "recover A B", "run 100", "links"])
    text = out.getvalue()
    assert "link A-B down" in text and "link A-B up" in text
    assert "DOWN" in text


def test_exit_stops_the_script():
    net = build_network("square", seed=1, with_ctrl=False, frr=False)
    out = io.StringIO()
    cli = NetCli(net, out=out)
    cli.script(["nodes", "exit", "run 1000"])  # run never executes
    assert net.now_ns == 0
    assert "A" in out.getvalue()


def test_main_feed_runs_headless(capsys):
    rc = main(
        [
            "--setup",
            "square",
            "--frr",
            "--seed",
            "7",
            "--feed",
            "run 150; nodes; events -n 2; exit",
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "ran to 150.000 ms" in text
    assert re.search(r"^A\s+addrs=fc00:a::1", text, re.MULTILINE)


def test_trace_command_family():
    net = _square_with_flow()
    out = io.StringIO()
    cli = NetCli(net, out=out)

    # Reading before arming is an error; arming twice is reported.
    cli.script(["trace top", "trace on", "trace on", "run 400", "trace top 3"])
    text = out.getvalue()
    assert "tracing is not armed" in text
    assert "(tracing armed, 1-in-1 flows)" in text
    assert "(tracing already armed)" in text
    top_lines = [line for line in text.splitlines() if "delay=" in line]
    assert len(top_lines) == 3
    assert all("A->D" in line for line in top_lines)

    tracer = net._tracer
    trace_id = tracer.top(1)[0]["id"]
    flow_id = tracer.top(1)[0]["flow"]
    out2 = io.StringIO()
    cli.out = out2
    cli.script([f"trace show {trace_id}", f"trace follow {flow_id}"])
    shown = out2.getvalue()
    assert "emit" in shown and "deliver" in shown and "propagate" in shown
    assert shown.count("delay=") == 1 + len(tracer.follow(flow_id))

    out3 = io.StringIO()
    cli.out = out3
    cli.script(["trace show 999999:1", "trace nonsense", "trace"])
    errors = out3.getvalue()
    assert "no trace" in errors
    assert errors.count("usage: trace") == 2


def test_main_setup2_builds(capsys):
    rc = main(["--setup", "setup2", "--no-ctrl", "--feed", "nodes; links; exit"])
    assert rc == 0
    text = capsys.readouterr().out
    for name in ("S1", "A", "R", "M", "S2"):
        assert re.search(rf"^{name}\s+addrs=", text, re.MULTILINE)


def test_interact_reads_commands_from_a_stream():
    """Piped stdin: no prompt on a non-TTY stream, and ``exit`` ends the read."""
    net = build_network("square", seed=7, with_ctrl=True, frr=True)
    out = io.StringIO()
    NetCli(net, out=out).interact(io.StringIO("run 10\nnodes\nexit\nrun 1000\n"))
    text = out.getvalue()
    assert net.now_ns == 10 * NS_PER_MS
    assert "ran to 10.000 ms" in text
    assert NetCli.PROMPT not in text


def test_help_lists_every_command():
    out = io.StringIO()
    NetCli(build_network("square", seed=1, with_ctrl=False, frr=False), out=out).dispatch("help")
    listed = {line.split()[0] for line in out.getvalue().splitlines()}
    commands = {name.removeprefix("cmd_") for name in dir(NetCli) if name.startswith("cmd_")}
    assert commands <= listed, sorted(commands - listed)
