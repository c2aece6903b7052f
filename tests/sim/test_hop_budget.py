"""Python-level calls and bytecodes per packet on the datapath, counted, not timed.

Each path drives one packet shape once under :func:`count`, which tallies by
the layer of the running code: its file under ``src/repro/``, ``<ebpf-jit>``
or ``other``.  ``hop_budget.json`` holds each path's calls per packet and, per
CPython minor, each layer's bytecodes per packet, rounded up to the hundredth.
Print the measured rows for this minor in the table's format with
``PYTHONPATH=src python tests/sim/test_hop_budget.py [PATH ...] [--by function]``.
``--host`` prints instead each layer's share of host time, sampled by
``SIGPROF``, beside its share of the bytecodes: the counted rows weigh a
bytecode that is a C call no more than one that is not.
"""

from __future__ import annotations

import argparse
import dis
import gc
import json
import math
import os
import signal
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import pytest

import repro
from repro.bench.harness import FIG2_VARIANTS, copy_batch, drive_batch, make_fig2_router
from repro.lab import build_setup1, build_setup2
from repro.net import EndBPF, EndDT6, Node, Packet, TcpHeader, pton
from repro.net import make_srv6_udp_packet, make_tcp_packet, make_udp_packet
from repro.net.tcp import FLAG_ACK
from repro.progs import add_tlv_prog, end_prog, tag_increment_prog
from repro.sim import NS_PER_MS, Scheduler, TcpReceiver, TcpSender
from repro.usecases import deploy_hybrid_access, install_wrr

_RESUME = dis.opmap["RESUME"]
BUDGETS = json.loads(Path(__file__).with_name("hop_budget.json").read_text())
MINOR = "{}.{}".format(*sys.version_info)
SRC = os.path.dirname(repro.__file__) + "/"


def layer(code) -> str:
    """``code``'s file under ``src/repro/``, ``<ebpf-jit>`` or ``other``."""
    name = code.co_filename
    if name.startswith(SRC):
        return name[len(SRC):]
    return name if name == "<ebpf-jit>" else "other"


def function(code) -> str:
    """``code``'s layer (for ``other``, its file's name) and qualified name."""
    where = layer(code)
    return f"{os.path.basename(code.co_filename) if where == 'other' else where}:{code.co_qualname}"


@contextmanager
def collector_off():
    """The cyclic collector drained, then off: a collection inside a count or a sample would run
    the finalizers of whatever garbage the process left earlier, and count them."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def count(fn, *args, by=layer, **kwargs) -> dict[str, list[int]]:
    """``[calls, bytecodes]`` per ``by(code)`` in one run of ``fn(*args, **kwargs)``: frames entered
    or resumed, and 3.11 ``settrace`` opcode or 3.12 ``sys.monitoring`` INSTRUCTION events.  Code
    objects are told apart by identity: one program translated for two nodes counts twice."""
    with collector_off():
        return _count(fn, args, kwargs, by)


def _count(fn, args: tuple, kwargs: dict, by) -> dict[str, list[int]]:
    """:func:`count`'s tally, with the collector already off."""
    tallies, codes = {}, {}  # codes: id(code) -> (code, its tally, opcode); holding the code keeps its id

    def enter(code, *_offset) -> tuple:
        entry = codes.get(id(code))
        if entry is None:
            tally = tallies.setdefault(by(code), [0, 0])

            def opcode(_frame, event, _arg):  # 3.11: this code's local trace function
                if event == "opcode":
                    tally[1] += 1
                return opcode

            entry = codes[id(code)] = (code, tally, opcode)
            if sys.version_info >= (3, 12):
                sys.monitoring.set_local_events(sys.monitoring.PROFILER_ID, code, sys.monitoring.events.INSTRUCTION)
        entry[1][0] += 1
        return entry

    if sys.version_info < (3, 12):
        def call(frame, _event, _arg):  # the global trace function sees only "call"
            frame.f_trace_opcodes, frame.f_trace_lines = True, False
            return enter(frame.f_code)[2]

        sys.settrace(call)
        try:
            fn(*args, **kwargs)
        finally:
            sys.settrace(None)
        return tallies
    monitoring, tool, events = sys.monitoring, sys.monitoring.PROFILER_ID, sys.monitoring.events

    def instruction(code, _offset):
        codes[id(code)][1][1] += 1

    monitoring.use_tool_id(tool, "hop budget")
    try:
        for event, callback in ((events.PY_START, enter), (events.PY_RESUME, enter), (events.INSTRUCTION, instruction)):
            monitoring.register_callback(tool, event, callback)
        monitoring.set_events(tool, events.PY_START | events.PY_RESUME)
        fn(*args, **kwargs)
    finally:
        monitoring.set_events(tool, 0)
        for code, *_ in codes.values():
            monitoring.set_local_events(tool, code, 0)
        monitoring.free_tool_id(tool)
    return tallies


def sample(fn, *args, by=layer, **kwargs) -> dict[str, list[int]]:
    """``[samples, 0]`` per ``by(code)`` in one run of ``fn(*args, **kwargs)``, one sample per
    millisecond of this process's CPU time (``ITIMER_PROF``).  CPython runs a signal handler where
    it next checks for one: after a call returns, at a backward jump or at a function's first
    instruction.  So a C call (``heappush``, ``sum``) counts in the frame that made it, and a sample
    taken at a function's first instruction counts in its caller, whose straight-line code ran up
    to the call."""
    tallies = {}

    def tick(_signum, frame):
        if frame.f_code.co_code[frame.f_lasti] == _RESUME and frame.f_back is not None:
            frame = frame.f_back
        tallies.setdefault(by(frame.f_code), [0, 0])[0] += 1

    with collector_off():
        previous = signal.signal(signal.SIGPROF, tick)
        signal.setitimer(signal.ITIMER_PROF, 0.001, 0.001)
        try:
            fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
    return tallies


def host_shares(path: str, samples: int, by=layer) -> tuple[int, dict[str, tuple[float, float]]]:
    """``path`` re-run until ``samples`` samples are taken, at most ``samples`` times (a one-packet
    path takes almost none): their count, and per key its share of them beside its share of the
    bytecodes, both in percent, the keys ranked by host share."""
    host: dict[str, int] = {}
    for _ in range(samples):
        for key, (n, _zero) in PATHS[path](partial(sample, by=by))[0].items():
            host[key] = host.get(key, 0) + n
        if sum(host.values()) >= samples:
            break
    _calls, bytecodes = per_packet(path, by)
    taken, counted = sum(host.values()), sum(bytecodes.values())
    keys = sorted(host.keys() | bytecodes.keys(), key=lambda key: (-host.get(key, 0), key))
    return taken, {key: (100 * host.get(key, 0) / max(taken, 1), 100 * bytecodes.get(key, 0) / counted) for key in keys}


def setup1_flood(count):
    """Each packet delivered in Setup 1 at the ledger's ``setup1_events`` shape,
    over the first millisecond after the template is built."""
    setup = build_setup1()
    net = setup.net
    net.attach("R", setup.FUNC_SEGMENT, EndBPF(end_prog()))
    flow = net.trafgen("S1", path=[setup.FUNC_SEGMENT, setup.S2_ADDR], rate_bps=400e6,
                       payload_size=64, burst=1, seed=1, src_port_spread=1000)
    meter = net.sink("S2")
    flow.start(at_ns=0)
    net.run(until_ns=NS_PER_MS // 5)  # first tick compiles the template
    before = meter.packets
    tallies = count(net.run, until_ns=NS_PER_MS)
    assert meter.packets - before > 300
    return tallies, meter.packets - before


def setup2_window(count):
    """Each packet delivered in 100 ms of the ledger's ``setup2_hybrid`` shape (WRR bond,
    TWD, two TCP + 10 Mb/s UDP) once the compensation converged and the flows run."""
    setup = build_setup2(seed=1)
    deploy_hybrid_access(setup, weights=(5, 3), compensation=True)
    net = setup.net
    connections = [net.tcp("S1", "S2", port=5000 + i) for i in range(2)]
    flow = net.trafgen("S1", dst=setup.S2_ADDR, rate_bps=10e6, payload_size=1000, seed=1)
    meter = net.sink("S2")
    start = 300 * NS_PER_MS
    net.run(until_ns=start)  # only TWD probes fly: the compensation converges
    for sender, _receiver in connections:
        sender.start()
    flow.start(at_ns=start)
    net.run(until_ns=start + 50 * NS_PER_MS)

    delivered = lambda: meter.packets + sum(r.stats.segments_received for _s, r in connections)  # noqa: E731
    before = delivered()
    tallies = count(net.run, until_ns=start + 150 * NS_PER_MS)
    assert delivered() - before > 300
    return tallies, delivered() - before


def wrr_decision():
    """A node with the WRR program on its LWT hook, one decision already made
    (the handler's guest address space is built): (node, hook, template, decide)."""
    node = Node("A")
    node.add_address("fc00:aa::1")
    handle = install_wrr(node, "fc00:2::/64", "fc00:bb::d0", "fc00:bb::d1", 5, 3)
    template = make_udp_packet("fc00:1::1", "fc00:2::2", 40000, 5201, bytes(1000))

    def decide() -> Packet:
        pkt = Packet(template.data)
        assert handle.lwt.run_hook("lwt_out", pkt, node).action == "forward"
        return pkt

    decide()
    return node, handle.lwt, template, decide


def wrr(count):
    """One WRR decision, which encapsulates the packet."""
    node, lwt, template, _decide = wrr_decision()
    pkt = Packet(template.data)
    tallies = count(lwt.run_hook, "lwt_out", pkt, node)
    assert len(pkt.data) == len(template.data) + 40 + 24  # outer header + one-segment SRH
    return tallies, 1


def end_dt6(count):
    """One End.DT6 on a WRR decision's encapsulation, after a warm-up packet."""
    node, _lwt, template, decide = wrr_decision()
    action = EndDT6(table_id=254)
    action.process(decide(), node)
    pkt = decide()
    tallies = count(action.process, pkt, node)
    assert pkt.data == template.data
    return tallies, 1


def scalar_end_bpf(make_program, grows: int, count):
    """One ``EndBPF.process`` of a 2-segment SRv6 packet, after a warm-up packet."""
    node, action = Node("R"), EndBPF(make_program())
    template = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 40000, 5201, bytes(64))
    action.process(Packet(template.data), node)  # builds the handler's guest address space
    pkt = Packet(template.data)
    tallies = count(action.process, pkt, node)
    assert pkt.dst == pton("fc00:2::2") and action.stats["ok"] == 2
    assert len(pkt.data) == 40 + 40 + 8 + 64 + grows  # IPv6, 2-segment SRH, UDP + payload, a TLV
    return tallies, 1


def fig2_batch(variant: str, count):
    """Each packet of a 256-packet ``make_fig2_router`` batch."""
    node, templates = make_fig2_router(variant)
    drive_batch(node, copy_batch(templates))  # builds the handler, fills the flow table
    pkts = copy_batch(templates)
    tallies = count(node.receive_batch, pkts, node.devices["eth0"])
    assert len(node.devices["eth1"].tx_buffer) == len(pkts)
    return tallies, len(pkts)


def tcp_endpoint(cls, name: str, me: str, peer: str, ports: tuple[int, int]):
    """A ``cls`` endpoint on a node whose ``send`` is a stub: (endpoint, node, sent packets)."""
    node, sent = Node(name), []

    def send(pkt: Packet) -> None:
        sent.append(pkt)

    node.send = send
    return cls(Scheduler(), node, me, peer, *ports), node, sent


def tcp_data_segment(count):
    """An in-order data segment through ``TcpReceiver._on_segment``, up to its ACK's send."""
    receiver, b, sent = tcp_endpoint(TcpReceiver, "B", "fc00::b", "fc00::a", (6000, 16000))
    data = [make_tcp_packet("fc00::a", "fc00::b", TcpHeader(16000, 6000, seq, 0, FLAG_ACK), bytes(1400))
            for seq in (0, 1400)]
    receiver._on_segment(data[0], b, 40)  # the first ACK builds the image
    tallies = count(receiver._on_segment, data[1], b, 40)
    assert receiver.rcv_nxt == 2800 and len(sent) == 2
    return tallies, 1


def tcp_new_ack(count):
    """A new ACK through ``TcpSender._on_segment``, up to the one new segment's send."""
    sender, a, sent = tcp_endpoint(TcpSender, "A", "fc00::a", "fc00::b", (16000, 6000))
    sender.start()  # the initial window: 10 segments
    sender.ssthresh = sender.cwnd  # congestion avoidance: each new ACK frees one segment
    acks = [make_tcp_packet("fc00::b", "fc00::a", TcpHeader(6000, 16000, n, n, FLAG_ACK)) for n in (1400, 2800)]
    sender._on_segment(acks[0], a, 40)  # takes the RTT sample
    tallies = count(sender._on_segment, acks[1], a, 40)
    assert sender.snd_una == 2800 and len(sent) == 12
    return tallies, 1


PATHS = {
    "setup1": setup1_flood,
    "setup2": setup2_window,
    "wrr_decision": wrr,
    "end_dt6": end_dt6,
    "scalar_end_bpf": partial(scalar_end_bpf, end_prog, 0),
    "scalar_tag_increment": partial(scalar_end_bpf, tag_increment_prog, 0),
    "scalar_add_tlv": partial(scalar_end_bpf, add_tlv_prog, 8),
    "tcp_data_segment": tcp_data_segment,
    "tcp_new_ack": tcp_new_ack,
    **{f"fig2_{variant}": partial(fig2_batch, variant) for variant in FIG2_VARIANTS},
}


def per_packet(path: str, by=layer) -> tuple[float, dict[str, float]]:
    """``path``'s calls and each key's bytecodes per packet, rounded up to the hundredth."""
    tallies, packets = PATHS[path](partial(count, by=by))
    ceil = lambda n: math.ceil(round(n * 100 / packets, 6)) / 100  # noqa: E731
    ranked = sorted(tallies.items(), key=lambda item: (-item[1][1], item[0]))
    return ceil(sum(calls for calls, _b in tallies.values())), {key: ceil(b) for key, (_c, b) in ranked}


@pytest.mark.parametrize("path", sorted(PATHS.keys() | BUDGETS.keys()))
def test_path_stays_within_its_budget(path):
    (calls, bytecodes), budget = per_packet(path), BUDGETS[path]
    over = [f"calls {calls} > {budget['calls']}"] if calls > budget["calls"] else []
    layers = budget.get(MINOR, {name: math.inf for name in bytecodes})  # a minor not in the table: calls only
    over += [f"{name} {n} bytecodes > {cap}" for name, n in bytecodes.items() if n > (cap := layers.get(name, 0))]
    assert not over, f"{path}, per packet on {MINOR}: " + "; ".join(over)


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description="Print each path's measured row of hop_budget.json for this minor.")
    parser.add_argument("paths", nargs="*", metavar="PATH", help=f"one of {', '.join(PATHS)} (default: all)")
    parser.add_argument("--by", choices=("layer", "function"), default="layer")
    parser.add_argument("--host", type=int, nargs="?", const=2000, metavar="SAMPLES",
                        help="print host-time shares from SAMPLES 1 ms SIGPROF samples (default 2000)")
    args = parser.parse_args(argv)
    for path in set(args.paths) - PATHS.keys():
        parser.error(f"unknown path {path}")
    by = {"layer": layer, "function": function}[args.by]
    if args.host:
        for path in args.paths or sorted(PATHS):
            taken, shares = host_shares(path, args.host, by)
            print(f"{path}: {taken} samples\n{'host %':>8} {'bytecode %':>11}  {args.by}")
            for key, (host, counted) in shares.items():
                print(f"{host:8.1f} {counted:11.1f}  {key}")
        return
    rows = {path: dict(zip(("calls", MINOR), per_packet(path, by))) for path in args.paths or sorted(PATHS)}
    print(json.dumps(rows, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])
