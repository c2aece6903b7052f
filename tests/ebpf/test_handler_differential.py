"""One attach site's re-armed invocation ≡ a fresh context, program by program.

``CompiledHandler.arm`` re-arms one guest address space per attach site
and ``seg6local.run_attached`` reads back what the program changed; both
skip the work the verifier's :class:`~repro.ebpf.verifier.ProgramFacts`
rule out.  Over every accepted corpus program and the eight library
programs, one handler serves seeded packets that alternate between two
nodes with different clocks, rngs and incoming marks, and each
invocation is compared with a fresh ``make_context`` run of a twin
program (same maps, restored to where the invocation found them; same
hook, node and packet) on: return code, final packet bytes,
``pkt.mark``, helper trace, printk log, map contents and the program's
``stats``.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.ebpf import Program
from repro.ebpf.errors import BpfError, VmFault
from repro.ebpf.jit import CompiledHandler
from repro.net import (
    Node,
    Packet,
    make_controller_tlv,
    make_srh,
    make_srv6_udp_packet,
    make_udp_packet,
    push_outer_encap,
)
from repro.net.seg6local import run_attached
from repro.progs import dm_config_value, wrr_config_value
from test_corpus import ACCEPTED, LIBRARY, _dump_map, _make_packet, _restore_map, _snapshot_map

SEG = "fc00:e::100"
SINK = "fc00:2::2"
PACKETS = 32

PROGRAMS = ACCEPTED + LIBRARY
PROGRAM_IDS = [p.stem for p in ACCEPTED] + [f"library_{p.stem}" for p in LIBRARY]


# The library's configuration maps, so WRR and the sampler do their work.
CONFIGS = {
    "wrr_config": wrr_config_value("fc00:7::d0", "fc00:7::d1", 3, 2),
    "dm_config": dm_config_value(SEG, "fc00:c::1", 9000, 0, 2),
}


def _load(path, jit: bool, maps=None) -> Program:
    """The program at ``path``; its twin passes the first one's ``maps``."""
    prog = Program(path.read_text(), maps=maps, name=path.stem, jit=jit)
    if maps is None:
        for name, value in CONFIGS.items():
            if name in prog.maps:
                prog.maps[name].update(bytes(4), value)
    return prog


def _attach_point(path) -> str:
    hook = re.search(r"^\s*\.hook\s+(\w+)", path.read_text(), re.M)
    return "lwt_out" if hook and hook.group(1) == "lwt" else "seg6local"


def _packet(rng: random.Random, index: int) -> bytes:
    """Wire noise, an SRv6 UDP packet, a plain UDP packet, an encapsulated one with a TLV."""
    payload = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 48)))
    kind = index % 4
    if kind == 0:
        return _make_packet(rng)
    if kind == 1:
        return bytes(make_srv6_udp_packet("fc00:1::1", [SEG, SINK], 4000 + index, 5201, payload).data)
    plain = bytes(make_udp_packet("fc00:1::1", SINK, 4000 + index, 5201, payload).data)
    if kind == 2:
        return plain
    srh = make_srh([SEG, SINK], next_header=41, tlvs=[make_controller_tlv("fc00:1::1", 8892)])
    return push_outer_encap(plain, bytes(16), srh)


def _node(name: str, clock_ns, seed: int) -> Node:
    node = Node(name, clock_ns=clock_ns, seed=seed)
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address(f"fc00:{name.lower()}::1")
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1")
    node.add_route("fc00:7::/64", via="fc00:7::1", dev="eth0")
    return node


def _traced_handler(program: Program, hook: str):
    """The attach site's handler, with a fresh helper trace installed after every arm."""
    handler = CompiledHandler(program, hook)
    arm = handler.arm

    def traced_arm(*args):
        hctx = arm(*args)
        hctx.helper_trace = []
        return hctx

    handler.arm = traced_arm
    return handler


@pytest.mark.parametrize("jit", [True, False], ids=["jit", "interp"])
@pytest.mark.parametrize("path", PROGRAMS, ids=PROGRAM_IDS)
def test_rearmed_site_on_two_nodes_matches_fresh_contexts(path, jit):
    live = _load(path, jit)
    model = _load(path, jit, maps=dict(live.maps))
    hook = _attach_point(path)
    handler = _traced_handler(live, hook)
    stats = {"ok": 0, "drop": 0, "redirect": 0, "errors": 0}

    now = {"A": 1_000, "B": 9_000_000}
    nodes = {name: _node(name, lambda name=name: now[name], seed) for name, seed in (("A", 11), ("B", 22))}
    model_rng = {"A": random.Random(11), "B": random.Random(22)}
    rng = random.Random(f"{path.stem}/{jit}")
    for index in range(PACKETS):
        name = rng.choice("AB")
        node = nodes[name]
        raw = _packet(rng, index)
        mark = rng.choice([0, 1, rng.getrandbits(32), 2**32 - 1])
        stamp = rng.getrandbits(40)

        before = {n: _snapshot_map(m) for n, m in live.maps.items()}
        pkt = Packet(raw, mark=mark, rx_tstamp_ns=stamp)
        disposition = run_attached(handler, stats, pkt, node)
        live_fault = disposition.reason.startswith("program fault")
        live_hctx = handler._hctx
        live_maps = {n: _dump_map(m) for n, m in live.maps.items()}
        for n, m in live.maps.items():
            _restore_map(m, before[n])

        hctx = model.make_context(raw, clock_ns=node.clock_ns, rng=model_rng[name], mark=mark)
        hctx.hook, hctx.node = hook, node
        hctx.packet = Packet(raw, mark=mark, rx_tstamp_ns=stamp)
        hctx.helper_trace = []
        try:
            ret = model.run(hctx)
        except (VmFault, BpfError):
            ret = None
        assert live_fault == (ret is None), index
        if ret is not None:
            assert live.stats.last_return == ret, index
            assert pkt.mark == hctx.skb.mark, index
        else:
            assert pkt.mark == mark, index  # a faulting run writes nothing back
        assert pkt.data == hctx.skb.packet_region.data, index
        assert live_hctx.helper_trace == hctx.helper_trace, index
        assert live_hctx.trace_log == hctx.trace_log, index
        assert live_maps == {n: _dump_map(m) for n, m in model.maps.items()}, index
        now[name] += 1_000 + index

    assert (live.stats.invocations, live.stats.last_return) == (
        model.stats.invocations,
        model.stats.last_return,
    )
