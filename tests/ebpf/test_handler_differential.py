"""One attach site's re-armed invocation ≡ a fresh context, program by program.

``seg6local.run_attached`` re-arms one attach site's guest address space
by its handler's plan and reads back what the program changed; both skip
the work the verifier's :class:`~repro.ebpf.verifier.ProgramFacts` rule
out.  Over every accepted corpus program, the eight library
programs and one small program per helper the arming treats apart
(``PLAN_PROGRAMS``), one handler serves seeded packets that alternate
between two nodes with different clocks, rngs, routes and incoming
marks, and each invocation is compared with a fresh ``make_context`` run
of a twin program (same maps, restored to where the invocation found
them; same hook, node and packet) on: return code, final packet bytes,
``pkt.mark``, helper trace, printk log, map contents, the program's
``stats`` and the process-wide handler hit count.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.ebpf import Program
from repro.ebpf.errors import BpfError, VmFault
from repro.ebpf.jit import CompiledHandler, handler_cache_stats
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

# One small program per piece of helper state an invocation may have to
# rebind, each alone, each exposing what it read in its return code (or
# the mark): a stale clock, rng, packet or node shows as a mismatch.
PLAN_PROGRAMS = {
    "plan_mark_write": """
    r2 = 0x5eed
    *(u32 *)(r1 + 8) = r2
    r0 = 0
    exit
""",
    "plan_clock": """
    call ktime_get_ns
    exit
""",
    "plan_rng": """
    call get_prandom_u32
    exit
""",
    "plan_rx_timestamp": """
    call skb_rx_timestamp
    exit
""",
    "plan_node": """
    r2 = 0x90000fc ll              ; fc00:9::, the low 8 bytes zero
    *(u64 *)(r10 - 16) = r2
    r2 = 0
    *(u64 *)(r10 - 8) = r2
    r2 = r10
    r2 += -16
    r3 = r10
    r3 += -48
    r4 = 32
    call get_ecmp_nexthops
    r0 = *(u64 *)(r10 - 40)        ; the first nexthop's low 8 bytes
    exit
""",
}

PROGRAMS = (
    [(p.stem, p.read_text()) for p in ACCEPTED]
    + [(f"library_{p.stem}", p.read_text()) for p in LIBRARY]
    + [(name, ".hook seg6local\n" + text) for name, text in PLAN_PROGRAMS.items()]
)
PROGRAM_IDS = [name for name, _text in PROGRAMS]


# The library's configuration maps, so WRR and the sampler do their work.
CONFIGS = {
    "wrr_config": wrr_config_value("fc00:7::d0", "fc00:7::d1", 3, 2),
    "dm_config": dm_config_value(SEG, "fc00:c::1", 9000, 0, 2),
}


def _load(name: str, text: str, jit: bool, maps=None) -> Program:
    """The program ``name``; its twin passes the first one's ``maps``."""
    prog = Program(text, maps=maps, name=name, jit=jit)
    if maps is None:
        for map_name, value in CONFIGS.items():
            if map_name in prog.maps:
                prog.maps[map_name].update(bytes(4), value)
    return prog


def _attach_point(text: str) -> str:
    hook = re.search(r"^\s*\.hook\s+(\w+)", text, re.M)
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
    node.add_route("fc00:9::/64", via=f"fc00:9::{seed:x}", dev="eth1")  # plan_node's lookup
    return node


@pytest.mark.parametrize("jit", [True, False], ids=["jit", "interp"])
@pytest.mark.parametrize("name, text", PROGRAMS, ids=PROGRAM_IDS)
def test_rearmed_site_on_two_nodes_matches_fresh_contexts(name, text, jit):
    live = _load(name, text, jit)
    model = _load(name, text, jit, maps=dict(live.maps))
    hook = _attach_point(text)
    handler = CompiledHandler(live, hook)
    before_hits = handler_cache_stats()
    stats = {"ok": 0, "drop": 0, "redirect": 0, "errors": 0}

    now = {"A": 1_000, "B": 9_000_000}
    nodes = {n: _node(n, lambda n=n: now[n], seed) for n, seed in (("A", 11), ("B", 22))}
    model_rng = {"A": random.Random(11), "B": random.Random(22)}
    rng = random.Random(f"{name}/{jit}")
    for index in range(PACKETS):
        site = rng.choice("AB")
        node = nodes[site]
        raw = _packet(rng, index)
        mark = rng.choice([0, 1, rng.getrandbits(32), 2**32 - 1])
        stamp = rng.getrandbits(40)

        before = {n: _snapshot_map(m) for n, m in live.maps.items()}
        pkt = Packet(raw, mark=mark, rx_tstamp_ns=stamp)
        live_hctx = handler.hctx
        live_hctx.helper_trace = []  # arming leaves it be: only a test sets one
        disposition = run_attached(handler, stats, pkt, node)
        live_fault = disposition.reason.startswith("program fault")
        live_maps = {n: _dump_map(m) for n, m in live.maps.items()}
        for n, m in live.maps.items():
            _restore_map(m, before[n])

        hctx = model.make_context(raw, clock_ns=node.clock_ns, rng=model_rng[site], mark=mark)
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
        now[site] += 1_000 + index

    assert (live.stats.invocations, live.stats.last_return) == (
        model.stats.invocations,
        model.stats.last_return,
    )
    after_hits = handler_cache_stats()
    assert {k: after_hits[k] - before_hits[k] for k in after_hits} == {
        "handler_hits": PACKETS,  # one per invocation
        "handler_misses": 0,  # the address space was built with the handler
    }
