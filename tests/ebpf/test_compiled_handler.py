"""CompiledHandler reuse must be observably identical to fresh contexts.

The datapath re-arms one guest address space per attach site, by a plan
read off the program's facts.  These tests pin down the reset contract:
map-value regions from the previous invocation are unmapped,
per-invocation state (trace log, metadata, cb, stack, clock, rng,
packet, node) is rebound or cleared whichever node or group the previous
packet belonged to, a program gets exactly the resets its facts call
for, and persistent map state keeps evolving exactly as it would across
fresh ``make_context`` calls.
"""

import random

import pytest

from repro.ebpf import ArrayMap, HashMap, Program
from repro.ebpf.context import CB_SLOTS, OFF_CB
from repro.ebpf.errors import HelperError
from repro.ebpf.helpers import HELPERS_BY_ID, register_helper
from repro.ebpf.jit import CompiledHandler
from repro.net import BpfLwt, EndBPF, Node, Packet, make_srv6_udp_packet
from repro.net.seg6local import run_attached
from repro.progs.library import ASM_DIR

PACKET = bytes([0x60]) + bytes(39)

COUNTER_ASM = """
    r6 = r1
    r1 = 0
    *(u32 *)(r10 - 4) = r1
    r1 = hits ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r1 = *(u64 *)(r0 + 0)
    r1 += 1
    *(u64 *)(r0 + 0) = r1
out:
    r0 = 0
    exit
"""

MARK_KEYED_ASM = """
    r6 = r1
    r2 = *(u32 *)(r6 + 8)
    *(u32 *)(r10 - 4) = r2
    r1 = m ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r1 = *(u64 *)(r0 + 0)
    r1 += 1
    *(u64 *)(r0 + 0) = r1
out:
    r0 = 0
    exit
"""


def key(n: int) -> bytes:
    return n.to_bytes(4, "little")


def _invoke(handler: CompiledHandler, pkt: Packet, node: Node | None = None) -> int:
    """One datapath invocation of ``handler``'s program; its return code."""
    run_attached(handler, {"ok": 0, "drop": 0, "redirect": 0, "errors": 0}, pkt, node or Node("N"))
    return handler.program.stats.last_return


def test_reused_context_matches_fresh_contexts():
    """N runs through one handler == N runs through fresh contexts."""
    counter_a = ArrayMap("ch_hits_b", value_size=8, max_entries=1)
    counter_b = ArrayMap("ch_hits_c", value_size=8, max_entries=1)
    prog_handler = Program(COUNTER_ASM, maps={"hits": counter_a})
    prog_fresh = Program(COUNTER_ASM, maps={"hits": counter_b})
    handler = CompiledHandler(prog_handler, "test")

    for _ in range(5):
        assert _invoke(handler, Packet(PACKET)) == 0
        ret, _ = prog_fresh.run_on_packet(PACKET)
        assert ret == 0

    assert counter_a.lookup(key(0)) == counter_b.lookup(key(0))
    assert int.from_bytes(counter_a.lookup(key(0)), "little") == 5


def test_no_stale_map_value_regions_after_slot_reuse():
    """Deleting a key and reusing its slot must not leave a stale mapping.

    A fresh context maps the *current* storage of a looked-up entry; the
    re-armed context must do the same even when the previous invocation
    mapped different storage at the same guest address.
    """
    m = HashMap("ch_hash", key_size=4, value_size=8, max_entries=2)
    prog = Program(MARK_KEYED_ASM, maps={"m": m})
    handler = CompiledHandler(prog, "test")

    m.update(key(1), (0).to_bytes(8, "little"))
    _invoke(handler, Packet(PACKET, mark=1))
    assert int.from_bytes(m.lookup(key(1)), "little") == 1

    # Free slot 0 and hand it to a new key with brand-new storage.
    m.delete(key(1))
    m.update(key(2), (10).to_bytes(8, "little"))

    _invoke(handler, Packet(PACKET, mark=2))
    assert int.from_bytes(m.lookup(key(2)), "little") == 11


def test_per_invocation_state_is_reset():
    """cb slots and the frame are fresh per invocation: the program finds
    cb[0] zero though the previous packet left 7 there (the trace log,
    metadata and a helper's view: the fault test below)."""
    prog = Program(
        """
        r6 = r1
        r7 = *(u64 *)(r6 + 0x20)   ; cb[0] as found
        r1 = 7
        *(u64 *)(r6 + 0x20) = r1   ; cb[0] = 7
        *(u64 *)(r10 - 8) = r1     ; dirty the stack
        r0 = r7
        exit
        """
    )
    handler = CompiledHandler(prog, "test")
    hctx = handler.hctx
    for _ in range(3):
        assert _invoke(handler, Packet(PACKET)) == 0
        assert handler.hctx is hctx  # same reused context object...
        cb0 = hctx.skb.ctx_region.data[OFF_CB : OFF_CB + 8]
        assert cb0 == (7).to_bytes(8, "little")  # ...the program's write landed...
        assert hctx.skb.stack_region.data[-8] == 7  # ...and was wiped before the next


def test_rearm_rebinds_packet_and_mark():
    prog = Program(
        """
        r0 = *(u32 *)(r1 + 0)      ; skb->len
        exit
        """
    )
    handler = CompiledHandler(prog, "test")
    assert _invoke(handler, Packet(PACKET)) == len(PACKET)

    bigger = Packet(PACKET + bytes(24), mark=9)
    assert _invoke(handler, bigger) == len(bigger.data)
    assert handler.hctx.skb.mark == 9
    assert handler.hctx.skb.packet_region.data is bigger.data


def test_the_plan_follows_the_facts():
    """What an invocation resets is read off the verifier's facts once: a
    program with trivial facts gets the packet bind alone, a helper caller
    the restores and rebinds its helpers need."""
    plans = {}
    for name in ("end", "tag_increment", "add_tlv", "end_dm", "dm_encap", "wrr"):
        handler = CompiledHandler(Program((ASM_DIR / f"{name}.s").read_text(), name=name), "test")
        plans[name] = tuple(
            name
            for name in (
                "resets", "rearms_ctx", "zeroes_stack", "calls_helpers",
                "restores_regions", "binds_clock", "binds_rng", "reads_back",
            )
            if getattr(handler, name)
        )
    helper_caller = ("resets", "rearms_ctx", "zeroes_stack", "calls_helpers")
    assert plans == {
        "end": (),
        "tag_increment": helper_caller + ("reads_back",),
        "add_tlv": helper_caller + ("reads_back",),
        "end_dm": helper_caller + ("binds_clock", "reads_back"),
        "dm_encap": helper_caller + ("restores_regions", "binds_clock", "binds_rng", "reads_back"),
        "wrr": helper_caller + ("restores_regions", "reads_back"),
    }


# --- one attach site, several nodes: re-armed ≡ fresh under interleaving -------

# mark += now + draw; seen = (count, order-sensitive digest of now + draw).
STAMP_ASM = """
    r6 = r1
    call ktime_get_ns
    r7 = r0
    call get_prandom_u32
    r8 = r0
    r1 = 0
    *(u32 *)(r10 - 4) = r1
    r1 = seen ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r1 = *(u64 *)(r0 + 0)
    r1 += 1
    *(u64 *)(r0 + 0) = r1
    r1 = *(u64 *)(r0 + 8)
    r1 *= 31
    r1 += r7
    r1 += r8
    *(u64 *)(r0 + 8) = r1
out:
    r1 = *(u32 *)(r6 + 8)
    r1 += r7
    r1 += r8
    *(u32 *)(r6 + 8) = r1
    r0 = 0
    exit
"""

SID = "fc00:e::100"
SINK = "fc00:2::2"


def _stamp_prog(tag: str) -> tuple[Program, ArrayMap]:
    seen = ArrayMap(f"ch_seen_{tag}", value_size=16, max_entries=1)
    return Program(STAMP_ASM, maps={"seen": seen}, name=f"stamp_{tag}"), seen


def test_one_site_on_two_nodes_interleaved_matches_fresh_contexts():
    """One ``EndBPF`` and one ``BpfLwt`` shared by two nodes, batches interleaved.

    Clock and rng belong to the node a packet is on, not to whichever
    node armed the handler last: marks, map contents and invocation
    counts equal a per-packet ``run_on_packet`` model fed the same clocks
    and ``random.Random`` streams, and assigning ``node.rng`` /
    ``node.clock``'s function takes effect on the very next packet.
    """
    end_live, end_seen = _stamp_prog("end_live")
    lwt_live, lwt_seen = _stamp_prog("lwt_live")
    end_model, end_model_seen = _stamp_prog("end_model")
    lwt_model, lwt_model_seen = _stamp_prog("lwt_model")
    action, lwt = EndBPF(end_live), BpfLwt(prog_out=lwt_live)

    now = {"A": 1_000, "B": 9_000_000}
    clock_of = {name: (lambda name=name: now[name]) for name in now}
    rng_of = {"A": random.Random(11), "B": random.Random(22)}  # the model's streams
    nodes = {}
    for name, seed in (("A", 11), ("B", 22)):
        node = nodes[name] = Node(name, clock_ns=clock_of[name], seed=seed)
        node.add_device("eth0")
        node.add_device("eth1")
        node.add_route(f"{SID}/128", encap=action)
        node.add_route("fc00:2::/64", via=SINK, dev="eth1", encap=lwt)

    raw = bytes(make_srv6_udp_packet("fc00:1::1", [SID, SINK], 40000, 5201, bytes(16)).data)
    expected = {"A": [], "B": []}
    script = [("A", 1), ("B", 3), ("A", 4), ("B", 1), ("B", 1), ("A", 2), ("B", 2), ("A", 3), ("B", 4)]
    for step, (name, size) in enumerate(script):
        node = nodes[name]
        node.receive_batch([Packet(raw) for _ in range(size)], node.devices["eth0"])
        for _ in range(size):
            _, hctx = end_model.run_on_packet(raw, clock_ns=clock_of[name], rng=rng_of[name])
            _, hctx = lwt_model.run_on_packet(
                raw, clock_ns=clock_of[name], rng=rng_of[name], mark=hctx.skb.mark
            )
            expected[name].append(hctx.skb.mark)
        now[name] += 1_000 * (step + 1)
        if step == 3:
            # Between two one-packet batches on B: a new stream, a new clock object.
            nodes["B"].rng, rng_of["B"] = random.Random(5), random.Random(5)
            nodes["B"].clock.fn = clock_of["B"] = lambda: now["B"] + 77

    total = sum(size for _name, size in script)
    for name, node in nodes.items():
        assert [p.mark for p in node.devices["eth1"].tx_buffer] == expected[name], name
    assert end_seen.lookup(key(0)) == end_model_seen.lookup(key(0))
    assert lwt_seen.lookup(key(0)) == lwt_model_seen.lookup(key(0))
    assert end_live.stats.invocations == lwt_live.stats.invocations == total
    assert action.stats["ok"] == lwt.stats["ok"] == total
    assert lwt.hook_runs == {"lwt_out": total}


# --- a fault in packet k leaves packet k+1 a clean context ----------------------

_SNAPSHOTS: list[tuple] = []

if 2001 not in HELPERS_BY_ID:

    @register_helper(2001, "test_ctx_probe", [("ctx",), ("scalar",)])
    def _test_ctx_probe(hctx, ctx_addr: int, phase: int) -> int:
        """Phase 0 records what the context holds on entry; phase 1 dirties the
        helper-side state and faults on a packet whose last byte is set."""
        skb = hctx.skb
        if phase == 0:
            cb = skb.ctx_region.data[OFF_CB:]
            _SNAPSHOTS.append((dict(hctx.metadata), list(hctx.trace_log), cb, bytes(skb.stack_region.data)))
            return 0
        hctx.metadata["left_over"] = True
        hctx.trace_log.append("stale line")
        if hctx.packet.data[-1]:
            raise HelperError("test fault")
        return 0


PROBE_ASM = """
    r6 = r1
    r2 = 0
    call test_ctx_probe            ; snapshot what the previous packet left behind
    r1 = 7
    *(u64 *)(r6 + 0x20) = r1       ; cb[0] = 7
    *(u64 *)(r10 - 8) = r1         ; dirty the stack
    r1 = r6
    r2 = 1
    call test_ctx_probe            ; dirty metadata + trace log; faults on a marked packet
    r0 = 0
    exit
"""


@pytest.mark.parametrize("sizes", [[4], [1, 1, 1, 1]], ids=["group", "one-at-a-time"])
def test_fault_in_one_packet_leaves_the_next_a_clean_context(sizes):
    _SNAPSHOTS.clear()
    action = EndBPF(Program(PROBE_ASM, name="probe", allowed_helpers=None))
    node = Node("R")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_route(f"{SID}/128", encap=action)
    node.add_route("fc00:2::/64", via=SINK, dev="eth1")
    pkts = [
        make_srv6_udp_packet("fc00:1::1", [SID, SINK], 40000, 5201, bytes(15) + bytes([i == 1]))
        for i in range(4)
    ]
    offset = 0
    for size in sizes:
        node.receive_batch(pkts[offset : offset + size], node.devices["eth0"])
        offset += size

    clean = ({}, [], bytes(8 * CB_SLOTS), bytes(512))  # cb[] and the stack zeroed
    assert _SNAPSHOTS == [clean] * 4  # packet 1 faulted with all four dirtied
    assert node.devices["eth1"].tx_buffer == [pkts[0], pkts[2], pkts[3]]
    assert action.stats == {"ok": 3, "drop": 0, "redirect": 0, "errors": 1}
    assert action.program.stats.invocations == 3
    assert (node.counters.dropped, node.counters.bpf_dropped) == (1, 1)
    assert node.log_messages == ["End.BPF program fault: test fault"]
