"""A batch's reused first route vs concurrent FIB updates — the guard.

Inside one batch a packet takes the previous packet's first route when
its destination bytes and the main table's generation are both
unchanged.  That route, and the route after the action, can go stale
*mid-batch*: an eBPF program (through a helper) or its continuation may
mutate the FIB, and the packets still queued behind it must then see
the new table — exactly as they would had each been resolved in a
batch of its own.

``Node._input_batch`` compares the main table's generation with the one
the held route was looked up at before every packet, and looks the
route up again when it moved.  Without that check the batch keeps
executing the replaced route's program (every mark stays 1) — the
hazard that reverted the first landing of End.BPF batching — and the
first test below fails: a helper-made route replacement must take
effect from the very next packet, as it does in the second test's
one-packet batches.  The route after the action is looked up per
packet, revalidated against the generation of the table it came from;
the last test replaces the next segment's route in the main table and
in a redirect table.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import FUNC_SEGMENT, SINK_PREFIX, copy_batch, make_router
from repro.ebpf import Program
from repro.ebpf.helpers import HELPERS_BY_ID, register_helper
from repro.net import MAIN_TABLE, EndBPF
from repro.sim.trafgen import batch_srv6_udp

SINK_ADDR = "fc00:2::2"
BATCH = 16

# Test-only helper: invokes a host-side callback installed by the test.
# Id 2000 lives outside every hook whitelist, so programs using it must
# load with ``allowed_helpers=None`` — it cannot leak into the datapath
# programs under test elsewhere.
_FLIP: dict = {}

if 2000 not in HELPERS_BY_ID:

    @register_helper(2000, "test_fib_flip", [("ctx",)])
    def _test_fib_flip(hctx, ctx_addr: int) -> int:
        callback = _FLIP.pop("fn", None)
        if callback is not None:
            callback(hctx.node)
        return 0


# Stamps mark=1, then gives the host a chance to mutate the FIB while
# the batch is mid-flight.
MARK1_AND_FLIP_ASM = """
    r2 = 1
    *(u32 *)(r1 + 8) = r2          ; ctx->mark = 1
    call test_fib_flip
    r0 = 0                         ; BPF_OK
    exit
"""

# The replacement route's program: stamps mark=2.
MARK2_ASM = """
    r2 = 2
    *(u32 *)(r1 + 8) = r2          ; ctx->mark = 2
    r0 = 0                         ; BPF_OK
    exit
"""


def _build():
    """Router with an End.BPF segment whose program can flip the FIB."""
    _FLIP.clear()
    node = make_router()
    prog_a = Program(MARK1_AND_FLIP_ASM, name="mark1_flip", allowed_helpers=None)
    prog_b = Program(MARK2_ASM, name="mark2", allowed_helpers=None)
    node.add_route(f"{FUNC_SEGMENT}/128", encap=EndBPF(prog_a))

    def flip(n):
        # Same-prefix add replaces the route and bumps the generation —
        # the mid-batch route update of the revert's hazard scenario.
        n.add_route(f"{FUNC_SEGMENT}/128", encap=EndBPF(prog_b))

    _FLIP["fn"] = flip
    return node


def _drive(node) -> list[int]:
    templates = batch_srv6_udp(
        "fc00:1::1", [FUNC_SEGMENT, SINK_ADDR], BATCH, payload_size=32
    )
    node.receive_batch(copy_batch(templates), node.devices["eth0"])
    out = node.devices["eth1"].tx_buffer
    assert len(out) == BATCH, "packets were dropped"
    return [p.mark for p in out]


def test_guard_on_whole_batch_matches_scalar():
    """A mid-batch route replacement takes effect from the next packet."""
    node = _build()
    marks = _drive(node)
    # Packet 1 ran the old program (mark 1) and flipped the route; every
    # later packet must already see the replacement (mark 2) — identical
    # to resolving each packet individually.
    assert marks == [1] + [2] * (BATCH - 1)


def test_guard_on_matches_batch_of_one():
    """Scalar reference: one-packet batches resolve every route fresh."""
    node = _build()
    templates = batch_srv6_udp(
        "fc00:1::1", [FUNC_SEGMENT, SINK_ADDR], BATCH, payload_size=32
    )
    dev = node.devices["eth0"]
    for pkt in copy_batch(templates):
        node.receive_batch([pkt], dev)
    marks = [p.mark for p in node.devices["eth1"].tx_buffer]
    assert marks == [1] + [2] * (BATCH - 1)


# --- a stale continuation ------------------------------------------------------
#
# A program may replace the route *after* the action — in the main table,
# or in the table it redirects into, which the batch's main-table check
# never sees — and the packets after it must follow the replacement, as
# one-packet batches do.  A cache of that route held across the batch
# that ignored the redirect table's generation fails the second case.

# The end_t shape into table 100, handing the host the FIB; BPF_REDIRECT.
FLIP_REDIRECT_ASM = """
    r6 = r1
    *(u32 *)(r10 - 4) = 100        ; u32 table id parameter
    r2 = 3                         ; SEG6_LOCAL_ACTION_END_T
    r3 = r10
    r3 += -4
    r4 = 4
    call lwt_seg6_action
    r1 = r6
    call test_fib_flip
    r0 = 7                         ; BPF_REDIRECT
    exit
"""

CONTINUATIONS = {
    # (program, table the continuation resolves in)
    "main_table": (MARK1_AND_FLIP_ASM, MAIN_TABLE),
    "redirect_table": (FLIP_REDIRECT_ASM, 100),
}


def _build_next_segment_flip(case: str, flip_at: int):
    """A router whose program, in its ``flip_at``-th run, moves the next
    segment's route (in the table the continuation resolves in) from eth1
    to eth0."""
    _FLIP.clear()
    asm, table_id = CONTINUATIONS[case]
    node = make_router()
    node.add_route(SINK_PREFIX, via=SINK_ADDR, dev="eth1", table_id=table_id)
    node.add_route(
        f"{FUNC_SEGMENT}/128",
        encap=EndBPF(Program(asm, name=f"flip_{case}", allowed_helpers=None)),
    )
    runs = 0

    def count_then_flip(n):
        nonlocal runs
        runs += 1
        if runs < flip_at:
            _FLIP["fn"] = count_then_flip  # the helper pops it per call
        else:
            n.add_route(SINK_PREFIX, via=SINK_ADDR, dev="eth0", table_id=table_id)

    _FLIP["fn"] = count_then_flip
    return node


def _source_ports(pkts) -> list[int]:
    return [p.l4()[1] for p in pkts]


@pytest.mark.parametrize("flip_at", [1, 2, 5])
@pytest.mark.parametrize("case", sorted(CONTINUATIONS))
def test_replaced_continuation_route_takes_effect_from_the_flipping_packet(case, flip_at):
    """Packets up to the flip leave on eth1; the flipping packet and every
    later one follow the replaced route out of eth0 — whole batch or not."""
    templates = batch_srv6_udp(
        "fc00:1::1", [FUNC_SEGMENT, SINK_ADDR], BATCH, payload_size=32
    )
    ports = _source_ports(templates)
    expected = (ports[: flip_at - 1], ports[flip_at - 1 :])
    for sizes in ([BATCH], [1] * BATCH):
        node = _build_next_segment_flip(case, flip_at)
        pkts = copy_batch(templates)
        offset = 0
        for size in sizes:
            node.receive_batch(pkts[offset : offset + size], node.devices["eth0"])
            offset += size
        devices = node.devices
        got = (_source_ports(devices["eth1"].tx_buffer), _source_ports(devices["eth0"].tx_buffer))
        assert got == expected, f"batches of {sizes[0]}"
