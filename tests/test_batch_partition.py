"""Batch-partition invariance: how a stream is split must not matter.

The datapath is batch-native — ``Node.receive`` is ``receive_batch`` of
one — so the old scalar-vs-burst differential loses its second subject.
What replaces it is a stronger property: for any packet stream, *every*
partition into batches (one at a time, pairs, odd chunks, the whole
stream, random splits) must forward the exact same bytes in the exact
same per-device order, with the same counters, device stats, action
stats, marks and side effects (perf events, map state).  These tests
drive the §3.2 endpoint functions and the §4.1/§4.2 use cases through
several partitions of the same stream and compare everything
observable.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.harness import FUNC_SEGMENT, copy_batch, make_fig2_router, make_router
from repro.ebpf import ArrayMap, PerfEventArrayMap, Program
from repro.net import (
    MAIN_TABLE,
    PROTO_IPV6,
    BpfLwt,
    End,
    EndB6,
    EndB6Encaps,
    EndBPF,
    EndDT6,
    EndDX6,
    EndX,
    FlowTable,
    Nexthop,
    Node,
    Packet,
    as_addr,
    make_srh,
    make_srv6_udp_packet,
    push_outer_encap,
)
from repro.progs import (
    dm_config_value,
    dm_encap_prog,
    end_dm_prog,
    end_prog,
    wrr_config_value,
    wrr_prog,
    wrr_state_counters,
)
from repro.sim.trafgen import batch_srv6_udp_flows, batch_udp

ROUTER_ADDR = "fc00:e::1"  # make_router's own address

FIG2_VARIANTS = (
    "baseline_ipv6",
    "end_static",
    "end_bpf",
    "end_t_static",
    "end_t_bpf",
    "tag_increment_bpf",
    "add_tlv_bpf",
    "add_tlv_bpf_nojit",
)


def partitions_of(count: int) -> list[list[int]]:
    """Batch-size sequences covering the interesting splits of ``count``.

    Fixed sizes 1 (the scalar case), 2, 7 (odd, straddles everything),
    the whole stream, plus two seeded random partitions.
    """
    sizes: list[list[int]] = []
    for fixed in (1, 2, 7, count):
        sizes.append([fixed] * (count // fixed) + ([count % fixed] if count % fixed else []))
    rng = random.Random(0xBA7C4)
    for _ in range(2):
        split: list[int] = []
        left = count
        while left > 0:
            take = min(left, rng.randint(1, max(2, count // 3)))
            split.append(take)
            left -= take
        sizes.append(split)
    return sizes


def drive_partition(node: Node, pkts: list[Packet], sizes: list[int]) -> list[Packet]:
    """Feed ``pkts`` to the node split into batches of the given sizes."""
    dev = node.devices["eth0"]
    offset = 0
    for size in sizes:
        node.receive_batch(pkts[offset : offset + size], dev)
        offset += size
    assert offset == len(pkts)
    return node.devices["eth1"].tx_buffer


def observe(node: Node, out: list[Packet]) -> dict:
    """Everything partition invariance promises to hold constant."""
    return {
        "bytes": [bytes(p.data) for p in out],
        "marks": [p.mark for p in out],
        # A packet keeps no list of the nodes it crossed: that path is the
        # tracer's stage:transmit spans
        # (test_misc_coverage.py::test_tracer_records_transit_nodes).
        "delivered_bytes": sum(len(p) for p in out),
        "counters": dict(vars(node.counters)),
        "dev_stats": {name: dict(vars(d.stats)) for name, d in node.devices.items()},
    }


def assert_partition_invariant(build, templates, extra_observe=None):
    """Drive every partition of ``templates`` through fresh ``build()`` nodes
    and assert the observations all match the batch-of-one reference."""
    reference = None
    for sizes in partitions_of(len(templates)):
        node = build()
        out = drive_partition(node, copy_batch(templates), sizes)
        seen = observe(node, out)
        if extra_observe is not None:
            seen["extra"] = extra_observe(node)
        if reference is None:
            reference = seen
        else:
            assert seen == reference, f"partition {sizes[:8]}... diverged"


@pytest.mark.parametrize("variant", FIG2_VARIANTS)
def test_fig2_variant_partition_invariance(variant):
    """Every §3.2 endpoint function forwards identically for any split."""
    _, templates = make_fig2_router(variant)

    def build():
        node, _ = make_fig2_router(variant)
        return node

    def action_stats(node):
        return [
            dict(route.encap.stats)
            for route in node.main_table().routes()
            if isinstance(route.encap, EndBPF)
        ]

    assert_partition_invariant(build, templates, extra_observe=action_stats)


def test_malformed_srh_partition_invariance():
    """Drop reasons and counters match for broken SRv6 input, however split."""

    def build():
        node = make_router()
        node.add_route("fc00:e::100/128", encap=EndBPF(end_prog()))
        return node

    batch = batch_srv6_udp_flows("fc00:1::1", "fc00:e::100", "fc00:2", 4, 32)
    # Corrupt a spread of packets: exhausted SRH, bad routing type, truncation.
    for pkt in batch[::5]:
        pkt.data[43] = 0  # segments_left = 0
    for pkt in batch[1::5]:
        pkt.data[42] = 9  # not an SRH routing type
    for pkt in batch[2::5]:
        del pkt.data[48:]  # truncate inside the segment list

    assert_partition_invariant(build, batch)


# --- every static seg6local action ---------------------------------------------

# Runs of one next segment alternating with runs of distinct ones; the
# fc00:3:: segments take the mixed stream's ECMP route.
NEXT_SEGMENTS = (
    ["fc00:2::2"] * 5
    + ["fc00:2::10", "fc00:2::11", "fc00:3::1", "fc00:2::12"]
    + ["fc00:3::7"] * 6
    + ["fc00:2::13", "fc00:3::2", "fc00:3::3", "fc00:3::4"]
    + ["fc00:2::2"] * 4
    + ["fc00:3::5", "fc00:2::14", "fc00:3::6"]
)


def srv6_stream(hop_limits=(64,)) -> list[Packet]:
    """Two-segment SRv6 packets to the function segment, one flow each."""
    return [
        make_srv6_udp_packet(
            "fc00:1::1",
            [FUNC_SEGMENT, segment],
            40000 + i,
            5201,
            bytes([i]) * 16,
            hop_limit=hop_limits[i % len(hop_limits)],
        )
        for i, segment in enumerate(NEXT_SEGMENTS)
    ]


def encapsulated_stream() -> list[Packet]:
    """Plain UDP to the sink inside an outer header whose one-segment SRH
    (segments_left 0) ends at the function segment — End.DT6 / End.DX6 input."""
    srh = make_srh([FUNC_SEGMENT], next_header=PROTO_IPV6)
    return [
        Packet(push_outer_encap(pkt.data, "fc00:1::1", srh))
        for pkt in batch_udp("fc00:1::1", "fc00:2::2", len(NEXT_SEGMENTS), payload_size=16)
    ]


STATIC_ACTIONS = {
    "end_x": (lambda: EndX(nh6="fc00:2::2"), srv6_stream),
    "end_dt6": (lambda: EndDT6(table_id=MAIN_TABLE), encapsulated_stream),
    "end_dx6": (lambda: EndDX6(nh6="fc00:2::2"), encapsulated_stream),
    "end_b6": (lambda: EndB6(segments=["fc00:2::b6"]), srv6_stream),
    "end_b6_encaps": (lambda: EndB6Encaps(segments=["fc00:2::b7"]), srv6_stream),
}


def function_action(node: Node):
    """The action installed on the function segment."""
    return node.main_table().lookup(as_addr(FUNC_SEGMENT)).encap


@pytest.mark.parametrize("kind", sorted(STATIC_ACTIONS))
def test_static_action_partition_invariance(kind):
    """End.X, End.DT6, End.DX6, End.B6 and End.B6.Encaps forward identically for any split."""
    make_action, make_stream = STATIC_ACTIONS[kind]

    def build():
        node = make_router()
        node.add_route(f"{FUNC_SEGMENT}/128", encap=make_action())
        return node

    templates = make_stream()
    assert_partition_invariant(
        build, templates, extra_observe=lambda node: function_action(node).processed
    )

    node = build()
    out = drive_partition(node, copy_batch(templates), [len(templates)])
    assert len(out) == len(templates) and node.counters.dropped == 0


def test_static_end_mixed_stream_partition_invariance():
    """One static End segment, one stream, every continuation shape at once.

    Hop limits 1 and 2 interleave (expiry sends Time Exceeded out of the
    observed device), one packet mid-run carries an exhausted SRH, and
    the next segments alternate runs of one segment with runs of distinct
    ones, some through a two-nexthop ECMP route split over eth1 / eth2.
    """

    def build():
        node = make_router()
        node.add_device("eth2")
        node.add_route("fc00:1::/64", via="fc00:2::2", dev="eth1")
        node.add_route(
            "fc00:3::/64",
            nexthops=[Nexthop(via="fc00:2::3", dev="eth1"), Nexthop(via="fc00:3::3", dev="eth2")],
        )
        node.add_route(f"{FUNC_SEGMENT}/128", encap=End())
        return node

    def side_effects(node):
        eth2 = [bytes(p.data) for p in node.devices["eth2"].tx_buffer]
        return eth2, function_action(node).processed

    templates = srv6_stream(hop_limits=(2, 2, 1))
    templates[7].data[43] = 0  # segments_left = 0, mid-run
    assert_partition_invariant(build, templates, extra_observe=side_effects)

    node = build()
    out = drive_partition(node, copy_batch(templates), [len(templates)])
    counters = node.counters
    assert counters.hop_limit_exceeded == 8 and counters.dropped == 1
    assert counters.forwarded == len(templates) - 9
    # Both ECMP legs carried traffic, and the errors share eth1 with it.
    assert node.devices["eth2"].tx_buffer
    assert any(p.dst[:4] == as_addr("fc00:3::")[:4] for p in out)
    assert sum(p.next_header == 58 for p in out) == 8


def test_two_segments_interleaved_count_each_action():
    """Runs to two End segments alternate within one batch: each action's
    ``processed`` counts its own packets whatever the split, though a batch
    adds a run's count once, when its first route changes."""
    second = "fc00:e::200"
    firsts = [FUNC_SEGMENT] * 3 + [second] * 2 + [FUNC_SEGMENT] + [second] * 4 + [FUNC_SEGMENT] * 2

    def build():
        node = make_router()
        node.add_route(f"{FUNC_SEGMENT}/128", encap=End())
        node.add_route(f"{second}/128", encap=End())
        return node

    def processed(node):
        table = node.main_table()
        return [table.lookup(as_addr(segment)).encap.processed for segment in (FUNC_SEGMENT, second)]

    templates = [
        make_srv6_udp_packet("fc00:1::1", [first, "fc00:2::2"], 40000 + i, 5201, bytes(8))
        for i, first in enumerate(firsts)
    ]
    assert_partition_invariant(build, templates, extra_observe=processed)

    node = build()
    drive_partition(node, copy_batch(templates), [len(templates)])
    assert processed(node) == [6, 6] and node.counters.seg6local_processed == 12


# --- §4.1 delay monitoring ----------------------------------------------------

DM_SEGMENT = "fc00:3::dd"


def make_dm_head():
    """Head-end router with the §4.1 transit sampler (rng-driven)."""
    node = make_router()
    config = ArrayMap(f"dmpart_cfg_{id(object())}", value_size=40, max_entries=1)
    config.update(b"\x00" * 4, dm_config_value(DM_SEGMENT, "fc00:c::1", 9000, 0, 3))
    node.add_route(DM_SEGMENT + "/128", via="fc00:2::2", dev="eth1")
    node.add_route(
        "fc00:2::/64", via="fc00:2::2", dev="eth1",
        encap=BpfLwt(prog_out=dm_encap_prog(config)),
    )
    return node


def test_delay_monitoring_head_partition_invariance():
    """The probabilistic sampler encapsulates the same packets for any split.

    Sampling draws from the node's seeded rng, so identically named
    nodes see the same random sequence; every partition must consume
    draws in exactly the same per-packet order.
    """
    templates = batch_udp("fc00:1::1", "fc00:2::2", 96, payload_size=64)
    assert_partition_invariant(make_dm_head, templates)

    # Some probes must actually have been created for this to test anything.
    node = make_dm_head()
    out = drive_partition(node, copy_batch(templates), [len(templates)])
    assert any(p.next_header == 43 for p in out)


def test_delay_monitoring_tail_partition_invariance():
    """End.DM pushes identical perf records and decapsulates identically."""
    # Harvest one real probe packet by sampling at ratio 1.
    probe_src = make_router()
    config = ArrayMap(f"dmpart_all_{id(object())}", value_size=40, max_entries=1)
    config.update(b"\x00" * 4, dm_config_value(DM_SEGMENT, "fc00:c::1", 9000, 0, 1))
    probe_src.add_route(DM_SEGMENT + "/128", via="fc00:2::2", dev="eth1")
    probe_src.add_route(
        "fc00:2::/64", via="fc00:2::2", dev="eth1",
        encap=BpfLwt(prog_out=dm_encap_prog(config)),
    )
    probe_src.receive(
        batch_udp("fc00:1::1", "fc00:2::2", 1, payload_size=64)[0],
        probe_src.devices["eth0"],
    )
    probe = probe_src.devices["eth1"].tx_buffer.pop()

    plain = batch_udp("fc00:1::1", "fc00:2::2", 64, payload_size=64)
    mix = [
        Packet(bytes(probe.data)) if i % 8 == 0 else Packet(bytes(pkt.data))
        for i, pkt in enumerate(plain)
    ]

    events_boxes = []

    def build():
        node = make_router()
        events = PerfEventArrayMap(f"dmpart_ev_{id(object())}", max_entries=1)
        node.add_route(DM_SEGMENT + "/128", encap=EndBPF(end_dm_prog(events)))
        events_boxes.append(events)
        return node

    def perf_records(node):
        return events_boxes[-1].ring(0).drain()

    assert_partition_invariant(build, mix, extra_observe=perf_records)

    # One record per probe in the mix (the extra_observe drained them, so
    # re-drive once to count).
    node = build()
    drive_partition(node, copy_batch(mix), [len(mix)])
    assert len(events_boxes[-1].ring(0).drain()) == 8


# --- §4.2 hybrid access (WRR scheduler on the LWT hook) -----------------------


def test_hybrid_wrr_partition_invariance():
    """The WRR encapsulator splits flows identically for any batch split."""
    states = []

    def build():
        node = make_router()
        config = ArrayMap(f"wrrpart_cfg_{id(object())}", value_size=40, max_entries=1)
        state = ArrayMap(f"wrrpart_st_{id(object())}", value_size=16, max_entries=1)
        config.update(b"\x00" * 4, wrr_config_value("fc00:b::d0", "fc00:b::d1", 5, 3))
        node.add_route("fc00:b::d0/128", via="fc00:2::2", dev="eth1")
        node.add_route("fc00:b::d1/128", via="fc00:2::2", dev="eth1")
        node.add_route("fc00:2::/64", encap=BpfLwt(prog_out=wrr_prog(config, state)))
        states.append(state)
        return node

    templates = batch_udp("fc00:1::1", "fc00:2::2", 96, payload_size=200)
    assert_partition_invariant(
        build, templates, extra_observe=lambda node: wrr_state_counters(states[-1])
    )

    # The 5:3 split must really have happened (both links saw traffic).
    c0, c1, p0, p1 = wrr_state_counters(states[-1])
    assert p0 > 0 and p1 > 0


def test_icmp_interleaves_in_arrival_order_within_batch():
    """Locally generated ICMP must not jump ahead of parked batch egress.

    A hop-limit-expired packet mid-batch makes the node emit Time
    Exceeded while earlier forwarded packets are still accumulated in
    the egress batch; the per-device wire order must match arrival
    order for every partition.
    """

    def build():
        node = make_router()
        # Route the error's destination (the packet source) out of the
        # same device as forwarded traffic, so ordering is observable.
        node.add_route("fc00:1::/64", via="fc00:2::2", dev="eth1")
        return node

    pkts = batch_udp("fc00:1::1", "fc00:2::2", 3, payload_size=64)
    pkts[1].data[7] = 1  # expires at this router

    assert_partition_invariant(build, pkts)

    node = build()
    out = drive_partition(node, copy_batch(pkts), [3])
    assert len(out) == 3  # pkt1, ICMP Time Exceeded, pkt3
    assert out[1].next_header == 58


# --- same-handler re-entry mid-batch ---------------------------------------------

# count += 1 in a map; mark = count — so the order of invocations is on the wire.
COUNT_TO_MARK_ASM = """
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
    *(u32 *)(r6 + 8) = r1
out:
    r0 = 0
    exit
"""


def test_same_handler_reentry_mid_group_partition_invariance():
    """A listener that ``send()``s through the SID its own packet arrived on.

    Every other packet of the stream ends at the router itself; its
    listener answers with a new packet through the same End.BPF segment
    while the rest of the run is still queued behind the same pinned
    handler.  The nested invocation must neither see nor leave anything
    of the batch's: forwarded bytes, marks, counters and map state match
    the packets fed one at a time.
    """
    boxes = []

    def build():
        node = make_router()
        hits = ArrayMap(f"reentry_hits_{id(object())}", value_size=8, max_entries=1)
        action = EndBPF(Program(COUNT_TO_MARK_ASM, maps={"hits": hits}, name="count_to_mark"))
        node.add_route("fc00:e::100/128", encap=action)

        def answer(pkt, n, _offset):
            n.send(
                make_srv6_udp_packet(
                    "fc00:e::1", ["fc00:e::100", "fc00:2::2"], 7, 5201, pkt.udp_payload()
                )
            )

        node.bind(answer, port=5201)
        boxes.append((action, hits))
        return node

    def side_effects(node):
        action, hits = boxes[-1]
        return dict(action.stats), action.program.stats.invocations, hits.lookup(b"\x00" * 4)

    templates = [
        make_srv6_udp_packet(
            "fc00:1::1",
            ["fc00:e::100", "fc00:e::1" if i % 2 else "fc00:2::2"],
            40000 + i,
            5201,
            bytes([i]) * 8,
        )
        for i in range(12)
    ]
    assert_partition_invariant(build, templates, extra_observe=side_effects)

    node = build()
    out = drive_partition(node, copy_batch(templates), [len(templates)])
    assert [p.mark for p in out] == [1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18]
    assert boxes[-1][0].stats["ok"] == 18 and node.counters.delivered_local == 6


def test_listener_route_replacement_mid_run_partition_invariance():
    """A run of packets to one local address whose first delivery moves it.

    The listener replaces the address's local route with a route out of
    eth1 on its first call, so the rest of the run must be forwarded,
    exactly as batches of one do.  A batch that took the first packet's
    route for the rest of a same-destination run without checking the
    table's generation would deliver all of them locally.
    """

    def build():
        node = make_router()

        def move_address(pkt, n, _offset):
            if n.counters.delivered_local == 1:
                n.add_route(f"{ROUTER_ADDR}/128", via="fc00:2::2", dev="eth1")

        node.bind(move_address, port=5201)
        return node

    templates = batch_udp("fc00:1::1", ROUTER_ADDR, 12, payload_size=32)
    assert_partition_invariant(build, templates)

    node = build()
    out = drive_partition(node, copy_batch(templates), [len(templates)])
    assert node.counters.delivered_local == 1
    assert len(out) == node.counters.forwarded == len(templates) - 1


# --- flow-table invalidation --------------------------------------------------


def test_flow_table_invalidation_on_route_change():
    """A route change between batches takes effect immediately (generation bump).

    A same-destination batch looks its route up once: the packets after
    the first take the first one's route.
    """
    node = make_router()
    flow_table = node.flow_table
    pkts = batch_udp("fc00:1::1", "fc00:2::2", 8, payload_size=64)
    node.receive_batch(copy_batch(pkts), node.devices["eth0"])
    assert len(node.devices["eth1"].tx_buffer) == 8
    assert (flow_table.hits, flow_table.misses) == (0, 1)
    node.receive_batch(copy_batch(pkts), node.devices["eth0"])
    assert (flow_table.hits, flow_table.misses) == (1, 1)

    # Shadow the sink route with a more-specific route out of eth0
    # instead; cached entries must not keep the stale resolution.
    node.add_route("fc00:2::2/128", via="fc00:1::1", dev="eth0")
    node.devices["eth1"].tx_buffer.clear()
    node.receive_batch(copy_batch(pkts), node.devices["eth0"])
    assert len(node.devices["eth1"].tx_buffer) == 0
    assert len(node.devices["eth0"].tx_buffer) == 8
    assert (flow_table.hits, flow_table.misses) == (1, 2)


def fifo_model(keys, capacity: int) -> tuple[int, int, list]:
    """Reference FIFO cache: (hits, misses, surviving keys oldest first)."""
    order: list = []
    hits = 0
    for key in keys:
        if key in order:
            hits += 1
        else:
            order.append(key)
            if len(order) > capacity:
                order.pop(0)
    return hits, len(keys) - hits, order


def assert_flow_table_consistent(flow_table) -> None:
    """The order queue and the dict hold the same keys in the same order."""
    assert list(flow_table.order) == list(flow_table.entries)
    assert len(flow_table) <= flow_table.capacity


def flow_dst(index: int) -> bytes:
    """A distinct destination inside make_router's fc00:2::/64 sink route."""
    return as_addr("fc00:2::")[:8] + index.to_bytes(8, "big")


def receive_one_at_a_time(node: Node, pkts: list[Packet]) -> None:
    """Batches of one: every packet looks up its local segment, then its next one."""
    dev = node.devices["eth0"]
    for pkt in pkts:
        node.receive_batch([pkt], dev)


def test_flow_table_fifo_eviction():
    """Bounded, oldest-insertion-first: the survivors are the newest keys."""
    node = make_router()
    node.flow_table.capacity = 16
    pkts = batch_srv6_udp_flows("fc00:1::1", "fc00:e::100", "fc00:2", 64, 64)
    looked_up = []
    for pkt in pkts:
        looked_up += [(MAIN_TABLE, pkt.dst), (MAIN_TABLE, pkt.srh()[0].segments[0])]

    node.add_route("fc00:e::100/128", encap=End())
    receive_one_at_a_time(node, copy_batch(pkts))
    assert len(node.devices["eth1"].tx_buffer) == 64
    flow_table = node.flow_table
    hits, misses, survivors = fifo_model(looked_up, 16)
    assert list(flow_table.entries) == survivors
    assert (flow_table.hits, flow_table.misses) == (hits, misses) == (60, 68)
    assert_flow_table_consistent(flow_table)

    # In one batch the packets after the first take its route to the
    # shared local segment: one lookup for it, then one per distinct
    # next segment.
    node = make_router()
    node.add_route("fc00:e::100/128", encap=End())
    node.receive_batch(pkts, node.devices["eth0"])
    assert len(node.devices["eth1"].tx_buffer) == 64
    assert node.flow_table.hits + node.flow_table.misses == 1 + 64


def test_flow_table_cyclic_stream_counts_match_fifo():
    """Three laps over 3x-capacity flows: every per-flow lookup misses."""
    node = make_router()
    node.flow_table.capacity = 16
    node.add_route("fc00:e::100/128", encap=End())
    looked_up = []
    for _ in range(3):
        pkts = batch_srv6_udp_flows("fc00:1::1", "fc00:e::100", "fc00:2", 48, 48)
        for pkt in pkts:
            looked_up += [(MAIN_TABLE, pkt.dst), (MAIN_TABLE, pkt.srh()[0].segments[0])]
        receive_one_at_a_time(node, pkts)
    flow_table = node.flow_table
    hits, misses, survivors = fifo_model(looked_up, 16)
    assert list(flow_table.entries) == survivors
    # The literals are what the pre-deque FIFO (dict-order eviction) counted.
    assert (flow_table.hits, flow_table.misses) == (hits, misses) == (135, 153)
    assert_flow_table_consistent(flow_table)


def test_flow_table_stale_generation_reresolves_in_place():
    """A route change re-resolves a cached key without moving or doubling it."""
    node = make_router()
    flow_table = node.flow_table
    flow_table.capacity = 4
    keys = [(MAIN_TABLE, flow_dst(i)) for i in range(4)]
    for key in keys:
        node._lookup_route(node.table(key[0]), key[1])
    node.add_route("fc00:3::/64", via="fc00:2::2", dev="eth1")  # generation bump
    node._lookup_route(node.main_table(), keys[1][1])
    assert list(flow_table.entries) == keys
    assert flow_table.entries[keys[1]][1] == node.main_table().generation
    assert (flow_table.hits, flow_table.misses) == (0, 5)
    assert_flow_table_consistent(flow_table)
    # The re-resolved key is still second-oldest: evicted second, not last.
    node._lookup_route(node.main_table(), flow_dst(4))
    node._lookup_route(node.main_table(), flow_dst(5))
    assert list(flow_table.entries) == keys[2:] + [
        (MAIN_TABLE, flow_dst(4)),
        (MAIN_TABLE, flow_dst(5)),
    ]
    assert_flow_table_consistent(flow_table)

    flow_table.clear()
    assert len(flow_table) == len(flow_table.order) == 0


def test_flow_table_shrinks_to_lowered_capacity():
    """Lowering capacity on a full table takes effect at the next insert."""
    node = make_router()
    flow_table = node.flow_table
    flow_table.capacity = 16
    for i in range(16):
        node._lookup_route(node.main_table(), flow_dst(i))
    flow_table.capacity = 4
    node._lookup_route(node.main_table(), flow_dst(16))
    assert list(flow_table.entries) == [(MAIN_TABLE, flow_dst(i)) for i in (13, 14, 15, 16)]
    assert_flow_table_consistent(flow_table)


def test_flow_table_churn_has_no_eviction_cliff():
    """Insert cost stays flat across one churn period at 2x capacity.

    Evicting by "first key of the dict" walks every slot deleted since
    the dict's last resize, so the last tenth of a period cost several
    times the first (>= 4x measured); O(1) eviction keeps them level.
    Interference only adds time, so each tenth takes its minimum over
    the repeats, and the bound is a coarse 2x.
    """
    import gc
    from time import perf_counter_ns

    capacity = FlowTable().capacity
    tenth = 5_530
    period = 10 * tenth  # about the inserts between two dict resizes at this capacity
    keys = [flow_dst(i) for i in range(capacity + period)]
    first = last = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            node = make_router()
            lookup, main = node._lookup_route, node.main_table()
            for dst in keys[:capacity]:
                lookup(main, dst)
            marks = []
            for start in range(capacity, capacity + period, tenth):
                begin = perf_counter_ns()
                for dst in keys[start : start + tenth]:
                    lookup(main, dst)
                marks.append(perf_counter_ns() - begin)
            first = min(first, marks[0])
            last = min(last, marks[9])
            assert node.flow_table.misses == capacity + period
            assert_flow_table_consistent(node.flow_table)
    finally:
        gc.enable()
    assert last <= 2 * first, f"last tenth {last / tenth:.0f} ns/insert vs first {first / tenth:.0f}"


# --- trafgen batch conservation ----------------------------------------------


def test_trafgen_batch_pacing_conserves_throughput():
    """Coarser batch pacing delivers the same load with far fewer events.

    Batch pacing is deliberately coarser (that is the optimisation), so
    this checks conservation — same packets sent, all delivered — not
    per-packet timing equality.
    """
    from repro.sim import Link, Scheduler, UdpFlow
    from repro.sim.scheduler import NS_PER_SEC

    def run(burst):
        scheduler = Scheduler()
        clock = lambda: scheduler.now_ns  # noqa: E731
        a, b = Node("A", clock_ns=clock), Node("B", clock_ns=clock)
        a.add_device("eth0")
        b.add_device("eth0")
        a.add_address("fc00:1::1")
        b.add_address("fc00:2::1")
        Link(scheduler, a.devices["eth0"], b.devices["eth0"], 1e9, 1000)
        a.add_route("fc00:2::/64", via="fc00:2::1", dev="eth0")
        got = []
        b.bind(lambda pkt, node, _offset: got.append(len(pkt)), proto=17, port=5201)
        flow = UdpFlow(
            scheduler, a, "fc00:1::1", "fc00:2::1", rate_bps=8e6,
            payload_size=952, burst=burst,
        )
        flow.start(duration_ns=NS_PER_SEC // 10)
        scheduler.run(until_ns=NS_PER_SEC // 5)
        return flow.stats.sent, got, scheduler.events_run

    sent_packet, got_packet, events_packet = run(burst=1)
    sent_batch, got_batch, events_batch = run(burst=16)
    assert sent_packet == 100
    # Batch pacing quantises the stop check to batch boundaries: the last
    # tick before the deadline emits a whole batch.
    assert abs(sent_batch - sent_packet) <= 16
    assert len(got_packet) == sent_packet  # nothing lost, per-packet pacing
    assert len(got_batch) == sent_batch  # nothing lost, batch pacing
    assert set(got_packet) == set(got_batch)  # same wire sizes
    assert events_batch < events_packet / 4  # the point of batch pacing
