"""Stamped generator packets against the checked builders.

``UdpFlow`` builds its wire image once and stamps the source port and
the UDP checksum per packet; ``make_udp_packet`` / ``make_srv6_udp_packet``
stay the reference every emitted byte is compared with.
"""

from __future__ import annotations

import itertools
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import make_srv6_udp_packet, make_udp_packet
from repro.net.addr import as_addr
from repro.net.checksum import verify_l4
from repro.net.ipv6 import PROTO_UDP
from repro.sim import Scheduler, Srv6UdpFlood, UdpFlow

SRC, DST = "fc00::a", "fc00::b"
PATH = ["fc00::51", "fc00::b"]

# First 16 source ports of UdpFlow(seed=3, src_port=40000,
# src_port_spread=1000), recorded from the build-every-packet generator.
PINNED_PORTS = [
    40243, 40606, 40557, 40133, 40378, 40937, 40618, 40485,
    40640, 40594, 40067, 40620, 40013, 40930, 40857, 40480,
]  # fmt: skip


class Tap:
    """Stands in for the source node: keeps what the flow sends."""

    name = "A"

    def __init__(self):
        self.pkts = []

    def send_batch(self, pkts):
        self.pkts.extend(pkts)


class Sweep:
    """An ``rng`` whose draws walk 0, 1, 2, ... instead of sampling."""

    def __init__(self):
        self._next = itertools.count()

    def randrange(self, _n):
        return next(self._next)


def emit(cls, target, ticks, src=SRC, **kwargs):
    sched, tap = Scheduler(), Tap()
    flow = cls(sched, tap, src, target, rate_bps=1e6, **kwargs)
    flow.start()
    sched.run(max_events=ticks)
    return tap.pkts


def reference(target, port, payload_size, flow_label=0, src=SRC, dst_port=5201):
    payload = bytes(payload_size)
    if isinstance(target, list):
        return make_srv6_udp_packet(
            src, target, port, dst_port, payload, flow_label=flow_label
        )
    return make_udp_packet(src, target, port, dst_port, payload, flow_label=flow_label)


def l4_valid(pkt, final_dst) -> bool:
    proto, offset = pkt._l4_offset()
    assert proto == PROTO_UDP
    return verify_l4(pkt.src, as_addr(final_dst), PROTO_UDP, bytes(pkt.data[offset:]))


addrs = st.binary(min_size=16, max_size=16)


@settings(max_examples=60, deadline=None)
@given(
    src=addrs,
    path=st.lists(addrs, min_size=1, max_size=4),
    srv6=st.booleans(),
    payload_size=st.integers(1, 1400),
    flow_label=st.integers(0, 0xFFFFF),
    ports=st.integers(0, 0xFFFF).flatmap(
        lambda base: st.tuples(st.just(base), st.integers(1, 0x10000 - base))
    ),
    dst_port=st.integers(0, 0xFFFF),
    seed=st.integers(0, 2**32),
    burst=st.integers(1, 4),
)
def test_stamped_packets_equal_the_builders(
    src, path, srv6, payload_size, flow_label, ports, dst_port, seed, burst
):
    base, spread = ports
    cls, target = (Srv6UdpFlood, path) if srv6 else (UdpFlow, path[-1])
    rng = random.Random(seed)
    pkts = emit(
        cls, target, 3, src, payload_size=payload_size, src_port=base,
        dst_port=dst_port, flow_label=flow_label, rng=rng,
        src_port_spread=spread, burst=burst,
    )  # fmt: skip
    assert len(pkts) == 3 * burst
    draws = random.Random(seed)
    for pkt in pkts:
        port = base + (draws.randrange(spread) if spread > 1 else 0)
        want = reference(target, port, payload_size, flow_label, src, dst_port)
        assert pkt.data == want.data
        assert l4_valid(pkt, path[-1])
    # One draw per packet iff the port varies — never one more or less.
    assert rng.getstate() == draws.getstate()


@pytest.mark.parametrize(
    "cls, target", [(UdpFlow, DST), (Srv6UdpFlood, PATH)], ids=["plain", "srv6"]
)
def test_every_source_port_stamps_to_the_builders_bytes(cls, target):
    # 65 bytes: an odd payload, so the checksum's last word is padded.
    pkts = emit(
        cls, target, ticks=256, payload_size=65, src_port=0,
        src_port_spread=0x10000, burst=256, rng=Sweep(),
    )  # fmt: skip
    assert len(pkts) == 0x10000
    zero_folds = 0
    for port, pkt in enumerate(pkts):
        assert pkt.data == reference(target, port, 65).data, port
        zero_folds += pkt.data[-67:-65] == b"\xff\xff"  # checksum field
    # The sweep crosses the sum that folds to zero, sent as 0xFFFF.
    assert zero_folds >= 1


def test_seeded_port_draws_are_pinned():
    for cls, target in ((UdpFlow, DST), (Srv6UdpFlood, PATH)):
        pkts = emit(
            cls, target, ticks=16, payload_size=64, seed=3, src_port_spread=1000
        )
        assert [pkt.l4()[1] for pkt in pkts] == PINNED_PORTS


def test_port_above_65535_still_raises():
    # The sweep draws 0 then 1: port 65535 is stamped, 65536 is refused.
    pkts = emit(UdpFlow, DST, 1, src_port=0xFFFF, src_port_spread=2, rng=Sweep())
    assert pkts[0].l4()[1] == 0xFFFF
    with pytest.raises(struct.error):
        emit(UdpFlow, DST, 2, src_port=0xFFFF, src_port_spread=2, rng=Sweep())
    with pytest.raises(struct.error):
        emit(Srv6UdpFlood, PATH, 1, src_port=70000)


def test_template_is_built_on_the_first_tick_not_before():
    sched, tap = Scheduler(), Tap()
    flow = UdpFlow(sched, tap, "not-an-address", DST, rate_bps=1e6)
    flow.start()  # the builder's checks have not run yet ...
    with pytest.raises(ValueError):
        sched.run(max_events=1)  # ... they run with the first packet
    assert tap.pkts == []


def test_generator_metadata_and_tracer_admission():
    admitted = []

    class Tracer:
        def admit(self, pkt, node_name, now):
            admitted.append((pkt, node_name, now))

    sched, tap = Scheduler(), Tap()
    flow = Srv6UdpFlood(
        sched, tap, SRC, PATH, rate_bps=1e6, payload_size=64, burst=2,
        src_port_spread=7, seed=1,
    )  # fmt: skip
    flow.flow_id = 42
    flow.tracer = Tracer()
    flow.start(at_ns=500)
    sched.run(max_events=3)
    pkts = tap.pkts
    assert [pkt.seq for pkt in pkts] == [1, 2, 3, 4, 5, 6]
    assert {pkt.flow_id for pkt in pkts} == {42}
    tick = flow.interval_ns * 2
    assert [pkt.tx_tstamp_ns for pkt in pkts] == [
        500, 500, 500 + tick, 500 + tick, 500 + 2 * tick, 500 + 2 * tick
    ]  # fmt: skip
    assert flow.stats.sent == 6
    assert flow.stats.bytes_sent == sum(len(pkt) for pkt in pkts) == 6 * (64 + 48 + 40)
    assert admitted == [(pkt, "A", pkt.tx_tstamp_ns) for pkt in pkts]
    # Packets never alias the template or each other.
    pkts[0].data[0] ^= 0xFF
    assert pkts[1].data[0] != pkts[0].data[0]
