"""Flow measurement: goodput, delay and reordering accounting."""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from ..net.packet import Packet
from ..net.udp import UDP_HEADER_LEN
from .scheduler import NS_PER_SEC

DEFAULT_DELAY_SAMPLES = 4096


@dataclass
class FlowMeter:
    """Counts delivered payload; bind its :meth:`on_packet` as a listener.

    Per-packet delays are reservoir-sampled (algorithm R) into
    ``delays_ns``, capped at ``max_samples`` so a long run's memory stays
    bounded while percentiles remain a uniform estimate of the whole
    stream.  ``delay_count``/``delay_sum_ns`` keep exact running totals,
    so the mean never degrades to an estimate.  The reservoir RNG is
    seeded from the meter name, keeping seeded runs reproducible.

    When a sampled packet carries an active tracing context
    (``net.trace()``), its trace id is kept in ``delay_exemplars`` in
    lockstep with ``delays_ns`` (same index, ``None`` for untraced
    observations) — a slow reservoir entry links to the concrete trace
    explaining where the time went.
    """

    name: str = "flow"
    packets: int = 0
    payload_bytes: int = 0
    first_ns: int | None = None
    last_ns: int | None = None
    out_of_order: int = 0
    delay_count: int = 0
    delay_sum_ns: int = 0
    max_samples: int = DEFAULT_DELAY_SAMPLES
    _last_seq: int = field(default=-1, repr=False)
    delays_ns: list = field(default_factory=list, repr=False)
    delay_exemplars: list = field(default_factory=list, repr=False)
    _rng: random.Random = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._rng is None:
            self._rng = random.Random(zlib.crc32(self.name.encode()))

    def on_packet(self, pkt: Packet, node, offset: int) -> None:
        """A listener: one delivered datagram, its UDP header at ``offset``."""
        now = node.clock.now_ns
        self.packets += 1
        size = len(pkt.data) - offset - UDP_HEADER_LEN
        if size > 0:
            self.payload_bytes += size
        if self.first_ns is None:
            self.first_ns = now
        self.last_ns = now
        seq = pkt.seq
        if seq:
            if seq < self._last_seq:
                self.out_of_order += 1
            elif seq > self._last_seq:
                self._last_seq = seq
        sent = pkt.tx_tstamp_ns
        if sent is not None:
            trace_id = f"{pkt.flow_id}:{seq}" if pkt.tctx is not None else None
            delays = self.delays_ns
            delay = now - sent
            if self.max_samples is None or len(delays) < self.max_samples:
                # The reservoir is not full yet: every delay is kept.
                self.delay_count += 1
                self.delay_sum_ns += delay
                delays.append(delay)
                self.delay_exemplars.append(trace_id)
            else:
                self._observe_delay(delay, trace_id)

    def _observe_delay(self, delay_ns: int, trace_id: str | None = None) -> None:
        self.delay_count += 1
        self.delay_sum_ns += delay_ns
        if self.max_samples is None or len(self.delays_ns) < self.max_samples:
            self.delays_ns.append(delay_ns)
            self.delay_exemplars.append(trace_id)
        else:
            # Algorithm R: keep each of the N seen delays with equal
            # probability max_samples/N.
            slot = self._rng.randrange(self.delay_count)
            if slot < self.max_samples:
                self.delays_ns[slot] = delay_ns
                self.delay_exemplars[slot] = trace_id

    # -- derived metrics ------------------------------------------------------
    def goodput_bps(self, duration_ns: int | None = None) -> float:
        """Delivered payload rate in bits per second."""
        if duration_ns is None:
            if self.first_ns is None or self.last_ns is None or self.last_ns <= self.first_ns:
                return 0.0
            duration_ns = self.last_ns - self.first_ns
        if duration_ns <= 0:
            return 0.0
        return self.payload_bytes * 8 * NS_PER_SEC / duration_ns

    def mean_delay_ns(self) -> float:
        """Exact mean over every observed delay (not just the reservoir)."""
        return self.delay_sum_ns / self.delay_count if self.delay_count else 0.0

    def percentile(self, p: float) -> float:
        """Delay percentile (0–100) from the reservoir, linear interpolation."""
        if not self.delays_ns:
            return 0.0
        ordered = sorted(self.delays_ns)
        if len(ordered) == 1:
            return float(ordered[0])
        rank = max(0.0, min(100.0, p)) / 100.0 * (len(ordered) - 1)
        lo = int(rank)
        frac = rank - lo
        if frac == 0.0:
            return float(ordered[lo])
        return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac


def mbps(bps: float) -> float:
    return bps / 1e6
