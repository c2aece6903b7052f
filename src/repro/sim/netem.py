"""``tc netem`` qdisc model: rate limiting, delay, jitter, loss.

The paper's testbed uses netem twice: on R to shape the two hybrid-access
paths (50 Mb/s with 30±5 ms RTT, 30 Mb/s with 5±2 ms, §4.2), and by the
delay-compensation daemon itself, which *"applies a tc netem queuing
discipline to delay the packets on the fastest path"*.

Semantics follow real netem: packets are first paced to ``rate_bps``,
then held for ``delay ± jitter``; because each packet's hold time is
drawn independently, jitter naturally reorders packets — the root cause
of the paper's TCP "disaster".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..net.netdev import NetDev
from ..net.packet import Packet
from .scheduler import NS_PER_SEC, Scheduler


@dataclass
class NetemStats:
    enqueued: int = 0
    dequeued: int = 0
    lost: int = 0
    reordered: int = 0  # delivered with a smaller send-order than a predecessor


class NetemQdisc:
    """Attach to ``dev.qdisc``; shapes everything the device transmits."""

    def __init__(
        self,
        scheduler: Scheduler,
        rate_bps: float | None = None,
        delay_ns: int = 0,
        jitter_ns: int = 0,
        loss: float = 0.0,
        seed: int = 0,
        queue_limit: int | None = None,
        ordered: bool = True,
    ):
        """``ordered=True`` (default) keeps per-link FIFO order: delivery
        times are made monotone, so jitter models a time-varying path
        delay (queueing) rather than per-packet scrambling.  A real access
        link is a FIFO; the reordering the paper fights comes from
        *striping across two links*, not from within one link.  Pass
        ``ordered=False`` for raw netem-style independent per-packet
        jitter (which reorders within the link as real netem does).
        """
        if not 0.0 <= loss <= 1.0:
            raise ValueError("loss must be a probability")
        self.scheduler = scheduler
        self.rate_bps = rate_bps
        self.delay_ns = delay_ns
        self.jitter_ns = jitter_ns
        self.loss = loss
        self.queue_limit = queue_limit
        self.ordered = ordered
        self.rng = random.Random(seed)
        self.stats = NetemStats()
        self._free_at_ns = 0
        self._last_delivery_ns = 0
        self._queued = 0
        self._last_delivered_seq = -1
        self._seq = 0

    # -- runtime re-configuration (the §4.2 daemon does this live) ------------
    def set_delay(self, delay_ns: int, jitter_ns: int | None = None) -> None:
        self.delay_ns = max(0, int(delay_ns))
        if jitter_ns is not None:
            self.jitter_ns = max(0, int(jitter_ns))

    def _hold_time_ns(self) -> int:
        if self.jitter_ns <= 0:
            return self.delay_ns
        # netem draws uniformly in [delay - jitter, delay + jitter] by default.
        offset = self.rng.uniform(-self.jitter_ns, self.jitter_ns)
        return max(0, int(self.delay_ns + offset))

    def enqueue(self, pkt: Packet, dev: NetDev) -> None:
        self.stats.enqueued += 1
        if self.queue_limit is not None and self._queued >= self.queue_limit:
            self.stats.lost += 1
            return
        if self.loss and self.rng.random() < self.loss:
            self.stats.lost += 1
            return
        now = self.scheduler.now_ns
        if self.rate_bps:
            start = max(now, self._free_at_ns)
            depart = start + int(len(pkt) * 8 * NS_PER_SEC / self.rate_bps)
            self._free_at_ns = depart
        else:
            start = depart = now
        deliver_at = depart + self._hold_time_ns()
        if self.ordered:
            deliver_at = max(deliver_at, self._last_delivery_ns)
            self._last_delivery_ns = deliver_at
        tctx = pkt.tctx
        if tctx is not None:
            where = dev.node.name if dev.node is not None else dev.name
            if start > now:
                tctx.append((now, start, "queue", where, dev.name))
            if depart > start:
                tctx.append((start, depart, "serialize", where, dev.name))
            if deliver_at > depart:
                tctx.append((depart, deliver_at, "propagate", where, "netem"))
        seq = self._seq
        self._seq += 1
        self._queued += 1
        self.scheduler.schedule_at(deliver_at, self._dequeue, pkt, dev, seq)

    def _dequeue(self, pkt: Packet, dev: NetDev, seq: int) -> None:
        self._queued -= 1
        self.stats.dequeued += 1
        if seq < self._last_delivered_seq:
            self.stats.reordered += 1
        self._last_delivered_seq = max(self._last_delivered_seq, seq)
        dev._emit_batch([pkt])
