"""Per-node packet-processing cost model.

The paper's Figure 4 hinges on the CPE's CPU being the bottleneck (*"The
Turris Omnia is always the bottleneck ... the eBPF interpreter, which
heavily consumes CPU resources"*).  A :class:`CpuQueue` turns a node's
datapath into a single-server queue: every received packet occupies the
CPU for a cost determined by which processing path it will take (plain
forwarding, kernel decap, eBPF under JIT or interpreter).

Costs are expressed in nanoseconds per packet; :class:`CostModel`'s
defaults are the paper's Turris Omnia figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..net.packet import Packet
from .scheduler import Scheduler


@dataclass
class CpuStats:
    processed: int = 0
    dropped: int = 0
    busy_ns: int = 0


@dataclass
class CostModel:
    """Nanosecond costs per processing class.

    The defaults model a low-end CPE in the Turris Omnia class (1.6 GHz
    ARMv7, §4.2): ~90 kpps of plain IPv6 forwarding per core — which puts
    the 1 Gb/s line rate just out of reach below 1400-byte payloads, as
    Figure 4 shows.  Kernel decapsulation costs ~10 % more (the paper's
    measured overhead); the eBPF WRR under the interpreter costs ~20 %
    more than plain forwarding (the program runs without the JIT on
    ARM32), while the JIT'd variant would sit ~6 % over plain forwarding.
    """

    forward_ns: int = 11_000
    decap_ns: int = 12_100
    bpf_jit_ns: int = 11_700
    bpf_interp_ns: int = 13_200
    classifier: Callable[[Packet, object], str] | None = None

    def cost_ns(self, pkt: Packet, node) -> int:
        kind = self.classifier(pkt, node) if self.classifier else "forward"
        costs = {
            "forward": self.forward_ns,
            "decap": self.decap_ns,
            "bpf_jit": self.bpf_jit_ns,
            "bpf_interp": self.bpf_interp_ns,
        }
        if kind not in costs:
            raise ValueError(f"no cost for processing class {kind!r} (known: {', '.join(costs)})")
        return costs[kind]


class CpuQueue:
    """Single-server FIFO CPU attached to a node (``node.cpu``)."""

    def __init__(
        self,
        scheduler: Scheduler,
        model: CostModel,
        node,
        queue_limit: int = 1000,
    ):
        self.scheduler = scheduler
        self.model = model
        self.node = node
        self.queue_limit = queue_limit
        self.stats = CpuStats()
        self._free_at_ns = 0
        self._queued = 0

    def submit_batch(
        self, pkts: list[Packet], process: Callable[[list[Packet]], None]
    ) -> None:
        """Charge per-packet costs, complete the batch in one event.

        Each packet occupies the CPU for its modelled cost as N batches
        of one would — ``busy_ns`` and overflow drops are per packet —
        but the whole accepted batch is handed to ``process`` at the
        instant its *last* packet finishes (the completion analogue of
        link-level interrupt coalescing), so a batch costs one scheduler
        event instead of N.  Like batched link delivery, the queue drains
        in batch-sized steps: slots are held until the batch completes,
        so a contended queue can drop marginally more than per-packet
        completion would.
        """
        now = self.scheduler.now_ns
        accepted: list[Packet] = []
        traced = None
        done = self._free_at_ns
        for pkt in pkts:
            if self._queued >= self.queue_limit:
                self.stats.dropped += 1
                continue
            cost = self.model.cost_ns(pkt, self.node)
            start = max(now, self._free_at_ns)
            done = start + cost
            self._free_at_ns = done
            self._queued += 1
            self.stats.busy_ns += cost
            accepted.append(pkt)
            if pkt.tctx is not None:
                if traced is None:
                    traced = []
                traced.append((pkt, start, done))
        if accepted:
            if traced is not None:
                # Waiting for earlier packets and for the batch to
                # complete is queueing; only the packet's own modelled
                # cost is CPU time.
                batch_done = done
                where = self.node.name
                for pkt, p_start, p_done in traced:
                    tctx = pkt.tctx
                    if p_start > now:
                        tctx.append((now, p_start, "queue", where, "cpu"))
                    if p_done > p_start:
                        tctx.append((p_start, p_done, "cpu", where, ""))
                    if batch_done > p_done:
                        tctx.append((p_done, batch_done, "queue", where, "cpu-coalesce"))
            self.scheduler.schedule_batch(done, self._complete_batch, accepted, process)

    def _complete_batch(
        self, pkts: list[Packet], process: Callable[[list[Packet]], None]
    ) -> None:
        self._queued -= len(pkts)
        self.stats.processed += len(pkts)
        process(pkts)
