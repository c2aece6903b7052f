"""§4.1 — Passive monitoring of network delays.

Two eBPF programs sit at the tips of the monitored path:

* on the head-end router, a **BPF LWT** program encapsulates a configured
  fraction (the *probing ratio*) of matching IPv6 traffic with an SRH
  carrying a Delay-Measurement TLV (TX timestamp) and a controller TLV;
* on the tail-end router, the **End.DM** network function (an ``End.BPF``
  instance) reads the RX software timestamp, pushes both timestamps plus
  the controller coordinates to user space through a perf event, and
  decapsulates the inner packet (one-way mode) or bounces the probe back
  to the querier (two-way mode).

A 100-SLOC-class Python daemon (:class:`DmDaemon`, polling the End.DM
program's ``dm_events`` perf ring directly) forwards each event to the
controller in a single UDP datagram; :class:`DelayCollector` is that
controller.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..ebpf import ArrayMap, PerfEventArrayMap
from ..net.addr import as_addr, ntop
from ..net.lwt_bpf import BpfLwt
from ..net.node import Node
from ..net.packet import Packet, make_udp_packet
from ..net.seg6local import EndBPF
from ..progs import (
    DM_CONFIG_SIZE,
    DmEvent,
    dm_config_value,
    dm_encap_prog,
    end_dm_prog,
)
from ..sim.scheduler import Scheduler

REPORT_FORMAT = "<QQB"  # tx_ns, rx_ns, kind
REPORT_SIZE = struct.calcsize(REPORT_FORMAT)


@dataclass
class DelaySample:
    """One delay report: TX/RX timestamps and probe kind (§4.1)."""
    tx_timestamp_ns: int
    rx_timestamp_ns: int
    kind: int

    @property
    def delay_ns(self) -> int:
        """One-way delay: RX minus TX timestamp."""
        return self.rx_timestamp_ns - self.tx_timestamp_ns


@dataclass
class DelayCollector:
    """The controller that receives delay reports over UDP."""

    node: Node
    port: int = 8877
    samples: list[DelaySample] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.node.bind(self._on_report, proto=17, port=self.port)

    def _on_report(self, pkt: Packet, node: Node) -> None:
        payload = pkt.udp_payload()
        if payload is None or len(payload) < REPORT_SIZE:
            return
        tx, rx, kind = struct.unpack_from(REPORT_FORMAT, payload)
        self.samples.append(DelaySample(tx, rx, kind))

    def mean_delay_ns(self) -> float:
        """Mean one-way delay over all collected samples (0.0 when empty)."""
        if not self.samples:
            return 0.0
        return sum(s.delay_ns for s in self.samples) / len(self.samples)


class DmDaemon:
    """User-space daemon on the End.DM router (the paper's bcc daemon).

    Polls the perf ring and relays every event to the controller address
    carried *in the event itself* (which the eBPF program copied from the
    probe's controller TLV) as one UDP datagram.
    """

    def __init__(
        self,
        node: Node,
        events: PerfEventArrayMap,
        src_port: int = 8878,
    ):
        self.node = node
        self.events = events
        self.src_port = src_port
        self.relayed = 0

    def poll(self) -> int:
        """Drain pending events; returns how many were relayed."""
        count = 0
        for cpu in range(self.events.max_entries):
            for record in self.events.ring(cpu).drain():
                self._relay(DmEvent.parse(record))
                count += 1
        self.relayed += count
        return count

    def _relay(self, event: DmEvent) -> None:
        payload = struct.pack(
            REPORT_FORMAT, event.tx_timestamp_ns, event.rx_timestamp_ns, event.kind
        )
        report = make_udp_packet(
            self.node.primary_address(),
            event.controller,
            self.src_port,
            event.port,
            payload,
        )
        self.node.send(report)

    def start(self, scheduler: Scheduler, interval_ns: int = 1_000_000) -> None:
        """Poll periodically inside a simulation."""

        def tick() -> None:
            self.poll()
            scheduler.schedule(interval_ns, tick)

        scheduler.schedule(interval_ns, tick)


@dataclass
class DmSampler:
    """Handle on an installed head-end sampler."""

    lwt: BpfLwt
    config: ArrayMap

    def set_ratio(self, ratio: int) -> None:
        """Change the probing ratio at run time (0 disables sampling)."""
        raw = bytearray(self.config.lookup((0).to_bytes(4, "little")))
        struct.pack_into("<I", raw, 36, ratio)
        self.config.update((0).to_bytes(4, "little"), bytes(raw))


def install_dm_sampler(
    node: Node,
    prefix: str,
    dm_segment: str | bytes,
    controller: str | bytes,
    controller_port: int,
    ratio: int,
    kind: int = 0,
    via=None,
    dev=None,
    jit: bool = True,
) -> DmSampler:
    """Attach the §4.1 transit sampler to ``node``'s route for ``prefix``.

    One in ``ratio`` packets toward ``prefix`` is encapsulated with a DM
    probe SRH through ``dm_segment``.
    """
    config = ArrayMap(f"dm_config_{node.name}", value_size=DM_CONFIG_SIZE, max_entries=1)
    config.update(
        (0).to_bytes(4, "little"),
        dm_config_value(dm_segment, controller, controller_port, kind, ratio),
    )
    program = dm_encap_prog(config, jit=jit)
    lwt = BpfLwt(prog_out=program)
    node.add_route(prefix, via=via, dev=dev, encap=lwt)
    return DmSampler(lwt, config)


def install_end_dm(
    node: Node, segment: str | bytes, jit: bool = True
) -> tuple[PerfEventArrayMap, EndBPF]:
    """Install the End.DM function on ``segment`` (an End.BPF instance)."""
    events = PerfEventArrayMap(f"dm_events_{node.name}_{ntop(as_addr(segment))}")
    action = EndBPF(end_dm_prog(events, jit=jit))
    node.add_route(f"{ntop(as_addr(segment))}/128", encap=action)
    return events, action


@dataclass
class OwdMonitorHandles:
    """Everything :func:`deploy_owd_monitoring` installed."""

    sampler: DmSampler
    events: PerfEventArrayMap
    daemon: DmDaemon
    collector: DelayCollector


def deploy_owd_monitoring(
    head: Node,
    tail: Node,
    controller_node: Node,
    monitored_prefix: str,
    dm_segment: str,
    controller_addr: str,
    ratio: int = 100,
    controller_port: int = 8877,
    via=None,
    dev=None,
    jit: bool = True,
) -> OwdMonitorHandles:
    """Wire the complete §4.1 pipeline across three nodes."""
    collector = DelayCollector(controller_node, port=controller_port)
    sampler = install_dm_sampler(
        head,
        monitored_prefix,
        dm_segment,
        controller_addr,
        controller_port,
        ratio,
        via=via,
        dev=dev,
        jit=jit,
    )
    events, _action = install_end_dm(tail, dm_segment, jit=jit)
    daemon = DmDaemon(tail, events)
    return OwdMonitorHandles(sampler, events, daemon, collector)
