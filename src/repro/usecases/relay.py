"""The §4 daemons' shared loop: drain an End.BPF program's perf rings, answer over UDP."""

from __future__ import annotations

from ..ebpf import PerfEventArrayMap
from ..net.node import Node
from ..net.packet import make_udp_packet
from ..sim.scheduler import NS_PER_MS, Scheduler


class PerfRelay:
    """Polls a perf-event array and answers every event with one UDP datagram.

    A subclass sets its default ``src_port`` and turns one raw record into
    the datagram's destination address, port and payload (:meth:`reply`).
    """

    src_port = 0

    def __init__(self, node: Node, events: PerfEventArrayMap, src_port: int | None = None):
        self.node = node
        self.events = events
        if src_port is not None:
            self.src_port = src_port
        self.relayed = 0

    def reply(self, record: bytes) -> tuple[bytes, int, bytes]:
        """The datagram answering ``record``: (destination, port, payload)."""
        raise NotImplementedError

    def poll(self) -> int:
        """Drain pending events, answering each; returns how many were relayed."""
        count = 0
        for cpu in range(self.events.max_entries):
            for record in self.events.ring(cpu).drain():
                dst, port, payload = self.reply(record)
                self.node.send(make_udp_packet(self.node.primary_address(), dst, self.src_port, port, payload))
                count += 1
        self.relayed += count
        return count

    def start(self, scheduler: Scheduler, interval_ns: int = 1 * NS_PER_MS) -> None:
        """Poll every ``interval_ns`` on a daemon timer (a horizon-less run still returns)."""
        scheduler.every(interval_ns, self.poll)
