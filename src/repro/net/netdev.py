"""Network devices: a node's egress attachment points to links."""

from __future__ import annotations

from dataclasses import dataclass, field

from .packet import Packet


@dataclass
class DevStats:
    """Per-device packet/byte counters (the ``ip -s link`` view)."""
    tx_packets: int = 0
    tx_bytes: int = 0
    rx_packets: int = 0
    rx_bytes: int = 0
    tx_dropped: int = 0


@dataclass
class NetDev:
    """A device owned by a node: the egress side of one hop.

    When attached to a :class:`repro.sim.link.Link` endpoint, transmitted
    packets enter the simulated wire; otherwise they accumulate in
    ``tx_buffer`` (which is what the direct-datapath microbenchmarks and
    unit tests read).  Ingress has no device frame: a link delivers its
    batch straight to the owning node's
    :meth:`~repro.net.node.Node.receive_batch`, which accounts the rx
    counters here.

    Batches are the unit of work; the scalar :meth:`transmit` is the
    N=1 case.
    """

    name: str
    node: object = None
    link_endpoint: object = None  # set by repro.sim.link.Link.attach
    qdisc: object = None  # optional netem/tbf discipline applied at egress
    mtu: int = 1500
    stats: DevStats = field(default_factory=DevStats)
    tx_buffer: list[Packet] = field(default_factory=list)

    def transmit(self, pkt: Packet) -> None:
        """Egress entry point (batch of one)."""
        self.transmit_batch([pkt])

    def transmit_batch(self, pkts: list[Packet]) -> None:
        """Batch egress: account, then qdisc or wire.

        A qdisc still sees packets one at a time (disciplines reorder and
        drop individually) and hands each one it releases to
        :meth:`_emit_batch`; an attached link takes the whole batch so it
        can coalesce delivery into one scheduler event.
        """
        stats = self.stats
        for pkt in pkts:
            stats.tx_packets += 1
            stats.tx_bytes += len(pkt.data)
        if self.qdisc is not None:
            for pkt in pkts:
                self.qdisc.enqueue(pkt, self)
            return
        self._emit_batch(pkts)

    def _emit_batch(self, pkts: list[Packet]) -> None:
        """The wire handoff (or the test buffer); pcap taps wrap here."""
        if self.link_endpoint is not None:
            self.link_endpoint.send_batch(pkts)
        else:
            self.tx_buffer.extend(pkts)

    def __str__(self) -> str:
        owner = getattr(self.node, "name", "?")
        return f"{owner}:{self.name}"
