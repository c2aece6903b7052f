"""Network devices: a node's egress attachment points to links."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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

    ``wire`` is where a transmitted batch goes, after any qdisc: the
    attached :class:`repro.sim.link.Link` endpoint's ``send_batch``, or
    else ``tx_buffer.extend`` (which is what the direct-datapath
    microbenchmarks and unit tests read).
    Ingress has no device frame: a link delivers its batch straight to
    the owning node's :meth:`~repro.net.node.Node.receive_batch`, which
    accounts the rx counters here.

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
    wire: Callable[[list[Packet]], None] = field(default=None, repr=False, compare=False)
    # Egress a node is dispatching, parked until its batch ends.
    pending: list[Packet] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.wire is None:
            self.wire = self.tx_buffer.extend

    def transmit(self, pkt: Packet) -> None:
        """Egress entry point (batch of one)."""
        self.transmit_batch([pkt])

    def transmit_batch(self, pkts: list[Packet]) -> None:
        """Batch egress: qdisc, or account and wire.

        The tx counters count what reaches the wire, as ``ip -s link``
        does: a qdisc sees packets one at a time (disciplines reorder and
        drop individually) and accounts each one it releases to ``wire``;
        a device with no qdisc accounts its whole batch and hands it
        straight to ``wire``, so an attached link can coalesce delivery
        into one scheduler event.
        """
        if self.qdisc is not None:
            for pkt in pkts:
                self.qdisc.enqueue(pkt, self)
            return
        stats = self.stats
        stats.tx_packets += len(pkts)
        stats.tx_bytes += sum(len(pkt.data) for pkt in pkts)
        self.wire(pkts)

    def __str__(self) -> str:
        owner = getattr(self.node, "name", "?")
        return f"{owner}:{self.name}"
