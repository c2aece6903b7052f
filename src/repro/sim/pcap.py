"""Packet capture to pcap files — tcpdump for the simulated lab.

Attach a :class:`PcapWriter` to a device tap and open the result in
Wireshark/tcpdump: packets are raw IPv6 (``LINKTYPE_RAW``), so the SRH,
TLVs and inner encapsulation appear exactly as this stack built them —
handy both for debugging and for convincing yourself the wire formats
are real.

>>> writer = PcapWriter("/tmp/trace.pcap")       # doctest: +SKIP
>>> tap_device(node.devices["eth1"], writer)     # doctest: +SKIP
"""

from __future__ import annotations

import struct
from pathlib import Path

from ..net.netdev import NetDev
from ..net.packet import Packet

PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)
LINKTYPE_RAW = 101  # raw IP; Wireshark inspects the version nibble
DEFAULT_SNAPLEN = 65535


class PcapWriter:
    """Writes the classic (non-ng) pcap format."""

    def __init__(self, path: str | Path, snaplen: int = DEFAULT_SNAPLEN):
        self.path = Path(path)
        self.snaplen = snaplen
        self.packets_written = 0
        self._fh = open(self.path, "wb")
        self._fh.write(
            struct.pack(
                "<IHHiIII",
                PCAP_MAGIC,
                PCAP_VERSION[0],
                PCAP_VERSION[1],
                0,  # thiszone
                0,  # sigfigs
                snaplen,
                LINKTYPE_RAW,
            )
        )

    def write(self, data: bytes, timestamp_ns: int = 0) -> None:
        captured = data[: self.snaplen]
        seconds, nanos = divmod(timestamp_ns, 1_000_000_000)
        self._fh.write(
            struct.pack("<IIII", seconds, nanos // 1000, len(captured), len(data))
        )
        self._fh.write(captured)
        self.packets_written += 1

    def write_packet(self, pkt: Packet, timestamp_ns: int | None = None) -> None:
        ts = timestamp_ns if timestamp_ns is not None else pkt.rx_tstamp_ns
        self.write(bytes(pkt.data), ts)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PcapCapture:
    """A live capture handle: the writer plus a trace-correlation index.

    ``trace_ids`` lists ``(timestamp_ns, trace_id)`` for every captured
    packet that carried an active tracing context — the join key between
    the pcap view and ``net.trace()`` records.  Created by
    :meth:`repro.lab.network.Network.pcap`.
    """

    def __init__(self, writer: PcapWriter, path: str | Path):
        self.writer = writer
        self.path = Path(path)
        self.trace_ids: list[tuple[int, str]] = []

    def index(self, pkt: Packet, timestamp_ns: int) -> None:
        if pkt.tctx is not None:
            self.trace_ids.append((timestamp_ns, f"{pkt.flow_id}:{pkt.seq}"))

    @property
    def packets_written(self) -> int:
        return self.writer.packets_written

    def close(self) -> None:
        self.writer.close()


def tap_device(
    dev: NetDev, writer: PcapWriter, direction: str = "tx", index=None
) -> None:
    """Mirror a device's traffic into ``writer`` (``tx``, ``rx`` or ``both``).

    Installed like an ``AF_PACKET`` tap, by re-pointing the device's
    ``wire`` (tx, after any qdisc) at a capture that hands on to the
    previous target, or by wrapping its node's receive entry point for
    arrivals on this device (rx); the datapath behaviour is unchanged.
    Packets are stamped with the owning node's scheduler clock.
    ``index`` is an optional callable invoked as ``index(pkt,
    timestamp_ns)`` per captured packet (see :class:`PcapCapture`).
    """
    if direction not in ("tx", "rx", "both"):
        raise ValueError("direction must be tx, rx or both")

    def capture(pkts: list[Packet]) -> None:
        now = dev.node.clock.now_ns if dev.node is not None else 0
        for pkt in pkts:
            writer.write_packet(pkt, timestamp_ns=now)
            if index is not None:
                index(pkt, now)

    if direction in ("tx", "both"):
        original_wire = dev.wire

        def tapped_wire(pkts: list[Packet]) -> None:
            capture(pkts)
            original_wire(pkts)

        dev.wire = tapped_wire

    if direction in ("rx", "both"):
        node = dev.node
        original_receive = node.receive_batch

        def tapped_receive(pkts: list[Packet], in_dev: NetDev | None = None) -> None:
            if in_dev is dev:
                capture(pkts)
            original_receive(pkts, in_dev)

        node.receive_batch = tapped_receive


def read_pcap(path: str | Path) -> list[tuple[int, bytes]]:
    """Parse a pcap file back into (timestamp_ns, bytes) records."""
    raw = Path(path).read_bytes()
    magic, major, minor, _tz, _sig, _snap, linktype = struct.unpack_from(
        "<IHHiIII", raw
    )
    if magic != PCAP_MAGIC:
        raise ValueError("not a pcap file (bad magic)")
    if linktype != LINKTYPE_RAW:
        raise ValueError(f"unexpected linktype {linktype}")
    records = []
    offset = 24
    while offset < len(raw):
        seconds, micros, caplen, _origlen = struct.unpack_from("<IIII", raw, offset)
        offset += 16
        records.append((seconds * 1_000_000_000 + micros * 1000, raw[offset : offset + caplen]))
        offset += caplen
    return records
