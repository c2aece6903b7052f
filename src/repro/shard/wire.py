"""Wire format for cross-shard packet handoffs.

A handoff carries whole delivery batches — the serialised twin of the
in-process ``transmit_batch`` path.  Packets are packed with
:mod:`struct` (not pickle): the format is explicit about exactly which
:class:`~repro.net.packet.Packet` fields survive a shard boundary, and
the bytes are deterministic, which keeps the handoff stream itself
reproducible.

Per packet: a fixed header (data length, generator bookkeeping, RX
timestamp, mark, span count), the raw packet bytes, then the tracing
context's spans (``tctx`` — the sender's side of the link already
appended its queue/serialise/propagate spans before export, so a trace
crosses the cut without losing time).
The per-hop ``input_dev`` is deliberately *not* carried: it is dead
between hops, and ingress restamps it.
"""

from __future__ import annotations

import struct

from ..net.packet import Packet

_BATCH_HEADER = struct.Struct("<I")
# len, flow_id, seq, tx (-1: unstamped), rx, mark, spans
_PKT_HEADER = struct.Struct("<IqqqqIH")
_NAME_HEADER = struct.Struct("<H")
_SPAN_HEADER = struct.Struct("<qq")  # start_ns, end_ns


def pack_batch(pkts: list[Packet]) -> bytes:
    """Serialise a delivery batch to deterministic bytes."""
    parts = [_BATCH_HEADER.pack(len(pkts))]
    for pkt in pkts:
        tctx = pkt.tctx
        parts.append(
            _PKT_HEADER.pack(
                len(pkt.data),
                pkt.flow_id,
                pkt.seq,
                -1 if pkt.tx_tstamp_ns is None else pkt.tx_tstamp_ns,
                pkt.rx_tstamp_ns,
                pkt.mark,
                len(tctx) if tctx is not None else 0,
            )
        )
        parts.append(bytes(pkt.data))
        if tctx is not None:
            for start, end, category, where, detail in tctx:
                parts.append(_SPAN_HEADER.pack(start, end))
                for text in (category, where, detail):
                    encoded = text.encode()
                    parts.append(_NAME_HEADER.pack(len(encoded)))
                    parts.append(encoded)
    return b"".join(parts)


def unpack_batch(blob: bytes) -> list[Packet]:
    """Reconstruct the packet batch a peer shard exported."""
    (count,) = _BATCH_HEADER.unpack_from(blob, 0)
    offset = _BATCH_HEADER.size
    pkts: list[Packet] = []
    for _ in range(count):
        data_len, flow_id, seq, tx, rx, mark, spans = _PKT_HEADER.unpack_from(blob, offset)
        offset += _PKT_HEADER.size
        data = blob[offset : offset + data_len]
        offset += data_len
        tctx = None
        if spans:
            tctx = []
            for _ in range(spans):
                start, end = _SPAN_HEADER.unpack_from(blob, offset)
                offset += _SPAN_HEADER.size
                texts = []
                for _ in range(3):
                    (text_len,) = _NAME_HEADER.unpack_from(blob, offset)
                    offset += _NAME_HEADER.size
                    texts.append(blob[offset : offset + text_len].decode())
                    offset += text_len
                tctx.append((start, end, texts[0], texts[1], texts[2]))
        pkts.append(
            Packet(
                data,
                flow_id=flow_id,
                seq=seq,
                tx_tstamp_ns=None if tx < 0 else tx,
                rx_tstamp_ns=rx,
                mark=mark,
                tctx=tctx,
            )
        )
    return pkts
