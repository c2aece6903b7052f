"""Node datapath: receive → route → lightweight tunnels → transmit.

A :class:`Node` models one Linux box (host or router): devices, numbered
routing tables, local addresses, and the IPv6 forwarding pipeline with
its lwtunnel attachment points:

* input: a matched route carrying a :class:`~repro.net.seg6local.Seg6LocalAction`
  consumes the packet (this is how local segments — including ``End.BPF``
  ones — are installed, §3); a ``BpfLwt`` runs its ``lwt_in`` program;
* output: a matched route carrying a :class:`~repro.net.seg6.Seg6Encap`
  pushes an SRH; a ``BpfLwt`` runs ``lwt_out``/``lwt_xmit`` (this is
  where the paper's DM sampler and WRR scheduler live, §4.1–4.2);
* hop-limit expiry generates ICMPv6 Time Exceeded (what legacy
  traceroute relies on, §4.3).

The datapath is **batch-native**: the unit of work is a list of packets
(the NAPI-poll analogue), and the scalar entry points are the N=1 case.
The staged pipeline is

    lookup → seg6local → lwt-in → local delivery → decrement →
    seg6 encap → lwt-out/xmit → transmit

:meth:`Node.receive_batch` carries a batch through it one packet at a
time, stamping arrivals on the way; sends enter the same pass.  A
packet takes the previous packet's first route when its destination
bytes and the main table's generation are unchanged, and is looked up
otherwise.  A seg6local action (its continuation looked
up in the table it chose), a local delivery and a plain forward run in
that loop; any other route enters :meth:`Node._run_pipeline`, whose
blocks are the stages in that order and whose locals are the packet's
routing state.  Packets whose headers were rewritten by a tunnel
re-enter the routing decision (re-circulation), with a budget against
misconfiguration loops.  Route lookups are memoised in a per-node
:class:`FlowTable` (O(1) on hit and on miss), SRH advances read only
the fixed SRH header, and eBPF invocations re-arm their attach site's
:class:`~repro.ebpf.jit.CompiledHandler` address space — so the cost
of per-packet setup is paid once per flow, not once per packet.
"""

from __future__ import annotations

import random
import struct
import zlib
from collections import deque
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable

from .addr import as_addr, ntop, parse_prefix
from .fib import MAIN_TABLE, FibTable, Nexthop, Route
from .icmpv6 import Icmpv6Message, dest_unreachable, echo_reply, time_exceeded
from .ipv6 import IPV6_HEADER_LEN, PROTO_ICMPV6, PROTO_TCP, PROTO_UDP
from .lwt_bpf import BpfLwt
from .netdev import NetDev
from .packet import Packet, make_icmpv6_packet
from .seg6 import Seg6Encap
from .seg6local import _FORWARD, Disposition, Seg6LocalAction

_RECIRCULATION_BUDGET = 8
_DATA = attrgetter("data")
# A packet's destination address as bytes, the flow-table key, in one read.
_DST = struct.Struct("24x16s").unpack_from


@dataclass
class NodeCounters:
    """Per-node datapath counters (the ``ip -s`` / nstat view)."""
    rx: int = 0
    tx: int = 0
    forwarded: int = 0
    delivered_local: int = 0
    dropped: int = 0
    no_route: int = 0
    hop_limit_exceeded: int = 0
    seg6local_processed: int = 0
    bpf_dropped: int = 0


@dataclass
class Listener:
    """A bound 'socket': called with ``(packet, node, offset)`` on local
    delivery, ``offset`` being where the transport header starts (the
    node's one header walk, which the listener need not repeat)."""

    callback: Callable[[Packet, "Node", int], None]
    proto: int
    port: int | None = None


class FlowTable:
    """A small bounded memo of per-destination route resolution.

    The datapath's equivalent of a kernel flow cache: the first packet
    of a flow pays the longest-prefix-match walk (and, through the
    route's encap, the seg6local action resolution); subsequent packets
    hit here.  Entries pin the owning :class:`~repro.net.fib.FibTable`
    generation at resolution time, so any route add/remove invalidates
    them on the next access.  Eviction is oldest-insertion-first (FIFO)
    and O(1): ``order`` holds the keys of ``entries`` in insertion
    order, so a hit costs one plain-dict probe (strict LRU would pay a
    reordering write per hit) and a miss one append plus, when over
    ``capacity``, one ``popleft`` — never a walk over the dict, whose
    deleted slots would make "first key" cost grow with every eviction.
    A stale-generation entry is re-resolved in place and keeps its
    position.  ``capacity`` may be lowered on a live table; the next
    insert evicts down to it.
    """

    def __init__(self, capacity: int = 32768):
        self.capacity = capacity
        self.entries: "dict[tuple[int, bytes], tuple]" = {}
        self.order: "deque[tuple[int, bytes]]" = deque()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        """Drop every memoised resolution."""
        self.entries.clear()
        self.order.clear()


class _CallClock:
    """The clock of a node built with ``clock_ns=fn``: ``now_ns`` calls ``fn``."""

    __slots__ = ("fn",)
    now_ns = property(lambda self: self.fn())

    def __init__(self, fn: Callable[[], int]):
        self.fn = fn


class Node:
    """One simulated Linux host/router.

    ``clock``'s ``now_ns`` is the node's time: a lab node's clock is its
    network's :class:`~repro.sim.scheduler.Scheduler`.
    """

    def __init__(
        self,
        name: str,
        clock_ns: Callable[[], int] | None = None,
        seed: int | None = None,
    ):
        self.name = name
        self.clock = _CallClock(clock_ns or (lambda: 0))
        # The default seed derives from the name with crc32, NOT hash():
        # str hashing is salted per process (PYTHONHASHSEED), which would
        # make eBPF get_prandom_u32 streams differ between runs of the
        # same scenario.  repro.lab overrides this with a seed derived
        # from the experiment seed.
        self.rng = random.Random(
            seed if seed is not None else zlib.crc32(name.encode()) & 0xFFFF
        )
        # Salt XOR-ed into the 5-tuple hash before ECMP nexthop selection
        # (the analogue of the kernel's boot-time flow-hash seed).  Zero
        # by default; repro.lab derives it from the experiment seed.
        self.ecmp_seed = 0
        self.devices: dict[str, NetDev] = {}
        self.tables: dict[int, FibTable] = {MAIN_TABLE: FibTable(MAIN_TABLE)}
        self.addresses: list[bytes] = []
        self.listeners: list[Listener] = []
        self.counters = NodeCounters()
        self.cpu = None  # optional repro.sim.cpu.CpuQueue for DES experiments
        self.shard = None  # explicit shard pin honoured by repro.shard.partition
        self.tracer = None  # repro.trace.Tracer; finalises traces at delivery
        self.log_messages: list[str] = []
        self.answer_echo = True
        self.flow_table = FlowTable()  # route-resolution memo
        # Devices with egress parked, in first-use order, while a batch is
        # dispatched.  Nested dispatches (ICMP errors, echo replies) park
        # theirs in the active batch, preserving per-device order.
        self._egress: list[NetDev] | None = None

    def clock_ns(self) -> int:
        """The node's time in simulated ns: its :attr:`clock`'s ``now_ns``."""
        return self.clock.now_ns

    # -- configuration ------------------------------------------------------
    def add_device(self, name: str) -> NetDev:
        """Create and attach a named device (``ip link add``)."""
        if name in self.devices:
            raise ValueError(f"{self.name}: device {name!r} already exists")
        dev = NetDev(name=name, node=self)
        self.devices[name] = dev
        return dev

    def add_address(self, addr: bytes | str) -> None:
        """Assign a local address and install its /128 local route."""
        addr = as_addr(addr)
        if addr not in self.addresses:
            self.addresses.append(addr)
        self.table().add(Route(prefix=addr, prefixlen=128, local=True))

    def primary_address(self) -> bytes:
        """The first assigned address (used as tunnel/ICMP source)."""
        if not self.addresses:
            return bytes(16)
        return self.addresses[0]

    def table(self, table_id: int = MAIN_TABLE) -> FibTable:
        """The routing table for ``table_id``, created on first use."""
        if table_id not in self.tables:
            self.tables[table_id] = FibTable(table_id)
        return self.tables[table_id]

    def main_table(self) -> FibTable:
        """The main routing table (254, as in Linux)."""
        return self.tables[MAIN_TABLE]

    def add_route(
        self,
        prefix: str,
        nexthops: list[Nexthop] | None = None,
        via: bytes | str | None = None,
        dev: str | None = None,
        encap: object | None = None,
        local: bool = False,
        table_id: int = MAIN_TABLE,
    ) -> Route:
        """Install a route; mirrors ``ip -6 route add``.

        Either pass explicit ``nexthops`` (ECMP) or a single ``via``/``dev``
        pair.  ``encap`` attaches a lightweight tunnel (Seg6Encap,
        Seg6LocalAction subclass, or BpfLwt).
        """
        network, prefixlen = parse_prefix(prefix)
        if nexthops is None:
            nexthops = []
            if via is not None or dev is not None:
                nexthops.append(Nexthop(via=via, dev=dev))
        route = Route(
            prefix=network,
            prefixlen=prefixlen,
            nexthops=nexthops,
            encap=encap,
            local=local,
        )
        return self.table(table_id).add(route)

    def bind(
        self,
        callback: Callable[[Packet, "Node", int], None],
        proto: int = PROTO_UDP,
        port: int | None = None,
    ) -> Listener:
        """Attach a 'socket': ``callback(pkt, node, offset)`` on matching
        local delivery, ``offset`` being the transport header's."""
        listener = Listener(callback, proto, port)
        self.listeners.append(listener)
        return listener

    def log(self, message: str) -> None:
        """Append to the node's kernel-log-like message buffer."""
        self.log_messages.append(message)

    # -- datapath entry points ---------------------------------------------------
    def receive(self, pkt: Packet, dev: NetDev | None = None) -> None:
        """A packet arrived from the wire on ``dev`` (batch of one)."""
        self.receive_batch([pkt], dev)

    def send(self, pkt: Packet) -> None:
        """Transmit a locally originated packet (batch of one)."""
        self.send_batch([pkt])

    def receive_batch(
        self,
        pkts: list[Packet],
        dev: NetDev | None = None,
        arrival: bool = True,
        decrement: bool = True,
    ) -> None:
        """Batch ingress (the NAPI-poll entry point) and the node's one
        dispatch pass, which carries the batch through the datapath one
        packet at a time (see the module docstring).

        Per-packet semantics are those of N arrivals in order.  ``dev``
        identifies the ingress device: its ``ip -s link`` rx counters are
        bumped and each packet is stamped with ``input_dev`` and the
        arrival instant in the pass that routes it.  With a CPU cost model
        attached, the stamped batch is submitted to the queue (per-packet
        costs, one completion) and routed when it completes.  Reusing the
        first route is exact: the lookup is deterministic per (generation,
        destination), and any FIB change a packet causes bumps the
        generation (``test_jit_v2_fib_guard.py``).

        :meth:`_transmit` parks egress on each device's ``pending`` list;
        the outermost dispatch hands each list over at batch end, straight
        to the device's ``wire`` when it has no qdisc, so links see whole
        batches in input order.  The node's own dispatches enter here
        too: ``arrival=False`` for a batch stamped already (a CPU
        completion), with ``decrement=False`` for a local one (a send).
        """
        counters = self.counters
        cpu = None
        if arrival:
            now = self.clock.now_ns
            count = len(pkts)
            counters.rx += count
            name = ""
            if dev is not None:
                name = dev.name
                stats = dev.stats
                stats.rx_packets += count
                stats.rx_bytes += len(pkts[0].data) if count == 1 else sum(map(len, map(_DATA, pkts)))
            cpu = self.cpu  # stamped now, routed when the CPU is done
        egress = outer = self._egress
        if outer is None:
            self._egress = egress = []
        main = self.tables[MAIN_TABLE]
        # The first packet always takes the lookup branch (no generation
        # is -1), which binds dst, first, action, key and budget before
        # any use.  ran / forwarded / sent: packets ``action`` ran on,
        # hop-limit decrements and packets parked for egress, counted when
        # the run (ran) or the dispatch ends.
        generation, ran, forwarded, sent = -1, 0, 0, 0
        try:
            for pkt in pkts:
                data = pkt.data
                tctx = pkt.tctx
                if arrival:
                    pkt.input_dev = name
                    pkt.rx_tstamp_ns = now
                    if tctx is not None:
                        tctx.append((now, now, "rx", self.name, name))
                    if cpu is not None:
                        continue
                if main.generation != generation or not data.startswith(dst, 24):
                    if len(data) < IPV6_HEADER_LEN:  # never equal to ``dst``
                        counters.dropped += 1
                        continue
                    if ran:
                        counters.seg6local_processed += ran
                        action.processed += ran
                        ran = 0
                    dst = _DST(data)[0]
                    generation = main.generation
                    first = self._lookup_route(main, dst)
                    action = first.encap if first is not None else None
                    if action is not None and not isinstance(action, Seg6LocalAction):
                        action = None
                    # What a pipeline packet is handed: the route's lookup
                    # key, and what is left of the re-circulation budget.
                    key = dst
                    budget = _RECIRCULATION_BUDGET if action is None else _RECIRCULATION_BUDGET - 1
                route = first
                if action is not None:
                    if tctx is not None:
                        # The pipeline's instants: spans match either path.
                        t = self.clock.now_ns
                        tctx.append((t, t, "stage:lookup", self.name, ""))
                        tctx.append((t, t, "stage:seg6local", self.name, action.kind))
                    ran += 1
                    disposition = action.process(pkt, self)
                    data = pkt.data
                    if disposition is _FORWARD:  # on to the new destination
                        try:
                            key = _DST(data)[0]
                        except struct.error:  # a program's decap left a short packet
                            key = bytes(data[24:40])
                        route = self._lookup_route(main, key)
                    else:
                        outcome = self._apply_disposition(disposition)
                        if outcome is None:
                            continue
                        table_id, nh6 = outcome
                        key = nh6 if nh6 is not None else bytes(data[24:40])
                        route = self._lookup_route(self.table(table_id) if table_id else main, key)
                if route is None:
                    counters.no_route += 1
                    counters.dropped += 1
                    continue
                if route.encap is not None:
                    self._run_pipeline(pkt, decrement, budget, route, key)
                    continue
                if tctx is not None:
                    t = self.clock.now_ns
                    tctx.append((t, t, "stage:lookup", self.name, ""))
                if route.local:
                    self._deliver_local(pkt)
                    continue
                # -- decrement and transmit: _run_pipeline's blocks.
                if decrement:
                    hop_limit = data[7]
                    if hop_limit <= 1:
                        data[7] = 0
                        counters.hop_limit_exceeded += 1
                        self._send_time_exceeded(pkt)
                        continue
                    data[7] = hop_limit - 1
                    forwarded += 1
                sent += self._transmit(pkt, route)
        finally:
            if ran:
                counters.seg6local_processed += ran
                action.processed += ran
            counters.forwarded += forwarded
            counters.tx += sent
            if outer is None:
                self._egress = None
                try:
                    for out_dev in egress:
                        out, out_dev.pending = out_dev.pending, []
                        if out_dev.qdisc is None:  # at the wire: a qdisc counts at release
                            dev_stats = out_dev.stats
                            out_count = len(out)
                            dev_stats.tx_packets += out_count
                            dev_stats.tx_bytes += len(out[0].data) if out_count == 1 else sum(map(len, map(_DATA, out)))
                            out_dev.wire(out)
                        else:
                            for pkt in out:
                                out_dev.qdisc.enqueue(pkt, out_dev)
                except BaseException:
                    for out_dev in egress:  # nothing stays parked past a failure
                        out_dev.pending = []
                    raise
        if cpu is not None:
            cpu.submit_batch(pkts, partial(self.receive_batch, arrival=False))

    def send_batch(self, pkts: list[Packet]) -> None:
        """Batch egress for locally originated packets (generators, daemons):
        the dispatch pass without the rx stamp and the hop-limit decrement."""
        self.receive_batch(pkts, None, False, False)

    def _lookup_route(self, table: FibTable, dst: bytes) -> "Route | None":
        """Flow-table-memoised route lookup in ``table``.

        Misses fall through to the FIB's longest-prefix match; hits are
        revalidated against the table generation so route changes take
        effect immediately.
        """
        flow_table = self.flow_table
        entries = flow_table.entries
        key = (table.table_id, dst)
        hit = entries.get(key)
        if hit is not None and hit[1] == table.generation:
            flow_table.hits += 1
            return hit[0]
        flow_table.misses += 1
        route = table.lookup(dst)
        entries[key] = (route, table.generation)
        if hit is None:
            # A stale-generation overwrite keeps its queue position; only
            # a new key joins the FIFO, so order and entries stay in step.
            order = flow_table.order
            order.append(key)
            while len(order) > flow_table.capacity:
                del entries[order.popleft()]
        return route

    # -- the staged pipeline -----------------------------------------------------
    def _run_pipeline(
        self, pkt: Packet, decrement: bool, budget: int, route: Route, lookup_dst: bytes
    ) -> None:
        """Carry one packet through the stages until it leaves or dies.

        The blocks below are the stages, in order; a stage that rewrote
        the headers or the routing state re-circulates the packet with
        ``route = None; continue``.  ``decrement`` is False for locally
        originated packets.  The batch loop hands over a packet's first
        route, or its continuation after an action, resolved for
        ``lookup_dst`` (a destination or nh6), and ``budget``, what is
        left of the re-circulation allowance.
        """
        counters = self.counters
        decremented = False
        table_id = nh6 = None
        for _ in range(budget):
            # -- lookup: in table_id (main unless redirected), by nh6 or
            # the destination; both are consumed by the lookup.
            if route is None:
                lookup_dst = nh6 if nh6 is not None else bytes(pkt.data[24:40])
                table = self.table(table_id) if table_id else self.tables[MAIN_TABLE]
                route = self._lookup_route(table, lookup_dst)
                if route is None:
                    counters.no_route += 1
                    counters.dropped += 1
                    return
            tctx = pkt.tctx
            if tctx is not None:
                t = self.clock.now_ns
                tctx.append((t, t, "stage:lookup", self.name, ""))
            encap = route.encap
            if encap is not None:
                # -- seg6local: a matched local segment consumes the
                # packet with its action (§3) or re-circulates it.
                if isinstance(encap, Seg6LocalAction):
                    if tctx is not None:
                        t = self.clock.now_ns
                        tctx.append((t, t, "stage:seg6local", self.name, encap.kind))
                    counters.seg6local_processed += 1
                    encap.processed += 1
                    disposition = encap.process(pkt, self)
                    if disposition is _FORWARD:
                        table_id = nh6 = None
                    else:
                        outcome = self._apply_disposition(disposition)
                        if outcome is None:
                            return
                        table_id, nh6 = outcome
                    route = None
                    continue
                # -- lwt-in: input side only (§2.1), i.e. for a packet that
                # arrived from the wire (``decrement``) and whose hop limit
                # this node has not decremented yet; never on send().
                if (
                    decrement
                    and not decremented
                    and isinstance(encap, BpfLwt)
                    and encap.prog_in is not None
                ):
                    if tctx is not None:
                        t = self.clock.now_ns
                        tctx.append((t, t, "stage:lwt_in", self.name, ""))
                    disposition = encap.run_hook("lwt_in", pkt, self)
                    outcome = self._apply_disposition(disposition)
                    if outcome is None:
                        return
                    table_id, nh6 = outcome
                    if (
                        table_id is not None
                        or nh6 is not None
                        or pkt.data[24:40] != lookup_dst
                    ):
                        route = None
                        continue
            # -- local delivery
            if route.local:
                self._deliver_local(pkt)
                return
            # -- decrement: once per forwarded packet; expiry → ICMPv6.
            if decrement and not decremented:
                decremented = True
                data = pkt.data
                hop_limit = data[7]
                if hop_limit <= 1:
                    data[7] = 0
                    counters.hop_limit_exceeded += 1
                    self._send_time_exceeded(pkt)
                    return
                data[7] = hop_limit - 1
                counters.forwarded += 1
            if encap is not None:
                # -- seg6 encap: a transit route pushes an SRH / outer
                # header (§2); the new destination is routed afresh.
                if isinstance(encap, Seg6Encap):
                    if tctx is not None:
                        t = self.clock.now_ns
                        tctx.append((t, t, "stage:encap", self.name, ""))
                    try:
                        pkt.data = bytearray(encap.apply(pkt.data, self.primary_address()))
                    except ValueError as exc:
                        self.log(f"seg6 encap failed: {exc}")
                        counters.dropped += 1
                        return
                    table_id = nh6 = route = None
                    continue
                # -- lwt-out/xmit: route-attached output programs (§2.1)
                if isinstance(encap, BpfLwt) and encap.has_output_stage():
                    if tctx is not None:
                        t = self.clock.now_ns
                        tctx.append((t, t, "stage:lwt_out", self.name, ""))
                    old_dst = pkt.data[24:40]
                    for hook in ("lwt_out", "lwt_xmit"):
                        disposition = encap.run_hook(hook, pkt, self)
                        outcome = self._apply_disposition(disposition)
                        if outcome is None:
                            return
                        table_id, nh6 = outcome
                    if (
                        table_id is not None
                        or nh6 is not None
                        or pkt.data[24:40] != old_dst
                    ):
                        route = None
                        continue
            # -- transmit
            counters.tx += self._transmit(pkt, route)
            return
        self.log("re-circulation budget exceeded; dropping")
        counters.dropped += 1

    def _transmit(self, pkt: Packet, route: Route) -> int:
        """Select a nexthop and park the packet on its device's egress batch:
        1 if parked (the caller counts ``tx``), 0 if dropped."""
        nexthops = route.nexthops
        if len(nexthops) == 1:
            # ECMP selection is the 5-tuple hash's only consumer, so a
            # single-nexthop route skips the L4 walk entirely.
            dev = self.devices.get(nexthops[0].dev)
        else:
            nexthop = route.select_nexthop(pkt.flow_hash() ^ self.ecmp_seed)
            dev = self.devices.get(nexthop.dev) if nexthop is not None else None
        if dev is None:
            self.counters.dropped += 1
            return 0
        if pkt.tctx is not None:
            t = self.clock.now_ns
            pkt.tctx.append((t, t, "stage:transmit", self.name, dev.name))
        pending = dev.pending
        if not pending:
            self._egress.append(dev)
        pending.append(pkt)
        return 1

    def _apply_disposition(
        self, disposition: Disposition
    ) -> tuple[int | None, bytes | None] | None:
        """None = packet consumed; otherwise (table_id, nh6) to re-route."""
        if disposition.action == "drop":
            self.counters.dropped += 1
            self.counters.bpf_dropped += disposition.bpf
            return None
        return disposition.table_id, disposition.nh6

    # -- local delivery -------------------------------------------------------------
    def _deliver_local(self, pkt: Packet) -> None:
        if pkt.tctx is not None and self.tracer is not None:
            self.tracer.finish(pkt, self)
        self.counters.delivered_local += 1
        info = pkt._l4_offset()  # the one header walk: listeners and ICMP reuse it
        if info is None:
            return
        proto, offset = info
        dport = None
        if proto == PROTO_ICMPV6:
            if self._handle_icmp(pkt, offset):
                return
        elif proto == PROTO_UDP or proto == PROTO_TCP:
            data = pkt.data
            try:
                dport = (data[offset + 2] << 8) | data[offset + 3]
            except IndexError:  # the ports are cut short
                return
        else:
            return
        matched = False
        for listener in self.listeners:
            if listener.proto != proto:
                continue
            port = listener.port
            if port is not None and dport is not None and port != dport:
                continue
            matched = True
            listener.callback(pkt, self, offset)
        if not matched and proto == PROTO_UDP and self.addresses:
            # No socket bound: ICMPv6 Destination Unreachable (port), which
            # is how traceroute detects that its probe reached the target.
            error = make_icmpv6_packet(
                src=self.primary_address(),
                dst=pkt.src,
                message=dest_unreachable(bytes(pkt.data), code=4),
            )
            self.send(error)

    def _handle_icmp(self, pkt: Packet, offset: int) -> bool:
        """Answer Echo Requests (the ICMPv6 header at ``offset``); other ICMP
        goes to listeners."""
        try:
            message = Icmpv6Message.parse(bytes(pkt.data), offset)
        except ValueError:
            return False
        if message.msg_type == 128 and self.answer_echo:
            reply = make_icmpv6_packet(
                src=pkt.dst if pkt.dst in self.addresses else self.primary_address(),
                dst=pkt.src,
                message=echo_reply(message),
            )
            self.send(reply)
            return True
        return False

    def _send_time_exceeded(self, pkt: Packet) -> None:
        if not self.addresses:
            self.counters.dropped += 1
            return
        error = make_icmpv6_packet(
            src=self.primary_address(),
            dst=pkt.src,
            message=time_exceeded(bytes(pkt.data)),
        )
        self.send(error)

    # -- convenience ---------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<Node {self.name} devs={list(self.devices)} addrs={[ntop(a) for a in self.addresses]}>"
