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

:meth:`Node._input_batch` carries a batch through it one packet at a
time.  A packet takes the previous packet's first route when its
destination bytes and the main table's generation are unchanged, and
is looked up otherwise.  A seg6local action (its continuation looked
up in the table it chose) and a plain forward run in that loop; any
other route enters :meth:`Node._run_pipeline`, whose blocks are the
stages in that order and whose locals are the packet's routing state.
Packets whose headers were rewritten by a tunnel re-enter the routing
decision (re-circulation), with a budget against misconfiguration
loops.  Route lookups are memoised in a per-node :class:`FlowTable`
(O(1) on hit and on miss), SRH advances read only the fixed SRH header,
and eBPF invocations re-arm their attach site's
:class:`~repro.ebpf.jit.CompiledHandler` address space — so the cost
of per-packet setup is paid once per flow, not once per packet.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass
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
    """A bound 'socket': called with (packet, node) on local delivery."""

    callback: Callable[[Packet, "Node"], None]
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


class Node:
    """One simulated Linux host/router."""

    def __init__(
        self,
        name: str,
        clock_ns: Callable[[], int] | None = None,
        seed: int | None = None,
    ):
        self.name = name
        self.clock_ns = clock_ns or (lambda: 0)
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
        # Per-device egress accumulator (keyed by device name), active while
        # a batch is being dispatched; the outermost dispatch hands each
        # device its list through NetDev.transmit_batch at batch end.
        # Nested dispatches (ICMP errors, echo replies) append to the
        # already-active batch, preserving per-device order.
        self._egress_batch: dict[str, list[Packet]] | None = None

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
        callback: Callable[[Packet, "Node"], None],
        proto: int = PROTO_UDP,
        port: int | None = None,
    ) -> Listener:
        """Attach a 'socket': ``callback(pkt, node)`` on matching local delivery."""
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

    def receive_batch(self, pkts: list[Packet], dev: NetDev | None = None) -> None:
        """Batch ingress: the NAPI-poll entry point, and the only one.

        A link delivers its arrivals here directly.  Per-packet semantics
        are those of N arrivals in order; egress is accumulated per
        device and handed over once at batch end, so links see whole
        batches while per-device wire order stays exactly the order of
        the input.  ``dev`` identifies the ingress device: its ``ip -s
        link`` rx counters are bumped and each packet is stamped with
        ``input_dev``.  With a CPU cost model attached, the whole
        batch is submitted to the queue (per-packet costs, one
        completion — the interrupt-coalescing analogue).
        """
        clock = self.clock_ns
        counters = self.counters
        if dev is not None:
            name = dev.name
            rx_bytes = 0
            for pkt in pkts:
                rx_bytes += len(pkt.data)
                pkt.input_dev = name
                t = clock()
                pkt.rx_tstamp_ns = t
                if pkt.tctx is not None:
                    pkt.tctx.append((t, t, "rx", self.name, name))
            stats = dev.stats
            stats.rx_packets += len(pkts)
            stats.rx_bytes += rx_bytes
        else:
            for pkt in pkts:
                t = clock()
                pkt.rx_tstamp_ns = t
                if pkt.tctx is not None:
                    pkt.tctx.append((t, t, "rx", self.name, ""))
        counters.rx += len(pkts)
        if self.cpu is not None:
            self.cpu.submit_batch(pkts, self._input_batch)
            return
        self._input_batch(pkts)

    def send_batch(self, pkts: list[Packet]) -> None:
        """Batch egress for locally originated packets (generators, daemons)."""
        outer = self._egress_batch
        if outer is None:
            self._egress_batch = {}
        run = self._run_pipeline
        try:
            for pkt in pkts:
                run(pkt, False)
        finally:
            if outer is None:
                batch, self._egress_batch = self._egress_batch, None
                for dev_name, out in batch.items():
                    self.devices[dev_name].transmit_batch(out)

    # -- internals --------------------------------------------------------------
    def _input_batch(self, pkts: list[Packet]) -> None:
        """Carry arrivals through the datapath one at a time (see the module
        docstring).  Reusing the first route is exact: the lookup is
        deterministic per (generation, destination), and any FIB change a
        packet causes bumps the generation (``test_jit_v2_fib_guard.py``).
        """
        outer = self._egress_batch
        if outer is None:
            self._egress_batch = {}
        counters = self.counters
        main = self.tables[MAIN_TABLE]
        dst = first = action = None
        generation, ran = -1, 0  # ran: packets ``action`` ran, not yet counted
        try:
            for pkt in pkts:
                data = pkt.data
                if main.generation != generation or data[24:40] != dst:
                    if len(data) < IPV6_HEADER_LEN:  # never equal to ``dst``
                        counters.dropped += 1
                        continue
                    if ran:
                        counters.seg6local_processed += ran
                        action.processed += ran
                        ran = 0
                    dst = bytes(data[24:40])
                    generation = main.generation
                    first = self._lookup_route(MAIN_TABLE, dst)
                    action = first.encap if first is not None else None
                    if action is not None and not isinstance(action, Seg6LocalAction):
                        action = None
                tctx = pkt.tctx
                route, key, budget = first, dst, _RECIRCULATION_BUDGET
                if action is not None:
                    if tctx is not None:
                        # The pipeline's instants: spans match either path.
                        t = self.clock_ns()
                        tctx.append((t, t, "stage:lookup", self.name, ""))
                        tctx.append((t, t, "stage:seg6local", self.name, action.kind))
                    ran += 1
                    disposition = action.process(pkt, self)
                    table_id = nh6 = None
                    if disposition is not _FORWARD:
                        outcome = self._apply_disposition(disposition)
                        if outcome is None:
                            continue
                        table_id, nh6 = outcome
                    key = nh6 if nh6 is not None else bytes(pkt.data[24:40])
                    route = self._lookup_route(table_id or MAIN_TABLE, key)
                    budget -= 1
                if route is None:
                    counters.no_route += 1
                    counters.dropped += 1
                    continue
                if route.encap is not None or route.local:
                    self._run_pipeline(pkt, True, budget, route, key)
                    continue
                if tctx is not None:
                    t = self.clock_ns()
                    tctx.append((t, t, "stage:lookup", self.name, ""))
                # -- decrement and transmit: _run_pipeline's blocks.
                data = pkt.data
                hop_limit = data[7]
                if hop_limit <= 1:
                    data[7] = 0
                    counters.hop_limit_exceeded += 1
                    self._send_time_exceeded(pkt)
                    continue
                data[7] = hop_limit - 1
                counters.forwarded += 1
                self._transmit(pkt, route)
        finally:
            if ran:
                counters.seg6local_processed += ran
                action.processed += ran
            if outer is None:
                batch, self._egress_batch = self._egress_batch, None
                for dev_name, out in batch.items():
                    self.devices[dev_name].transmit_batch(out)

    def _lookup_route(self, table_id: int, dst: bytes) -> "Route | None":
        """Flow-table-memoised route lookup.

        Misses fall through to the FIB's longest-prefix match; hits are
        revalidated against the table generation so route changes take
        effect immediately.
        """
        table = self.tables.get(table_id)
        if table is None:
            table = self.table(table_id)
        flow_table = self.flow_table
        entries = flow_table.entries
        key = (table_id, dst)
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
        self,
        pkt: Packet,
        decrement: bool,
        budget: int = _RECIRCULATION_BUDGET,
        route: "Route | None" = None,
        lookup_dst: bytes | None = None,
    ) -> None:
        """Carry one packet through the stages until it leaves or dies.

        The blocks below are the stages, in order; a stage that rewrote
        the headers or the routing state re-circulates the packet with
        ``route = None; continue``.  ``decrement`` is False for locally
        originated packets.  ``route`` pre-resolves the first lookup, for
        ``lookup_dst`` (a destination or nh6), and ``budget`` is what is
        left of the re-circulation allowance: :meth:`_input_batch` passes
        a packet's first route, or its continuation after an action.
        """
        counters = self.counters
        decremented = False
        table_id = nh6 = None
        for _ in range(budget):
            # -- lookup: in table_id (main unless redirected), by nh6 or
            # the destination; both are consumed by the lookup.
            if route is None:
                lookup_dst = nh6 if nh6 is not None else bytes(pkt.data[24:40])
                route = self._lookup_route(table_id or MAIN_TABLE, lookup_dst)
                if route is None:
                    counters.no_route += 1
                    counters.dropped += 1
                    return
            tctx = pkt.tctx
            if tctx is not None:
                t = self.clock_ns()
                tctx.append((t, t, "stage:lookup", self.name, ""))
            encap = route.encap
            if encap is not None:
                # -- seg6local: a matched local segment consumes the
                # packet with its action (§3) or re-circulates it.
                if isinstance(encap, Seg6LocalAction):
                    if tctx is not None:
                        t = self.clock_ns()
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
                        t = self.clock_ns()
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
                        t = self.clock_ns()
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
                        t = self.clock_ns()
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
            self._transmit(pkt, route)
            return
        self.log("re-circulation budget exceeded; dropping")
        counters.dropped += 1

    def _transmit(self, pkt: Packet, route: Route) -> None:
        """Select a nexthop and park the packet on its device's egress batch."""
        nexthops = route.nexthops
        if len(nexthops) == 1:
            # ECMP selection is the 5-tuple hash's only consumer, so a
            # single-nexthop route skips the L4 walk entirely.
            nexthop = nexthops[0]
        else:
            nexthop = route.select_nexthop(pkt.flow_hash() ^ self.ecmp_seed)
        if nexthop is None or nexthop.dev not in self.devices:
            self.counters.dropped += 1
            return
        pkt.trace.append(self.name)
        tctx = pkt.tctx
        if tctx is not None:
            t = self.clock_ns()
            tctx.append((t, t, "stage:transmit", self.name, nexthop.dev))
        self.counters.tx += 1
        batch = self._egress_batch
        out = batch.get(nexthop.dev)
        if out is None:
            batch[nexthop.dev] = out = []
        out.append(pkt)

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
        info = pkt._l4_offset()  # the one header walk: ICMP parsing reuses it
        if info is None:
            return
        proto, offset = info
        if proto == PROTO_ICMPV6:
            if self._handle_icmp(pkt, offset):
                return
        elif proto == PROTO_UDP or proto == PROTO_TCP:
            data = pkt.data
            if offset + 4 > len(data):
                return
            dport = (data[offset + 2] << 8) | data[offset + 3]
        else:
            return
        matched = False
        for listener in self.listeners:
            if listener.proto != proto:
                continue
            if listener.port is not None and proto in (PROTO_UDP, PROTO_TCP):
                if listener.port != dport:
                    continue
            matched = True
            listener.callback(pkt, self)
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
