"""iproute2-style configuration front-end.

Linux operators deploy the paper's system with ``ip -6 route`` commands::

    ip -6 route add fc00::100/128 encap seg6local action End.BPF \\
            endpoint obj prog.o sec main dev eth0
    ip -6 route add fc00:2::/64 encap seg6 mode encap \\
            segs fc00::a,fc00::b dev eth1

:class:`IpRoute` accepts the same textual syntax against a simulated
:class:`~repro.net.node.Node`, so configurations translate between the
real system and this reproduction nearly verbatim.  eBPF objects are
referenced by name out of a registry of loaded
:class:`~repro.ebpf.program.Program` objects (there is no ELF loader —
programs are ``.s`` sources assembled by :mod:`repro.ebpf.text`).
"""

from __future__ import annotations

from ..ebpf import Program
from .addr import ntop, parse_prefix
from .fib import MAIN_TABLE, Nexthop, Route
from .lwt_bpf import BpfLwt
from .node import Node
from .seg6 import SEG6_MODE_ENCAP, SEG6_MODE_INLINE, Seg6Encap
from .seg6local import (
    End,
    EndB6,
    EndB6Encaps,
    EndBPF,
    EndDT6,
    EndDX6,
    EndT,
    EndX,
)


class IpRouteError(ValueError):
    """Raised on a syntax or semantic error in a command."""


def register_object(objects: dict[str, Program], program: Program) -> str:
    """Ensure ``program`` is in the registry; return its (unique) name.

    The single identity-based lookup shared by the builder's
    ``attach()`` and by ``route show`` rendering, so a program always
    dumps under a name the registry resolves — name collisions get a
    numeric suffix.
    """
    for name, registered in objects.items():
        if registered is program:
            return name
    name = program.name
    suffix = 1
    while name in objects:
        suffix += 1
        name = f"{program.name}_{suffix}"
    objects[name] = program
    return name


class _Tokens:
    """A consumable token stream with keyword lookups."""

    def __init__(self, text: str):
        self.tokens = text.split()
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if not self.done() else None

    def take(self, what: str = "token") -> str:
        if self.done():
            raise IpRouteError(f"expected {what}, found end of command")
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def take_keyword(self, keyword: str) -> None:
        token = self.take(keyword)
        if token != keyword:
            raise IpRouteError(f"expected {keyword!r}, got {token!r}")


class IpRoute:
    """``ip -6``-style command interface bound to one node.

    ``objects`` maps eBPF object names (the ``obj <name>`` argument) to
    loaded :class:`Program` instances.
    """

    def __init__(self, node: Node, objects: dict[str, Program] | None = None):
        self.node = node
        # Kept by reference: a registry shared with a builder (or other
        # planes) sees objects loaded after this plane was created.
        self.objects = objects if objects is not None else {}

    # -- public commands ------------------------------------------------------
    def execute(self, command: str):
        """Dispatch one full iproute2-style command line.

        Accepts the operator syntax with or without the ``ip -6``
        prefix: ``ip -6 route add <spec>``, ``route del <spec>``,
        ``route replace <spec>``, ``route show [table N]``,
        ``ip -6 addr add <spec>``.  Returns whatever the subcommand
        returns (a :class:`Route`, a list of lines for ``show``, None
        for ``del``/``addr add``).
        """
        tokens = command.split()
        while tokens and tokens[0] in ("ip", "-6"):
            tokens.pop(0)
        if not tokens:
            raise IpRouteError("empty command")
        obj = tokens.pop(0)
        if obj in ("route", "r"):
            if not tokens:
                raise IpRouteError("route: missing subcommand")
            verb = tokens.pop(0)
            rest = " ".join(tokens)
            if verb == "add":
                return self.route_add(rest)
            if verb in ("del", "delete"):
                return self.route_del(rest)
            if verb == "replace":
                return self.route_replace(rest)
            if verb in ("show", "list"):
                return self.route_show(rest)
            raise IpRouteError(f"unknown route subcommand {verb!r}")
        if obj in ("addr", "address", "a"):
            if not tokens or tokens.pop(0) != "add":
                raise IpRouteError("addr: only 'addr add' is supported")
            return self.addr_add(" ".join(tokens))
        raise IpRouteError(f"unknown command object {obj!r}")
    def addr_add(self, spec: str) -> None:
        """``addr_add("fc00::1 dev eth0")`` — the dev is accepted and
        ignored (addresses are node-global here, as for loopback SIDs)."""
        tokens = _Tokens(spec)
        addr = tokens.take("address")
        if not tokens.done():
            tokens.take_keyword("dev")
            tokens.take("device")
        self.node.add_address(addr.split("/")[0])

    def route_add(self, spec: str) -> Route:
        """Parse and install one ``ip -6 route add`` body.

        A leading ``local`` keyword (as :meth:`route_show` prints for
        address-installed routes) installs a local-delivery route, so a
        full dump replays without filtering.
        """
        tokens = _Tokens(spec)
        local = False
        if tokens.peek() == "local":
            tokens.take()
            local = True
        prefix = tokens.take("prefix")
        if "/" not in prefix:
            prefix += "/128"

        encap = None
        via = None
        dev = None
        table_id = MAIN_TABLE
        nexthops: list[Nexthop] = []

        while not tokens.done():
            keyword = tokens.take()
            if keyword == "encap":
                encap = self._parse_encap(tokens)
            elif keyword == "via":
                via = tokens.take("gateway")
            elif keyword == "dev":
                dev = tokens.take("device")
            elif keyword == "table":
                table_id = int(tokens.take("table id"))
            elif keyword == "metric":
                tokens.take("metric")  # accepted, unused
            elif keyword == "nexthop":
                nexthops.append(self._parse_nexthop(tokens))
            else:
                raise IpRouteError(f"unknown keyword {keyword!r}")

        if nexthops and (via or dev):
            raise IpRouteError("use either 'nexthop' blocks or via/dev, not both")
        if nexthops:
            return self.node.add_route(
                prefix, nexthops=nexthops, encap=encap, table_id=table_id
            )
        return self.node.add_route(
            prefix, via=via, dev=dev, encap=encap, local=local, table_id=table_id
        )

    def route_replace(self, spec: str) -> Route:
        """``ip -6 route replace``: install, overwriting any same-prefix route.

        The FIB keys routes by (prefix, prefixlen, table), so replace
        shares ``route add``'s parser and semantics; it exists so
        configurations written against real iproute2 — where ``add``
        fails with EEXIST but ``replace`` does not — apply verbatim.
        """
        return self.route_add(spec)

    def route_del(self, spec: str) -> None:
        """``ip -6 route del <prefix> [table N]``; extra selectors are ignored.

        Raises :class:`IpRouteError` if no such route exists (ESRCH).
        """
        tokens = _Tokens(spec)
        prefix = tokens.take("prefix")
        if "/" not in prefix:
            prefix += "/128"
        table_id = MAIN_TABLE
        while not tokens.done():
            keyword = tokens.take()
            if keyword == "table":
                table_id = int(tokens.take("table id"))
            elif keyword in ("via", "dev", "metric"):
                tokens.take(keyword)  # selector accepted, not needed: the
                # FIB holds one route per (prefix, len, table)
            else:
                raise IpRouteError(f"unknown keyword {keyword!r}")
        network, prefixlen = parse_prefix(prefix)
        try:
            self.node.table(table_id).remove(network, prefixlen)
        except KeyError:
            raise IpRouteError(
                f"no route {ntop(network)}/{prefixlen} in table {table_id}"
            ) from None

    def route_show(self, spec: str = "") -> list[str]:
        """``ip -6 route show [table N]`` — one line per route.

        Every line renders in syntax :meth:`route_add` parses back —
        eBPF objects by their registered name, local /128 routes
        (installed by ``addr add``) with iproute2's leading ``local``
        keyword — so a dumped configuration replays onto another node
        unfiltered.
        """
        tokens = _Tokens(spec)
        table_id = MAIN_TABLE
        while not tokens.done():
            keyword = tokens.take()
            if keyword == "table":
                table_id = int(tokens.take("table id"))
            else:
                raise IpRouteError(f"unknown keyword {keyword!r}")
        routes = sorted(
            self.node.table(table_id).routes(),
            key=lambda r: (r.prefixlen, r.prefix),
        )
        return [self._format_route(route) for route in routes]

    # -- route formatting (the show side of the round trip) -----------------------
    def _format_route(self, route: Route) -> str:
        parts = [f"{ntop(route.prefix)}/{route.prefixlen}"]
        if route.local:
            parts.insert(0, "local")
        if route.encap is not None:
            parts.append(self._format_encap(route.encap))
        if len(route.nexthops) == 1:
            nh = route.nexthops[0]
            if nh.via is not None:
                parts.append(f"via {ntop(nh.via)}")
            if nh.dev is not None:
                parts.append(f"dev {nh.dev}")
        else:
            for nh in route.nexthops:
                block = ["nexthop"]
                if nh.via is not None:
                    block.append(f"via {ntop(nh.via)}")
                if nh.dev is not None:
                    block.append(f"dev {nh.dev}")
                block.append(f"weight {nh.weight}")
                parts.append(" ".join(block))
        if route.table != MAIN_TABLE:
            parts.append(f"table {route.table}")
        return " ".join(parts)

    def _format_encap(self, encap) -> str:
        if isinstance(encap, Seg6Encap):
            segs = ",".join(ntop(seg) for seg in encap.segments)
            return f"encap seg6 mode {encap.mode} segs {segs}"
        if isinstance(encap, BpfLwt):
            hooks = []
            for hook, program in (
                ("in", encap.prog_in),
                ("out", encap.prog_out),
                ("xmit", encap.prog_xmit),
            ):
                if program is not None:
                    hooks.append(f"{hook} obj {self._object_name(program)}")
            return "encap bpf " + " ".join(hooks)
        if isinstance(encap, EndBPF):
            name = self._object_name(encap.program)
            return f"encap seg6local action End.BPF endpoint obj {name}"
        if isinstance(encap, (EndB6, EndB6Encaps)):
            action = "End.B6.Encaps" if isinstance(encap, EndB6Encaps) else "End.B6"
            segs = ",".join(ntop(seg) for seg in encap.segments)
            return f"encap seg6local action {action} srh segs {segs}"
        if isinstance(encap, (EndT, EndDT6)):
            action = "End.DT6" if isinstance(encap, EndDT6) else "End.T"
            return f"encap seg6local action {action} table {encap.table_id}"
        if isinstance(encap, (EndX, EndDX6)):
            action = "End.DX6" if isinstance(encap, EndDX6) else "End.X"
            return f"encap seg6local action {action} nh6 {ntop(encap.nh6)}"
        if isinstance(encap, End):
            return "encap seg6local action End"
        return f"encap <{type(encap).__name__}>"

    def _object_name(self, program: Program) -> str:
        # Registering on show keeps the round trip honest even for
        # programs installed programmatically (node.add_route with an
        # encap object): the dumped name resolves against this registry.
        return register_object(self.objects, program)

    # -- encap parsing ------------------------------------------------------------
    def _parse_encap(self, tokens: _Tokens):
        kind = tokens.take("encap type")
        if kind == "seg6":
            return self._parse_seg6(tokens)
        if kind == "seg6local":
            return self._parse_seg6local(tokens)
        if kind == "bpf":
            return self._parse_bpf(tokens)
        raise IpRouteError(f"unknown encap type {kind!r}")

    def _parse_seg6(self, tokens: _Tokens) -> Seg6Encap:
        tokens.take_keyword("mode")
        mode = tokens.take("mode")
        if mode not in (SEG6_MODE_ENCAP, SEG6_MODE_INLINE):
            raise IpRouteError(f"unknown seg6 mode {mode!r}")
        tokens.take_keyword("segs")
        segments = tokens.take("segment list").split(",")
        return Seg6Encap(segments=segments, mode=mode)

    def _parse_seg6local(self, tokens: _Tokens):
        tokens.take_keyword("action")
        action = tokens.take("action name")
        if action == "End":
            return End()
        if action == "End.X":
            tokens.take_keyword("nh6")
            return EndX(nh6=tokens.take("nexthop"))
        if action == "End.T":
            tokens.take_keyword("table")
            return EndT(table_id=int(tokens.take("table id")))
        if action == "End.DT6":
            tokens.take_keyword("table")
            return EndDT6(table_id=int(tokens.take("table id")))
        if action == "End.DX6":
            tokens.take_keyword("nh6")
            return EndDX6(nh6=tokens.take("nexthop"))
        if action == "End.B6":
            tokens.take_keyword("srh")
            tokens.take_keyword("segs")
            return EndB6(segments=tokens.take("segment list").split(","))
        if action == "End.B6.Encaps":
            tokens.take_keyword("srh")
            tokens.take_keyword("segs")
            return EndB6Encaps(segments=tokens.take("segment list").split(","))
        if action == "End.BPF":
            tokens.take_keyword("endpoint")
            return EndBPF(self._take_object(tokens))
        raise IpRouteError(f"unknown seg6local action {action!r}")

    def _parse_bpf(self, tokens: _Tokens) -> BpfLwt:
        programs = {}
        while tokens.peek() in ("in", "out", "xmit"):
            hook = tokens.take()
            programs[f"prog_{hook}"] = self._take_object(tokens)
        if not programs:
            raise IpRouteError("encap bpf needs at least one of in/out/xmit")
        return BpfLwt(**programs)

    def _take_object(self, tokens: _Tokens) -> Program:
        tokens.take_keyword("obj")
        name = tokens.take("object name")
        # iproute2 follows with "sec <section>"; accept and ignore it.
        if tokens.peek() in ("sec", "section"):
            tokens.take()
            tokens.take("section name")
        program = self.objects.get(name)
        if program is None:
            raise IpRouteError(f"no loaded eBPF object named {name!r}")
        return program

    def _parse_nexthop(self, tokens: _Tokens) -> Nexthop:
        via = None
        dev = None
        weight = 1
        while tokens.peek() in ("via", "dev", "weight"):
            keyword = tokens.take()
            if keyword == "via":
                via = tokens.take("gateway")
            elif keyword == "dev":
                dev = tokens.take("device")
            else:
                weight = int(tokens.take("weight"))
        return Nexthop(via=via, dev=dev, weight=weight)
