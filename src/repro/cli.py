"""An interactive CLI over a running :class:`~repro.lab.network.Network`.

The mininet-CLI idiom for the simulation: build a topology, then drive
and observe it from a prompt instead of a script::

    $ python -m repro.cli --setup square --frr
    repro> nodes
    repro> events -f
    repro> fail A B
    repro> run 200
    repro> counters A

Every command is also scriptable: ``--feed "cmd; cmd; ..."`` (or piping
lines on stdin) runs a session headlessly and exits — what the CI smoke
job and the integration tests do.  :class:`NetCli` attaches to *any*
built network, so experiments can drop into a prompt mid-script::

    NetCli(net).interact()

Commands
--------
``nodes`` / ``links``                 topology and carrier state
``routes <node> [table N]``           ``ip -6 route show`` on a node
``counters <node> [filter]``          registry view, one node, nonzero
``bpf <node>``                        attached eBPF programs + verdicts
``events [-f] [-n N]``                control-bus log (``-f`` = follow)
``sample``                            one out-of-band telemetry snapshot
``trace on|top|show|follow``          causal packet traces (``net.trace``)
``fail <a> <b> [dev]`` / ``recover``  link failure / repair
``run <ms>``                          advance the simulation
``help`` / ``exit``
"""

from __future__ import annotations

import argparse
import sys

from .lab.network import Network
from .sim.scheduler import NS_PER_MS


class CliError(Exception):
    """A command failed; the session continues."""


class NetCli:
    """A command interpreter bound to one network.

    Output goes to ``out`` (default stdout); ``script()`` feeds a list
    of command lines, ``interact()`` reads them from a stream with a
    prompt.  Unknown commands and bad arguments print an error and keep
    the session alive — only ``exit``/EOF ends it.
    """

    PROMPT = "repro> "

    def __init__(self, net: Network, out=None):
        self.net = net
        self.out = out if out is not None else sys.stdout
        self.follow = False
        self._follow_armed = False

    # -- plumbing --------------------------------------------------------------
    def _print(self, *lines: str) -> None:
        for line in lines:
            print(line, file=self.out)

    def _bus(self):
        ctrl = self.net._ctrl
        return ctrl.bus if ctrl is not None else None

    def _arm_follow(self) -> None:
        bus = self._bus()
        if bus is None:
            raise CliError("no control plane on this network (events need ctrl)")
        if not self._follow_armed:
            bus.subscribe("*", self._on_event)
            self._follow_armed = True

    def _on_event(self, event) -> None:
        if self.follow:
            self._print(str(event))

    # -- session drivers -------------------------------------------------------
    def dispatch(self, line: str) -> bool:
        """Run one command line; returns False when the session should end."""
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            return True
        cmd, args = tokens[0], tokens[1:]
        if cmd in ("exit", "quit"):
            return False
        handler = getattr(self, f"cmd_{cmd}", None)
        if handler is None:
            self._print(f"*** unknown command: {cmd} (try help)")
            return True
        try:
            handler(args)
        except CliError as exc:
            self._print(f"*** {exc}")
        except (KeyError, ValueError) as exc:
            self._print(f"*** {exc}")
        return True

    def script(self, lines) -> None:
        """Run commands from an iterable (the command-feed mode)."""
        for line in lines:
            if not self.dispatch(line):
                return

    def interact(self, stream=None) -> None:
        """Read commands from ``stream`` (default stdin), prompting on TTYs."""
        stream = stream if stream is not None else sys.stdin
        prompt = self.PROMPT if getattr(stream, "isatty", lambda: False)() else ""
        while True:
            if prompt:
                self.out.write(prompt)
                self.out.flush()
            line = stream.readline()
            if not line:  # EOF
                return
            if not self.dispatch(line):
                return

    # -- commands --------------------------------------------------------------
    def cmd_help(self, args) -> None:
        self._print(
            "nodes                      list nodes (addresses, devices, routes)",
            "links                      list links with carrier + queue state",
            "routes <node> [table N]    ip -6 route show on a node",
            "counters <node> [filter]   nonzero telemetry counters for a node",
            "bpf <node>                 attached eBPF programs and verdicts",
            "events [-f] [-n N]         control-bus events (-f follows during run)",
            "sample                     emit one telemetry snapshot now",
            "trace on [N]               arm tracing (head-sample 1-in-N flows)",
            "trace top [n]              slowest delivered packets, attributed",
            "trace show <flow:seq>      full span timeline of one trace",
            "trace follow <flow>        every trace of one flow, in order",
            "fail <a> <b> [dev]         take the a-b link down",
            "recover <a> <b> [dev]      bring the a-b link back up",
            "run <ms>                   advance the simulation by <ms> ms",
            "help                       this list",
            "exit                       leave the CLI",
        )

    def cmd_nodes(self, args) -> None:
        from .net.addr import ntop

        for name in sorted(self.net.nodes):
            node = self.net.nodes[name]
            addrs = ",".join(sorted(ntop(a) for a in node.addresses))
            routes = sum(len(t.routes()) for t in node.tables.values())
            self._print(
                f"{name:<6} addrs={addrs or '-'} devices={len(node.devices)} "
                f"routes={routes}"
            )

    def cmd_links(self, args) -> None:
        for link in self.net.links:
            a, b = link.dev_a, link.dev_b
            for endpoint, src, dst in (
                (link.a_to_b, a, b),
                (link.b_to_a, b, a),
            ):
                state = "up" if endpoint.up else "DOWN"
                self._print(
                    f"{src.node.name}.{src.name} -> {dst.node.name}.{dst.name}  "
                    f"{state:<4} queued={endpoint.queue_depth} "
                    f"sent={endpoint.stats.sent} dropped={endpoint.stats.dropped}"
                )

    def cmd_routes(self, args) -> None:
        if not args:
            raise CliError("usage: routes <node> [table N]")
        spec = "route show" + (f" {' '.join(args[1:])}" if args[1:] else "")
        for line in self.net.config(args[0], spec):
            self._print(line)

    def cmd_counters(self, args) -> None:
        if not args:
            raise CliError("usage: counters <node> [device-or-sid-filter]")
        node = self.net.node(args[0]).name  # validates the name
        needle = args[1] if len(args) > 1 else None
        shown = 0
        for sample in self.net.metrics.collect():
            labels = dict(sample.labels)
            if labels.get("node") != node:
                continue
            if needle is not None and needle not in (
                labels.get("device"),
                labels.get("sid"),
                labels.get("hook"),
            ):
                continue
            if sample.value or sample.kind == "gauge":
                self._print(f"{sample.render():<60} {sample.value}")
                shown += 1
        if not shown:
            self._print(f"(no nonzero counters on {node})")

    def cmd_bpf(self, args) -> None:
        from .net.lwt_bpf import BpfLwt
        from .net.seg6local import EndBPF
        from .telemetry.instrument import _sid_of, _sorted_routes

        if not args:
            raise CliError("usage: bpf <node>")
        node = self.net.node(args[0])
        shown = 0
        for route in _sorted_routes(node):
            encap = route.encap
            if isinstance(encap, EndBPF):
                prog = encap.program
                self._print(
                    f"{_sid_of(route):<24} End.BPF {prog.name} "
                    f"insns={prog.num_insns} runs={prog.stats.invocations} "
                    f"ok={encap.stats['ok']} drop={encap.stats['drop']} "
                    f"redirect={encap.stats['redirect']} errors={encap.stats['errors']}"
                )
                shown += 1
            elif isinstance(encap, BpfLwt):
                hooks = []
                for hook, prog in (
                    ("lwt_in", encap.prog_in),
                    ("lwt_out", encap.prog_out),
                    ("lwt_xmit", encap.prog_xmit),
                ):
                    if prog is not None:
                        runs = encap.hook_runs.get(hook, 0)
                        hooks.append(f"{hook}={prog.name}({runs})")
                self._print(
                    f"{_sid_of(route):<24} BPF-LWT {' '.join(hooks) or '-'} "
                    f"ok={encap.stats['ok']} drop={encap.stats['drop']} "
                    f"redirect={encap.stats['redirect']} errors={encap.stats['errors']}"
                )
                shown += 1
        if not shown:
            self._print(f"(no eBPF programs attached on {node.name})")

    def cmd_events(self, args) -> None:
        tail = 10
        it = iter(args)
        for arg in it:
            if arg == "-f":
                self._arm_follow()
                self.follow = not self.follow
                self._print(f"(follow {'on' if self.follow else 'off'})")
            elif arg == "-n":
                tail = int(next(it, "10"))
            else:
                raise CliError("usage: events [-f] [-n N]")
        if "-f" in args:
            return
        bus = self._bus()
        if bus is None:
            raise CliError("no control plane on this network (events need ctrl)")
        events = bus.events[-tail:] if tail else bus.events
        if not events:
            self._print("(no events yet)")
        for event in events:
            self._print(str(event))

    def cmd_sample(self, args) -> None:
        session = self.net._telemetry
        if session is None or session.closed:
            session = self.net.telemetry()
            self._print("(telemetry session started, interval 10 ms)")
        session.sample()
        self._print(session.sink.tail(1)[0])

    def _tracer(self):
        tracer = self.net._tracer
        if tracer is None:
            raise CliError("tracing is not armed (trace on [N], before traffic starts)")
        return tracer

    @staticmethod
    def _fmt_attribution(attribution: dict) -> str:
        parts = [f"{cat}={ns}" for cat, ns in sorted(attribution.items()) if ns]
        return " ".join(parts) or "-"

    def _print_record(self, rec: dict) -> None:
        self._print(
            f"{rec['id']:<12} {rec['src']}->{rec['dst']} "
            f"delay={rec['delay_ns']}ns  {self._fmt_attribution(rec['attribution'])}"
        )

    def cmd_trace(self, args) -> None:
        if not args:
            raise CliError("usage: trace on [N] | top [n] | show <flow:seq> | follow <flow>")
        sub, rest = args[0], args[1:]
        if sub == "on":
            if self.net._tracer is not None:
                self._print("(tracing already armed)")
                return
            sample = int(rest[0]) if rest else 1
            self.net.trace(sample=sample)
            self._print(f"(tracing armed, 1-in-{sample} flows)")
            return
        tracer = self._tracer()
        if sub == "top":
            n = int(rest[0]) if rest else 10
            records = tracer.top(n)
            if not records:
                self._print("(no traces recorded yet)")
            for rec in records:
                self._print_record(rec)
        elif sub == "show":
            if not rest:
                raise CliError("usage: trace show <flow:seq>")
            rec = tracer.find(rest[0])
            if rec is None:
                raise CliError(f"no trace {rest[0]!r}")
            self._print_record(rec)
            for start, end, category, where, detail in rec["spans"]:
                dur = f"+{end - start}ns" if end > start else "instant"
                tag = f" ({detail})" if detail else ""
                self._print(f"  {start:>12} {category:<16} {where:<8} {dur}{tag}")
            for time_ns, node, kind in tracer.events_for(rec):
                self._print(f"  {time_ns:>12} bus:{kind:<16} {node}")
        elif sub == "follow":
            if not rest:
                raise CliError("usage: trace follow <flow>")
            records = tracer.follow(int(rest[0]))
            if not records:
                self._print(f"(no traces for flow {rest[0]})")
            for rec in records:
                self._print_record(rec)
        else:
            raise CliError("usage: trace on [N] | top [n] | show <flow:seq> | follow <flow>")

    def _link_args(self, args, usage: str):
        if len(args) < 2:
            raise CliError(usage)
        dev = args[2] if len(args) > 2 else None
        return args[0], args[1], dev

    def cmd_fail(self, args) -> None:
        a, b, dev = self._link_args(args, "usage: fail <a> <b> [dev]")
        self.net.fail_link(a, b, dev=dev)
        self._print(f"link {a}-{b} down at {self.net.now_ns / NS_PER_MS:.3f} ms")

    def cmd_recover(self, args) -> None:
        a, b, dev = self._link_args(args, "usage: recover <a> <b> [dev]")
        self.net.recover_link(a, b, dev=dev)
        self._print(f"link {a}-{b} up at {self.net.now_ns / NS_PER_MS:.3f} ms")

    def cmd_run(self, args) -> None:
        if not args:
            raise CliError("usage: run <ms>")
        horizon = self.net.now_ns + int(float(args[0]) * NS_PER_MS)
        executed = self.net.run(until_ns=horizon)
        self._print(
            f"ran to {self.net.now_ns / NS_PER_MS:.3f} ms "
            f"({int(executed)} events)"
        )


# -- headless entry point ------------------------------------------------------


def build_network(setup: str, seed: int | None, with_ctrl: bool, frr: bool) -> Network:
    """The ``--setup`` topologies: paper setups plus the FRR square."""
    if setup == "setup1":
        from .lab.setups import Setup1Topo

        net = Setup1Topo(seed=seed).net
        costs = None
    elif setup == "setup2":
        from .lab.setups import SETUP2_IGP_COSTS, Setup2Topo

        net = Setup2Topo(seed=seed).net
        costs = SETUP2_IGP_COSTS
    elif setup == "square":
        # The examples/frr_reroute.py topology: A-B-D primary, A-C-D detour.
        net = Network(seed=seed)
        for name in ("A", "B", "C", "D"):
            net.add_node(name, addr=f"fc00:{name.lower()}::1")
        net.add_link("A", "B")
        net.add_link("B", "D")
        net.add_link("A", "C")
        net.add_link("C", "D")
        costs = {("A", "eth0"): 5, ("B", "eth0"): 5, ("B", "eth1"): 5, ("D", "eth0"): 5}
    else:
        raise ValueError(f"unknown setup {setup!r}")
    if with_ctrl:
        net.ctrl(frr=frr, hello_interval_ns=10 * NS_PER_MS, costs=costs)
    return net


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="interactive CLI over a simulated SRv6 network",
    )
    parser.add_argument(
        "--setup",
        choices=("setup1", "setup2", "square"),
        default="square",
        help="topology to build (default: the FRR square)",
    )
    parser.add_argument("--seed", type=int, default=7, help="experiment seed")
    parser.add_argument(
        "--frr", action="store_true", help="arm TI-LFA fast reroute in the IGP"
    )
    parser.add_argument(
        "--no-ctrl",
        action="store_true",
        help="skip the IGP control plane (static routes only)",
    )
    parser.add_argument(
        "--feed",
        help="semicolon-separated commands to run headlessly (else stdin)",
    )
    opts = parser.parse_args(argv)

    net = build_network(opts.setup, opts.seed, not opts.no_ctrl, opts.frr)
    cli = NetCli(net)
    if opts.feed is not None:
        cli.script(part.strip() for part in opts.feed.split(";"))
    else:
        cli.interact()
    return 0


if __name__ == "__main__":
    sys.exit(main())
