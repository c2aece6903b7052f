"""BPF LWT: eBPF programs attached to routes (the transit-side hook).

§2.1 of the paper: *"a lightweight tunnel infrastructure named BPF LWT
provides generic hooks in several network layers ... at the ingress and
the egress of the routing process"*.  The paper's delay-measurement
sampler and the hybrid-access WRR scheduler both attach here and call
``bpf_lwt_push_encap`` to wrap matching traffic in an SRH (§4.1, §4.2).

A :class:`BpfLwt` is installed as a route's ``encap``; the node runs its
``prog_in`` when the route is selected on input, and ``prog_out`` /
``prog_xmit`` on output.  Return codes follow §3.1 (OK / DROP /
REDIRECT).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ebpf import Program
from ..ebpf import jit as _jit
from ..ebpf.jit import CompiledHandler
from .packet import Packet
from .seg6local import _FORWARD, Disposition, run_attached


@dataclass
class BpfLwt:
    """Route-attached eBPF programs for the in/out/xmit LWT hooks."""

    prog_in: Program | None = None
    prog_out: Program | None = None
    prog_xmit: Program | None = None
    stats: dict = field(
        default_factory=lambda: {"ok": 0, "drop": 0, "redirect": 0, "errors": 0}
    )
    # Program runs per hook name ("lwt_in"/"lwt_out"/"lwt_xmit") — the
    # telemetry hook axis; stats above stays the aggregate verdict view.
    hook_runs: dict = field(default_factory=dict)
    # This site's handlers, one per hook that has run (see run_hook).
    _handlers: dict = field(default_factory=dict, repr=False, compare=False)

    def has_output_stage(self) -> bool:
        """True when a program is attached to lwt_out or lwt_xmit."""
        return self.prog_out is not None or self.prog_xmit is not None

    def run_hook(self, hook: str, pkt: Packet, node) -> Disposition:
        """Execute the program bound to ``hook``; default is pass-through.

        Each hook owns its :class:`~repro.ebpf.jit.CompiledHandler` — built
        on the hook's first packet, rebuilt when the hook's program is
        replaced or :func:`~repro.ebpf.jit.clear_handler_cache` ran since —
        and the program runs through
        :func:`~repro.net.seg6local.run_attached`, as End.BPF's does.
        """
        if hook == "lwt_in":
            program = self.prog_in
        elif hook == "lwt_out":
            program = self.prog_out
        elif hook == "lwt_xmit":
            program = self.prog_xmit
        else:
            program = None
        if program is None:
            return _FORWARD
        self.hook_runs[hook] = self.hook_runs.get(hook, 0) + 1
        tctx = pkt.tctx
        if tctx is not None:
            t = node.clock_ns()
            tctx.append((t, t, "ebpf", node.name, f"{hook}/{program.name}"))

        handler = self._handlers.get(hook)
        if (
            handler is None
            or handler.program is not program
            or handler.cache_generation != _jit._HANDLER_CACHE_GENERATION
        ):
            handler = self._handlers[hook] = CompiledHandler(program, hook)
        return run_attached(handler, self.stats, pkt, node)
