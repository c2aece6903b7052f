#!/usr/bin/env python3
"""Fast reroute: surviving a link failure inside the hello dead-interval.

This walks the ``repro.ctrl`` control plane end to end on a square
topology (A—B—D primary path, A—C—D detour):

1. enable the IGP with ``net.ctrl()`` — per-node speakers exchange
   hellos and LSAs over the simulated links, run SPF, and program
   routes through the same ``ip -6 route`` plane an operator would use,
2. fail the primary link mid-flow with ``net.fail_link()`` and watch
   the loss window the hello dead-interval leaves,
3. re-run with ``frr=True``: TI-LFA backup segment lists are
   precomputed and installed at carrier loss, so only in-flight packets
   are lost.

Run:  python3 examples/frr_reroute.py
"""

from repro.lab import Network
from repro.sim.scheduler import NS_PER_MS

# Keep the example snappy: 10 ms hellos -> 40 ms dead interval.
HELLO_NS = 10 * NS_PER_MS
FAIL_MS = 300
END_MS = 900


def build(frr: bool):
    net = Network(seed=7)
    for name in ("A", "B", "C", "D"):
        net.add_node(name, addr=f"fc00:{name.lower()}::1")
    net.add_link("A", "B")  # A.eth0 — the primary path's first leg
    net.add_link("B", "D")
    net.add_link("A", "C")  # A.eth1 — the detour
    net.add_link("C", "D")
    # Prefer A—B—D: the A—B and B—D legs cost 5, the detour legs 10.
    costs = {("A", "eth0"): 5, ("B", "eth0"): 5, ("B", "eth1"): 5, ("D", "eth0"): 5}
    ctrl = net.ctrl(frr=frr, hello_interval_ns=HELLO_NS, costs=costs)
    return net, ctrl


def run_once(frr: bool) -> None:
    label = "FRR armed" if frr else "IGP only"
    net, ctrl = build(frr)
    net.run(until_ms=150)  # let the IGP converge
    assert ctrl.converged()

    route = [l for l in net.config("A", "route show") if l.startswith("fc00:d::1")]
    print(f"\n--- {label} ---")
    print(f"A's converged route: {route[0]}")

    meter = net.sink("D")
    flow = net.trafgen("A", dst="fc00:d::1", rate_bps=20e6, payload_size=1000)
    flow.start(at_ns=200 * NS_PER_MS, duration_ns=500 * NS_PER_MS)
    net.fail_link("A", "B", at_ns=FAIL_MS * NS_PER_MS)
    net.on(301 * NS_PER_MS, lambda: print(
        "  1 ms after failure: "
        + [l for l in net.config("A", "route show") if l.startswith("fc00:d::1")][0]
    ))
    net.run(until_ms=END_MS)

    lost = flow.stats.sent - meter.packets
    print(f"  failure at {FAIL_MS} ms: lost {lost}/{flow.stats.sent} packets "
          f"(dead interval {ctrl.dead_interval_ns / NS_PER_MS:.0f} ms)")
    if frr:
        fired = ctrl.bus.last("frr-fired", "A")
        print(f"  frr fired on A: repaired {fired.detail['repaired']} prefixes "
              f"via precomputed seg6 backup routes, "
              f"{fired.detail['unprotected']} left unprotected")
    final = [l for l in net.config("A", "route show") if l.startswith("fc00:d::1")]
    print(f"  after reconvergence: {final[0]}")


def main() -> None:
    print("Link-state IGP + TI-LFA fast reroute on a square topology")
    run_once(frr=False)
    run_once(frr=True)
    print("\nThe FRR pass loses only what was in flight on the failed link;")
    print("the IGP-only pass blackholes for a full detection window.")


if __name__ == "__main__":
    main()
