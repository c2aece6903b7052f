#!/usr/bin/env python3
"""§4.2 — Hybrid access networks: bonding two unequal links with SRv6-BPF.

Reproduces the section's storyline on the paper's setup 2 topology
(50 Mb/s @ 30±5 ms RTT + 30 Mb/s @ 5±2 ms RTT):

1. UDP over the eBPF WRR scheduler aggregates both links' bandwidth,
   and rewriting the weights in its config map rebalances the bond
   mid-run without reloading the program;
2. TCP over the same bond collapses (the paper measured 3.8 Mb/s of the
   80 Mb/s aggregate) because the delay gap reorders segments;
3. the TWD-probing daemon compensates the fast path with a netem delay,
   and TCP recovers to near the aggregate (paper: 68 Mb/s single flow,
   70 Mb/s with four).

The CPE M runs with the Turris Omnia's CPU cost model attached (the
§4.2 bottleneck); each run prints the share of time M's CPU was busy.

Run:  python3 examples/hybrid_access.py        (~1 minute)
"""

from repro.lab import build_setup2
from repro.sim import CostModel, mbps
from repro.sim.scheduler import NS_PER_SEC
from repro.usecases import deploy_hybrid_access

WARMUP_S = 2
DURATION_S = 8


def build():
    """Setup 2 with a Turris Omnia CPU on the CPE: net.cpu is the one door."""
    setup = build_setup2()
    setup.net.cpu("M", CostModel())
    return setup


def cpu_busy(setup) -> str:
    """The share of the run so far that the CPE's CPU spent busy."""
    return f"CPE CPU busy {setup.m.cpu.stats.busy_ns / setup.net.now_ns:.1%}"


def run_udp() -> None:
    setup = build()
    net = setup.net
    hybrid = deploy_hybrid_access(setup, weights=(5, 3))
    meter = net.sink("S2", port=5201, name="client")
    flow = net.trafgen("S1", dst="fc00:2::2", rate_bps=200e6, payload_size=1400)
    flow.start(duration_ns=2 * NS_PER_SEC)
    net.run(until_ns=NS_PER_SEC)
    _c0, _c1, pkts0, pkts1 = hybrid.wrr_down.counters()
    print(f"UDP over the bond:  {mbps(meter.goodput_bps()):5.1f} Mb/s goodput "
          f"(80 Mb/s aggregate)")
    print(f"  WRR split: {pkts0} on the 50 Mb/s link, {pkts1} on the 30 Mb/s "
          f"link  (ratio {pkts0 / max(pkts1, 1):.2f}, configured 5:3 = 1.67)")
    # Rebalance at 1 s: the program reads its weights from the config
    # map per packet, so a map update takes effect without a reload.
    hybrid.wrr_down.set_weights(1, 1)
    net.run(until_ns=int(2.5 * NS_PER_SEC))
    _c0, _c1, now0, now1 = hybrid.wrr_down.counters()
    new0, new1 = now0 - pkts0, now1 - pkts1
    print(f"  set_weights(1, 1) at 1 s: {new0} / {new1} since  (ratio "
          f"{new0 / max(new1, 1):.2f}, configured 1:1 = 1.00)")
    print(f"  {cpu_busy(setup)}")


def run_tcp(compensation: bool, flows: int) -> float:
    setup = build()
    net = setup.net
    hybrid = deploy_hybrid_access(setup, weights=(5, 3), compensation=compensation)
    connections = [net.tcp("S1", "S2", port=5000 + i) for i in range(flows)]
    # Let the TWD daemon converge before starting the flows.
    net.run(until_ns=WARMUP_S * NS_PER_SEC)
    for sender, _receiver in connections:
        sender.start()
    net.run(until_ns=(WARMUP_S + DURATION_S) * NS_PER_SEC)
    total = sum(mbps(receiver.goodput_bps()) for _s, receiver in connections)

    label = "with delay compensation" if compensation else "no compensation  "
    sender = connections[0][0]
    print(f"TCP x{flows} ({label}): {total:5.1f} Mb/s | "
          f"fast rtx {sender.stats.fast_retransmits}, "
          f"reorder events absorbed {sender.stats.spurious_avoided} | {cpu_busy(setup)}")
    if compensation and hybrid.daemon is not None:
        print(f"  daemon: compensating link {hybrid.daemon.compensated_link} "
              f"by {hybrid.daemon.applied_delay_ns / 1e6:.1f} ms "
              f"(measured RTTs: "
              f"{[round(x / 1e6, 1) if x else None for x in hybrid.daemon.rtt_ewma_ns]} ms)")
    return total


def main() -> None:
    print("=== Hybrid access link aggregation (paper §4.2) ===\n")
    run_udp()
    print()
    disaster = run_tcp(compensation=False, flows=1)
    fixed = run_tcp(compensation=True, flows=1)
    four = run_tcp(compensation=True, flows=4)
    print(f"\nsummary: disaster {disaster:.1f} Mb/s -> compensated "
          f"{fixed:.1f} Mb/s (x{fixed / max(disaster, 0.1):.0f}), "
          f"4 flows {four:.1f} Mb/s")
    print("paper:   disaster 3.8 Mb/s -> compensated 68 Mb/s, 4 flows 70 Mb/s")


if __name__ == "__main__":
    main()
