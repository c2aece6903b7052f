#!/usr/bin/env python3
"""§4.1 — Passive one-way delay monitoring with End.DM.

Builds the paper's setup 1 (S1 — R — S2), then monitors the S1→S2 path:

* S1 (head-end) runs a BPF LWT program that encapsulates 1 in N packets
  with an SRH carrying a Delay-Measurement TLV; half way through, N is
  lowered by rewriting the program's config map, without a reload;
* R forwards;
* S2's router side runs ``End.DM`` (an End.BPF program) which timestamps
  reception, reports both timestamps to a collector through a perf event
  and a 100-SLOC-class user-space daemon, and decapsulates.

The measured one-way delays are compared against the topology's actual
path latency.

Run:  python3 examples/delay_monitoring.py
"""

from repro.lab import build_setup1
from repro.sim import mbps
from repro.sim.scheduler import NS_PER_MS, NS_PER_SEC
from repro.usecases import deploy_owd_monitoring


def main() -> None:
    setup = build_setup1()
    net = setup.net

    # Give the S1—R link a tangible latency so there is something to measure.
    for endpoint in (setup.links[0].a_to_b, setup.links[0].b_to_a):
        endpoint.delay_ns = 3 * NS_PER_MS

    dm_segment = "fc00:2::dd"  # End.DM segment on the path's tail (S2 side)
    handles = deploy_owd_monitoring(
        head=setup.s1,
        tail=setup.s2,
        controller_node=setup.s1,  # collector co-located with the head-end
        monitored_prefix="fc00:2::/64",
        dm_segment=dm_segment,
        controller_addr="fc00:1::1",
        ratio=100,  # the paper's 1:100 probing ratio
        via="fc00:1::ff",
        dev="eth0",
    )
    # The tail must still be reachable: routes for the DM segment.
    net.config("R", f"ip -6 route add {dm_segment}/128 via fc00:2::2 dev eth1")
    handles.daemon.start(net.scheduler, interval_ns=5 * NS_PER_MS)

    # Sink + traffic: 200 Mb/s of plain IPv6 UDP for one second, probed
    # at 1:100 for the first half and at 1:20 for the second.
    meter = net.sink("S2", port=5201, name="sink")
    flow = net.trafgen("S1", dst="fc00:2::2", rate_bps=200e6, payload_size=512)
    flow.start(duration_ns=NS_PER_SEC)
    net.run(until_ns=NS_PER_SEC // 2)
    sent_at_100 = flow.stats.sent
    handles.sampler.set_ratio(20)
    net.run(until_ns=int(1.2 * NS_PER_SEC))

    samples = handles.collector.samples
    expected = sent_at_100 // 100 + (flow.stats.sent - sent_at_100) // 20
    print(f"traffic: {flow.stats.sent} packets sent, "
          f"{meter.packets} delivered ({mbps(meter.goodput_bps()):.1f} Mb/s)")
    print(f"probes: {len(samples)} delay reports at ratio 1:100, then 1:20 "
          f"(expected ≈ {expected})")
    if samples:
        mean_ms = handles.collector.mean_delay_ns() / NS_PER_MS
        print(f"mean one-way delay: {mean_ms:.3f} ms "
              "(expect ≈ 3 ms propagation + serialisation/queueing)")
        worst = max(s.delay_ns for s in samples) / NS_PER_MS
        best = min(s.delay_ns for s in samples) / NS_PER_MS
        print(f"min/max: {best:.3f} / {worst:.3f} ms")


if __name__ == "__main__":
    main()
