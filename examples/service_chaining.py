#!/usr/bin/env python3
"""Service function chaining with SRv6 policies (the paper's SFC motivation).

The introduction motivates End.BPF with NFV/SFC: assign an address to
each network function and steer flows through them with segments.  This
example builds a small chain:

    client ── ingress ── [fw: eBPF firewall] ── [ctr: eBPF counter] ── server

* the *ingress* applies an ``End.B6``-style SRv6 policy (via the static
  seg6 encap lwtunnel) steering server-bound traffic through the two
  function segments;
* ``fw`` is an End.BPF program that drops UDP flows whose destination
  port is found in a *blocklist map* — reconfigured live from "user
  space", no recompilation, no reload;
* ``ctr`` is an End.BPF program counting packets per flow label.

Run:  python3 examples/service_chaining.py
"""

from repro.ebpf import ArrayMap, HashMap, Program
from repro.lab import Network
from repro.net import (
    SEG6LOCAL_HELPERS,
    make_udp_packet,
)

FW_SEG = "fc00:f1::bbbb"
CTR_SEG = "fc00:f2::cccc"
DECAP_SEG = "fc00:f2::dddd"  # End.DT6 at the chain egress (co-located with ctr)

# Firewall: parse the inner UDP destination port (through the outer IPv6
# + SRH + inner IPv6 at fixed probe-free offsets), look it up in a hash
# map, drop on hit.  Geometry: outer IPv6 (40) + 3-segment SRH (56) +
# inner IPv6 (40) + UDP -> dst port at byte 138.
FIREWALL_SOURCE = """
    r6 = r1
    r7 = *(u64 *)(r6 + 16)
    r8 = *(u64 *)(r6 + 24)
    r2 = r7
    r2 += 144
    if r2 > r8 goto pass       ; too short: not our traffic shape
    r3 = *(u8 *)(r7 + 6)
    if r3 != 43 goto pass
    r4 = *(u16 *)(r7 + 138)    ; inner UDP destination port (wire order)
    *(u16 *)(r10 - 2) = r4
    r1 = blocklist ll
    r2 = r10
    r2 += -2
    call map_lookup_elem
    if r0 == 0 goto pass
    r0 = 2                     ; port is blocked -> BPF_DROP
    exit
pass:
    r0 = 0
    exit
"""

# Counter: bump a per-inner-flow-label counter in an array map.  The
# outer (encap) header always carries label 0, so the program reads the
# *inner* IPv6 header at offset 96 (outer 40 + 3-segment SRH 56).
COUNTER_SOURCE = """
    r6 = r1
    r7 = *(u64 *)(r6 + 16)
    r8 = *(u64 *)(r6 + 24)
    r2 = r7
    r2 += 100
    if r2 > r8 goto out
    r3 = *(u32 *)(r7 + 96)     ; first word of the inner IPv6 header
    r3 = be32 r3
    r3 &= 0xff                 ; low bits of the flow label as the key
    r3 &= 7
    *(u32 *)(r10 - 4) = r3
    r1 = flow_counts ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r1 = *(u64 *)(r0 + 0)
    r1 += 1
    *(u64 *)(r0 + 0) = r1
out:
    r0 = 0
    exit
"""


def build():
    net = Network()
    ingress = net.add_node("ingress", addr="fc00:10::1", devices=("in", "out"))
    fw = net.add_node("fw", addr="fc00:f1::1", devices=("in", "out"))
    ctr = net.add_node("ctr", addr="fc00:f2::1", devices=("in", "out"))

    # Ingress steers server-bound traffic through the chain: an SRv6
    # policy declared in the operator syntax, via the config plane.
    net.config(
        "ingress",
        f"route add fc00:99::/64 encap seg6 mode encap segs {FW_SEG},{CTR_SEG},{DECAP_SEG}",
    )
    net.config("ingress", f"route add {FW_SEG}/128 via fc00:f1::1 dev out")

    blocklist = HashMap("blocklist", key_size=2, value_size=1, max_entries=64)
    net.load("sfc_firewall", Program(
        FIREWALL_SOURCE, maps={"blocklist": blocklist},
        name="sfc_firewall", allowed_helpers=SEG6LOCAL_HELPERS,
    ))
    net.config(
        "fw",
        f"route add {FW_SEG}/128 encap seg6local action End.BPF endpoint obj sfc_firewall",
    )
    net.config("fw", f"route add {CTR_SEG}/128 via fc00:f2::1 dev out")

    flow_counts = ArrayMap("flow_counts", value_size=8, max_entries=8)
    ctr_prog = Program(
        COUNTER_SOURCE, maps={"flow_counts": flow_counts},
        name="sfc_counter", allowed_helpers=SEG6LOCAL_HELPERS,
    )
    net.attach("ctr", CTR_SEG, ctr_prog)  # programmatic twin of the config form
    net.config("ctr", f"route add {DECAP_SEG}/128 encap seg6local action End.DT6 table 254")
    net.config("ctr", "route add fc00:99::/64 via fc00:99::2 dev out")
    return ingress, fw, ctr, blocklist, flow_counts


def send_chain(ingress, fw, ctr, port: int, flow_label: int = 0):
    """Drive one packet through the three nodes; True if it came out."""
    pkt = make_udp_packet(
        "fc00:1::1", "fc00:99::2", 40000, port, b"data", flow_label=flow_label
    )
    ingress.receive(pkt, ingress.devices["in"])
    if not ingress.devices["out"].tx_buffer:
        return False
    fw.receive(ingress.devices["out"].tx_buffer.pop(), fw.devices["in"])
    if not fw.devices["out"].tx_buffer:
        return False
    ctr.receive(fw.devices["out"].tx_buffer.pop(), ctr.devices["in"])
    out = ctr.devices["out"].tx_buffer
    return bool(out) and out.pop().srh() is None  # decapped plain IPv6


def main() -> None:
    ingress, fw, ctr, blocklist, flow_counts = build()
    print("chain: ingress ->", FW_SEG, "->", CTR_SEG, "->", DECAP_SEG, "-> server\n")

    delivered = sum(send_chain(ingress, fw, ctr, 8080, i) is not False for i in range(6))
    print(f"before blocking: 6 packets to :8080 -> {delivered} traversed the chain")

    # Live reconfiguration from "user space": block port 8080.
    blocklist.update((8080).to_bytes(2, "big"), b"\x01")
    blocked = sum(not send_chain(ingress, fw, ctr, 8080, i) for i in range(6))
    passed = sum(bool(send_chain(ingress, fw, ctr, 9090, i)) is not False for i in range(4))
    print(f"after blocking :8080 via the map: {blocked}/6 dropped at fw, "
          f"while :9090 traffic still flows")

    print("\nper-flow-label counters at the ctr function:")
    for label in range(4):
        raw = flow_counts.lookup(label.to_bytes(4, "little"))
        print(f"  label {label}: {int.from_bytes(raw, 'little')} packets")


if __name__ == "__main__":
    main()
