#!/usr/bin/env python3
"""Quickstart: write an SRv6 network function in eBPF and run it.

This walks the full End.BPF pipeline from §3 of the paper:

1. write a small eBPF program (here: count packets per SRH tag in a map
   and stamp the packet mark),
2. load it — assembling, relocating the map, and passing the verifier,
3. install it as a ``seg6local End.BPF`` action on a router segment,
4. push SRv6 traffic through the router and watch the function run.

Run:  python3 examples/quickstart.py
"""

from repro.ebpf import ArrayMap, Program, disassemble
from repro.lab import Network
from repro.net import make_srv6_udp_packet, ntop

# An eBPF program: read the SRH tag from the packet (verified bounds
# check against data_end), use it as an index into an array map, and
# increment the per-tag packet counter.
COUNT_BY_TAG = """
.hook seg6local                ; End.BPF: the seg6local helper set
    r6 = r1                    ; save ctx
    r7 = *(u64 *)(r6 + 16)     ; data
    r8 = *(u64 *)(r6 + 24)     ; data_end
    r2 = r7
    r2 += 48                   ; IPv6 header + SRH fixed part
    if r2 > r8 goto out        ; too short: pass through
    r3 = *(u8 *)(r7 + 6)
    if r3 != 43 goto out       ; no routing header
    r4 = *(u16 *)(r7 + 46)     ; SRH tag (wire big-endian)
    r4 = be16 r4
    r4 &= 7                    ; clamp to the map size
    *(u32 *)(r10 - 4) = r4     ; key on the stack
    r1 = tag_counters ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r1 = *(u64 *)(r0 + 0)
    r1 += 1
    *(u64 *)(r0 + 0) = r1      ; *counter += 1 through the value pointer
out:
    r0 = 0                     ; BPF_OK: forward along the next segment
    exit
"""


def main() -> None:
    # 1. Create the map and load the program (this runs the verifier).
    counters = ArrayMap("tag_counters", value_size=8, max_entries=8)
    prog = Program(
        COUNT_BY_TAG,
        maps={"tag_counters": counters},
        name="count_by_tag",
    )
    print(f"loaded {prog.name!r}: {prog.num_insns} instructions, verifier OK")
    print("--- disassembly ---")
    print(disassemble(prog.insns))

    # 2. Build a router with the declarative builder and bind the program
    #    to a local segment through the iproute2-style config plane —
    #    the same command an operator would type on the paper's testbed.
    net = Network()
    router = net.add_node("R", addr="fc00:e::1", devices=("eth0", "eth1"))
    net.load("count_by_tag", prog)
    net.config("R", "ip -6 route add fc00:2::/64 via fc00:2::1 dev eth1")
    net.config(
        "R",
        "ip -6 route add fc00:e::100/128 "
        "encap seg6local action End.BPF endpoint obj count_by_tag",
    )
    print("installed End.BPF at fc00:e::100")

    # 3. Send SRv6 packets through segment fc00:e::100 toward fc00:2::2.
    for i in range(20):
        pkt = make_srv6_udp_packet(
            src="fc00:1::1",
            path=["fc00:e::100", "fc00:2::2"],
            src_port=4000 + i,
            dst_port=5201,
            payload=b"x" * 64,
            tag=i % 3,  # three different SRH tags
        )
        router.receive(pkt, router.devices["eth0"])

    # 4. Inspect results: forwarded packets and the map state.
    out = router.devices["eth1"].tx_buffer
    print(f"\nrouter forwarded {len(out)} packets")
    first = out[0]
    srh, _ = first.srh()
    print(f"first packet now heads to {ntop(first.dst)} (SRH advanced: {srh})")
    print("\nper-tag counters (shared kernel/user state):")
    for tag in range(3):
        raw = counters.lookup(tag.to_bytes(4, "little"))
        print(f"  tag {tag}: {int.from_bytes(raw, 'little')} packets")


if __name__ == "__main__":
    main()
