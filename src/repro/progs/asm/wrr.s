; §4.2 per-packet Weighted Round-Robin scheduler (120 SLOC in the
; paper's C).  State (credits + per-link packet counts) lives in a map;
; the chosen link's segment is pushed as an outer SRH (24 bytes: fixed 8
; + one segment), and the peer's native End.DT6 decapsulates.
.hook lwt
.map wrr_config, array, key=4, value=40, entries=1
.map wrr_state, array, key=4, value=16, entries=1
    r6 = r1
    *(u32 *)(r10 - 4) = 0
    r1 = wrr_config ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r7 = r0                        ; config
    *(u32 *)(r10 - 4) = 0
    r1 = wrr_state ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r8 = r0                        ; state
    r1 = *(u32 *)(r8 + 0)          ; credits link0
    r2 = *(u32 *)(r8 + 4)          ; credits link1
    r3 = r1
    r3 |= r2
    if r3 != 0 goto pick
    r1 = *(u32 *)(r7 + 32)         ; refill from weights
    r2 = *(u32 *)(r7 + 36)
pick:
    if r1 >= r2 goto use0
    r2 -= 1                        ; send on link1
    *(u32 *)(r8 + 0) = r1
    *(u32 *)(r8 + 4) = r2
    r4 = *(u32 *)(r8 + 12)
    r4 += 1
    *(u32 *)(r8 + 12) = r4
    r3 = *(u64 *)(r7 + 16)         ; segment of link1
    *(u64 *)(r10 - 24) = r3
    r3 = *(u64 *)(r7 + 24)
    *(u64 *)(r10 - 16) = r3
    goto build
use0:
    r1 -= 1                        ; send on link0
    *(u32 *)(r8 + 0) = r1
    *(u32 *)(r8 + 4) = r2
    r4 = *(u32 *)(r8 + 8)
    r4 += 1
    *(u32 *)(r8 + 8) = r4
    r3 = *(u64 *)(r7 + 0)          ; segment of link0
    *(u64 *)(r10 - 24) = r3
    r3 = *(u64 *)(r7 + 8)
    *(u64 *)(r10 - 16) = r3
build:
    *(u8 *)(r10 - 32) = 41         ; next header: IPv6
    *(u8 *)(r10 - 31) = 2          ; hdr_ext_len: 24 / 8 - 1
    *(u8 *)(r10 - 30) = 4          ; routing type
    *(u8 *)(r10 - 29) = 0          ; segments_left = 0 (direct to decap)
    *(u8 *)(r10 - 28) = 0          ; last_entry
    *(u8 *)(r10 - 27) = 0          ; flags
    *(u16 *)(r10 - 26) = 0         ; tag
    r1 = r6
    r2 = 0                         ; BPF_LWT_ENCAP_SEG6
    r3 = r10
    r3 += -32
    r4 = 24
    call lwt_push_encap
out:
    r0 = 0
    exit
