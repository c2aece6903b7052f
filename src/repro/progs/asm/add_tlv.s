; "Add TLV" (§3.2): grow the SRH TLV area by 8 bytes with
; bpf_lwt_seg6_adjust_srh, then fill it with a valid opaque TLV via
; bpf_lwt_seg6_store_bytes (~60 SLOC in C).
.hook seg6local
    r6 = r1
    r7 = *(u64 *)(r6 + 16)
    r8 = *(u64 *)(r6 + 24)
    r2 = r7
    r2 += 48
    if r2 > r8 goto out
    r3 = *(u8 *)(r7 + 6)
    if r3 != 43 goto out
    r3 = *(u8 *)(r7 + 42)
    if r3 != 4 goto out
    r9 = *(u8 *)(r7 + 41)          ; hdr_ext_len
    r9 += 1
    r9 <<= 3
    r9 += 40                       ; r9 = end of SRH = end of TLV area
    r1 = r6
    r2 = r9
    r3 = 8
    call lwt_seg6_adjust_srh
    if r0 != 0 goto out
    *(u8 *)(r10 - 8) = 10          ; TLV type: opaque container
    *(u8 *)(r10 - 7) = 6           ; TLV length
    *(u32 *)(r10 - 6) = 0x6f727065 ; value bytes
    *(u16 *)(r10 - 2) = 0
    r1 = r6
    r2 = r9
    r3 = r10
    r3 += -8
    r4 = 8
    call lwt_seg6_store_bytes
out:
    r0 = 0
    exit
