; "Tag++" (§3.2, ~50 SLOC in C): fetch the SRH tag, increment it, write
; it back via the indirect-write helper (the SRH fixed fields are read
; through verified packet pointers; the store goes through the helper).
.hook seg6local
    r6 = r1
    r7 = *(u64 *)(r6 + 16)         ; data
    r8 = *(u64 *)(r6 + 24)         ; data_end
    r2 = r7
    r2 += 48                       ; IPv6 header + SRH fixed part
    if r2 > r8 goto out
    r3 = *(u8 *)(r7 + 6)
    if r3 != 43 goto out           ; no routing header
    r3 = *(u8 *)(r7 + 42)
    if r3 != 4 goto out            ; not an SRH
    r4 = *(u16 *)(r7 + 46)         ; tag (wire big-endian)
    r4 = be16 r4                   ; to host order
    r4 += 1
    r4 &= 0xffff
    r4 = be16 r4                   ; back to wire order
    *(u16 *)(r10 - 8) = r4
    r1 = r6
    r2 = 46                        ; byte offset of the tag in the packet
    r3 = r10
    r3 += -8
    r4 = 2
    call lwt_seg6_store_bytes
out:
    r0 = 0
    exit
