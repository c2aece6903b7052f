; map-value accesses the JIT specialises (constant offset in the value,
; every width, a moved pointer, stores through a hash-map value) and one
; load reached with two different offsets, which must stay generic
.map vals, array, key=4, value=16, entries=1
.map flows, hash, key=4, value=8, entries=4
    r6 = r1
    r2 = *(u64 *)(r6 + 16)
    r3 = *(u64 *)(r6 + 24)
    r4 = r2
    r4 += 8
    if r4 > r3 goto miss
    r8 = *(u64 *)(r2 + 0)          ; eight bytes of packet
    *(u32 *)(r10 - 4) = 0
    r1 = vals ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto miss
    r7 = r0
    *(u64 *)(r7 + 8) = r8          ; fill the value from the packet
    r2 = *(u32 *)(r6 + 0)
    *(u32 *)(r7 + 4) = r2
    *(u32 *)(r7 + 0) = 0x11223344
    r1 = *(u8 *)(r7 + 15)          ; every width, ending on the last byte
    r2 = *(u16 *)(r7 + 14)
    r3 = *(u32 *)(r7 + 12)
    r4 = *(u64 *)(r7 + 8)
    r9 = r1
    r9 += r2
    r9 += r3
    r9 ^= r4
    r5 = r7                        ; a moved pointer, negative insn offset
    r5 += 12
    r3 = *(u32 *)(r5 - 12)
    r9 += r3
    *(u8 *)(r5 + 3) = r9           ; offset 15
    *(u16 *)(r5 - 2) = 0x5aa5      ; offset 10
    r5 = r7                        ; offset 0 or 4 by packet length:
    r2 = *(u32 *)(r6 + 0)
    r2 &= 1
    if r2 == 0 goto shared
    r5 += 4
shared:
    r3 = *(u32 *)(r5 + 0)          ; two offsets reach this load
    r9 += r3
    r2 = *(u32 *)(r6 + 0)          ; hash entry keyed by length
    r2 &= 3
    *(u32 *)(r10 - 4) = r2
    *(u64 *)(r10 - 16) = 1
    r1 = flows ll
    r2 = r10
    r2 += -4
    r3 = r10
    r3 += -16
    r4 = 0
    call map_update_elem
    r1 = flows ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto miss
    *(u64 *)(r0 + 0) = r9          ; stores through the hash value
    *(u8 *)(r0 + 7) = 0x7f
    r1 = *(u16 *)(r0 + 6)
    r0 = r1
    exit
miss:
    r0 = -1
    exit
