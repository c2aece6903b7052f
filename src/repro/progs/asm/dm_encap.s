; §4.1 transit behaviour: for 1 out of `ratio` IPv6 packets, build an
; SRH with a Delay-Measurement TLV and a controller TLV on the stack
; and encapsulate the packet with it (130 SLOC in the paper's C).
; The SRH is 72 bytes (DM_SRH_LEN): fixed 8 | 2 segments | DM TLV (11)
; | controller TLV (20) | Pad1, built at r10-80.  dm_config value:
; DM segment (16) | controller (16) | port be16 | kind u8 | pad | ratio u32.
.hook lwt
.map dm_config, array, key=4, value=40, entries=1
    r6 = r1
    r7 = *(u64 *)(r6 + 16)
    r8 = *(u64 *)(r6 + 24)
    r2 = r7
    r2 += 40                       ; need the full inner IPv6 header
    if r2 > r8 goto out
    r3 = *(u8 *)(r7 + 6)
    if r3 == 43 goto out           ; only *regular* IPv6: skip SRv6 traffic
    *(u32 *)(r10 - 4) = 0
    r1 = dm_config ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r9 = r0                        ; r9 = config
    call get_prandom_u32
    r3 = *(u32 *)(r9 + 36)         ; probing ratio
    if r3 == 0 goto out            ; ratio 0: sampling disabled
    r0 %= r3
    if r0 != 0 goto out            ; not sampled
    ; --- SRH fixed part (offsets relative to r10-80) ---
    *(u8 *)(r10 - 80) = 41         ; next header: IPv6 (outer encap)
    *(u8 *)(r10 - 79) = 8          ; hdr_ext_len: 72 / 8 - 1
    *(u8 *)(r10 - 78) = 4          ; routing type: SRH
    *(u8 *)(r10 - 77) = 1          ; segments_left
    *(u8 *)(r10 - 76) = 1          ; last_entry
    *(u8 *)(r10 - 75) = 0          ; flags
    *(u16 *)(r10 - 74) = 0         ; tag
    ; --- segments[0] = inner destination (final segment) ---
    r3 = *(u64 *)(r7 + 24)
    *(u64 *)(r10 - 72) = r3
    r3 = *(u64 *)(r7 + 32)
    *(u64 *)(r10 - 64) = r3
    ; --- segments[1] = the End.DM segment (first segment) ---
    r3 = *(u64 *)(r9 + 0)
    *(u64 *)(r10 - 56) = r3
    r3 = *(u64 *)(r9 + 8)
    *(u64 *)(r10 - 48) = r3
    ; --- DM TLV: type 0x80, len 9, timestamp + kind ---
    *(u8 *)(r10 - 40) = 128
    *(u8 *)(r10 - 39) = 9
    call ktime_get_ns              ; TX software timestamp
    r0 = be64 r0
    *(u64 *)(r10 - 38) = r0
    r3 = *(u8 *)(r9 + 34)          ; probe kind (OWD / TWD)
    *(u8 *)(r10 - 30) = r3
    ; --- controller TLV: type 0x81, len 18, addr + port ---
    *(u8 *)(r10 - 29) = 129
    *(u8 *)(r10 - 28) = 18
    r3 = *(u64 *)(r9 + 16)
    *(u64 *)(r10 - 27) = r3
    r3 = *(u64 *)(r9 + 24)
    *(u64 *)(r10 - 19) = r3
    r3 = *(u16 *)(r9 + 32)
    *(u16 *)(r10 - 11) = r3
    *(u8 *)(r10 - 9) = 0           ; Pad1
    ; --- encapsulate ---
    r1 = r6
    r2 = 0                         ; BPF_LWT_ENCAP_SEG6 (outer)
    r3 = r10
    r3 += -80
    r4 = 72                        ; DM_SRH_LEN
    call lwt_push_encap
out:
    r0 = 0
    exit
