; §4.3 End.OAMP: query the FIB for the probe target's ECMP nexthops
; (custom helper) and report them to the prober via a perf event
; (60 SLOC in the paper's C).  Non-probe packets pass through.
; Probe geometry is fixed: IPv6 (40) + a 64-byte SRH (fixed 8 | 2
; segments | controller TLV | PadN), so the controller TLV sits at 80.
; Event record (104 bytes): count u32 | port be16 | pad | prober (16)
; | target (16) | 4 nexthops (64).
.hook seg6local
.map oamp_events, perf_event_array, entries=1
    r6 = r1
    r7 = *(u64 *)(r6 + 16)
    r8 = *(u64 *)(r6 + 24)
    r2 = r7
    r2 += 104                      ; OAMP_PROBE_MIN_LEN: IPv6 + SRH
    if r2 > r8 goto pass
    r3 = *(u8 *)(r7 + 6)
    if r3 != 43 goto pass
    r3 = *(u8 *)(r7 + 80)          ; OAMP_CTRL_TLV_OFF: TLV type byte
    if r3 != 129 goto pass         ; no controller TLV: not a probe
    ; target address = current destination (the segment after End.BPF's
    ; advance), copied to the stack for the helper
    r3 = *(u64 *)(r7 + 24)
    *(u64 *)(r10 - 112) = r3
    r3 = *(u64 *)(r7 + 32)
    *(u64 *)(r10 - 104) = r3
    r1 = r6
    r2 = r10
    r2 += -112
    r3 = r10
    r3 += -96                      ; 64-byte nexthop output buffer
    r4 = 64                        ; 16 * OAMP_MAX_NEXTHOPS
    call get_ecmp_nexthops
    ; --- event record (104 bytes at r10-216) ---
    *(u32 *)(r10 - 216) = r0       ; nexthop count
    r3 = *(u16 *)(r7 + 98)         ; OAMP_CTRL_PORT_OFF
    *(u16 *)(r10 - 212) = r3       ; prober port (wire order)
    *(u16 *)(r10 - 210) = 0
    r3 = *(u64 *)(r7 + 82)         ; OAMP_CTRL_ADDR_OFF
    *(u64 *)(r10 - 208) = r3
    r3 = *(u64 *)(r7 + 90)         ; OAMP_CTRL_ADDR_OFF + 8
    *(u64 *)(r10 - 200) = r3       ; prober address
    r3 = *(u64 *)(r10 - 112)
    *(u64 *)(r10 - 192) = r3
    r3 = *(u64 *)(r10 - 104)
    *(u64 *)(r10 - 184) = r3       ; target address
    ; --- nexthops: 8 double-words, r10-96.. -> r10-176.. ---
    r3 = *(u64 *)(r10 - 96)
    *(u64 *)(r10 - 176) = r3
    r3 = *(u64 *)(r10 - 88)
    *(u64 *)(r10 - 168) = r3
    r3 = *(u64 *)(r10 - 80)
    *(u64 *)(r10 - 160) = r3
    r3 = *(u64 *)(r10 - 72)
    *(u64 *)(r10 - 152) = r3
    r3 = *(u64 *)(r10 - 64)
    *(u64 *)(r10 - 144) = r3
    r3 = *(u64 *)(r10 - 56)
    *(u64 *)(r10 - 136) = r3
    r3 = *(u64 *)(r10 - 48)
    *(u64 *)(r10 - 128) = r3
    r3 = *(u64 *)(r10 - 40)
    *(u64 *)(r10 - 120) = r3
    r1 = r6
    r2 = oamp_events ll
    w3 = -1                        ; BPF_F_CURRENT_CPU
    r4 = r10
    r4 += -216
    r5 = 104                       ; OAMP_EVENT_SIZE
    call perf_event_output
    r0 = 2                         ; probe consumed
    exit
pass:
    r0 = 0
    exit
