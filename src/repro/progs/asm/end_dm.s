; §4.1 End.DM: read the TX timestamp from the DM TLV and the RX
; software timestamp from the skb, push both (plus the controller
; coordinates) to user space via a perf event, then decapsulate (OWD)
; or forward the probe back to the querier (TWD).
; Probe geometry is fixed: IPv6 (40) + the 72-byte SRH dm_encap.s
; builds, so the DM TLV sits at 80 and the controller TLV at 91.
.hook seg6local
.map dm_events, perf_event_array, entries=1
    r6 = r1
    r7 = *(u64 *)(r6 + 16)
    r8 = *(u64 *)(r6 + 24)
    r2 = r7
    r2 += 112                      ; DM_PROBE_MIN_LEN: IPv6 + SRH
    if r2 > r8 goto pass
    r3 = *(u8 *)(r7 + 6)
    if r3 != 43 goto pass
    r3 = *(u8 *)(r7 + 80)          ; DM_TLV_OFF: TLV type byte
    if r3 != 128 goto pass         ; no DM TLV: not a probe
    ; --- build the 40-byte event record at r10-40 ---
    r3 = *(u64 *)(r7 + 82)         ; DM_TS_OFF: TX timestamp
    r3 = be64 r3                   ; wire big-endian -> host
    *(u64 *)(r10 - 40) = r3        ; tx_timestamp
    r1 = r6
    call skb_rx_timestamp
    *(u64 *)(r10 - 32) = r0        ; rx_timestamp
    r3 = *(u64 *)(r7 + 93)         ; DM_CTRL_ADDR_OFF
    *(u64 *)(r10 - 24) = r3
    r3 = *(u64 *)(r7 + 101)        ; DM_CTRL_ADDR_OFF + 8
    *(u64 *)(r10 - 16) = r3        ; controller address (raw copy)
    r3 = *(u16 *)(r7 + 109)        ; DM_CTRL_PORT_OFF
    *(u16 *)(r10 - 8) = r3         ; controller port (wire order)
    r3 = *(u8 *)(r7 + 90)          ; DM_KIND_OFF
    *(u8 *)(r10 - 6) = r3          ; probe kind
    *(u8 *)(r10 - 5) = 0
    *(u32 *)(r10 - 4) = 0
    r1 = r6
    r2 = dm_events ll
    w3 = -1                        ; BPF_F_CURRENT_CPU
    r4 = r10
    r4 += -40
    r5 = 40                        ; DM_EVENT_SIZE
    call perf_event_output
    r3 = *(u8 *)(r7 + 90)          ; DM_KIND_OFF
    if r3 == 1 goto twd
    ; OWD probe: decapsulate so the inner packet continues normally.
    *(u32 *)(r10 - 44) = 254       ; main table
    r1 = r6
    r2 = 7                         ; SEG6_LOCAL_ACTION_END_DT6
    r3 = r10
    r3 += -44
    r4 = 4
    call lwt_seg6_action
    if r0 != 0 goto err
    r0 = 7                         ; BPF_REDIRECT
    exit
twd:
    r0 = 0                         ; forward to the querier (next segment)
    exit
pass:
    r0 = 0
    exit
err:
    r0 = 2
    exit
