; BPF counterpart of End.T (§3.2): delegate to the native behaviour
; through bpf_lwt_seg6_action (table 254, the main table) and skip the
; default lookup (4 SLOC in C).
.hook seg6local
    r6 = r1
    *(u32 *)(r10 - 4) = 254        ; u32 table id parameter
    r1 = r6
    r2 = 3                         ; SEG6_LOCAL_ACTION_END_T
    r3 = r10
    r3 += -4
    r4 = 4
    call lwt_seg6_action
    if r0 != 0 goto err
    r0 = 7                         ; BPF_REDIRECT: lookup already done
    exit
err:
    r0 = 2                         ; BPF_DROP
    exit
