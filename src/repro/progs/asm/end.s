; BPF counterpart of End (§3.2): return BPF_OK, let the default lookup
; forward the packet along the next segment.  One source line in its
; body, as in the paper.
.hook seg6local
    r0 = 0
    exit
