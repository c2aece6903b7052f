; a conditional branch forward into the program's tail
    r1 = *(u32 *)(r1 + 0)
    if r1 > 60 goto tail
    r0 = 1
    exit
tail:
    r0 = 2
    exit
