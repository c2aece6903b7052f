; three blocks chained by unconditional jumps to the next one
    r7 = 1
    goto middle
middle:
    r7 += 2
    goto finish
finish:
    r0 = r7
    exit
