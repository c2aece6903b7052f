"""An eBPF virtual machine: ISA, assembler, verifier, interpreter, JIT, maps.

This package is the in-kernel-VM substrate of the reproduction (§2.1 of
the paper).  The public surface mirrors how one interacts with kernel
eBPF:

>>> from repro.ebpf import Program, ArrayMap
>>> counter = ArrayMap("hits", value_size=8, max_entries=1)
>>> prog = Program('''
...     r6 = r1                   ; save ctx
...     r1 = 0
...     *(u32 *)(r10 - 4) = r1    ; key = 0
...     r1 = hits ll
...     r2 = r10
...     r2 += -4
...     call map_lookup_elem
...     if r0 == 0 goto out
...     r1 = *(u64 *)(r0 + 0)
...     r1 += 1
...     *(u64 *)(r0 + 0) = r1     ; *value += 1
... out:
...     r0 = 0
...     exit
... ''', maps={"hits": counter})
>>> ret, _ = prog.run_on_packet(b"\\x60" + b"\\x00" * 39)
>>> int.from_bytes(counter.lookup((0).to_bytes(4, "little")), "little")
1
"""

from .context import SkbContext
from .disasm import disassemble
from .errors import (
    AsmError,
    BpfError,
    EncodingError,
    HelperError,
    LinkError,
    MapError,
    MemoryFault,
    VerifierError,
    VmFault,
)
from .helpers import (
    HELPER_IDS_BY_NAME,
    HELPER_NAMES_BY_ID,
    HELPERS_BY_ID,
    Helper,
    HelperContext,
    register_helper,
)
from .insn import Instruction, decode_program, encode_program
from .jit import CompiledHandler, JitProgram
from .maps import (
    ArrayMap,
    HashMap,
    LpmTrieMap,
    Map,
    PerCpuArrayMap,
    PerfEventArrayMap,
)
from .memory import Memory, Region
from .program import Program
from .text import LinkedProgram, TextObject, link, load_text, parse_asm
from .verifier import Verifier
from .vm import Interpreter

# LWT program return codes (include/uapi/linux/bpf.h).
BPF_OK = 0
BPF_DROP = 2
BPF_REDIRECT = 7

__all__ = [
    "AsmError",
    "ArrayMap",
    "BPF_DROP",
    "BPF_OK",
    "BPF_REDIRECT",
    "BpfError",
    "CompiledHandler",
    "EncodingError",
    "HELPERS_BY_ID",
    "HELPER_IDS_BY_NAME",
    "HELPER_NAMES_BY_ID",
    "HashMap",
    "Helper",
    "HelperContext",
    "HelperError",
    "Instruction",
    "Interpreter",
    "JitProgram",
    "LinkError",
    "LinkedProgram",
    "LpmTrieMap",
    "Map",
    "MapError",
    "Memory",
    "MemoryFault",
    "PerCpuArrayMap",
    "PerfEventArrayMap",
    "Program",
    "Region",
    "SkbContext",
    "TextObject",
    "Verifier",
    "VerifierError",
    "VmFault",
    "decode_program",
    "disassemble",
    "encode_program",
    "link",
    "load_text",
    "parse_asm",
    "register_helper",
]
