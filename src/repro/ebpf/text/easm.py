"""Kernel-style eBPF text assembler (the ``.s`` frontend).

The accepted syntax is the assignment form used by the kernel's
instruction-set documentation and by LLVM's BPF backend, extended with
two directives: the hook the program is written for and its maps::

    ; comments: ';', '//' or '#'
    .hook seg6local                ; helper set the program is written for
    .map counters, array, key=4, value=8, entries=1

    entry:
        r6 = r1                    ; alu64 register move
        w2 = 10                    ; 'w' registers select the 32-bit class
        r2 += r3                   ; +=, -=, *=, /=, %=, &=, |=, ^=,
        r0 s>>= 2                  ;   <<=, >>=, s>>= (arithmetic shift)
        r2 = -r2                   ; negate (dst must equal src)
        r4 = be16 r4               ; be16/be32/be64/le16/le32/le64
        r3 = *(u32 *)(r1 + 16)     ; loads: u8, u16, u32, u64
        *(u64 *)(r10 - 8) = r3     ; register store
        *(u32 *)(r10 - 4) = 0      ; immediate store
        r1 = 0x1122334455 ll       ; 64-bit immediate (two slots)
        r1 = counters ll           ; map-symbol load, relocated at link
        if r2 > r8 goto out        ; ==, !=, <, <=, >, >=,
        if w3 s< -2 goto out       ;   s<, s<=, s>, s>= (signed), & (jset)
        goto out                   ; unconditional jump
        call map_lookup_elem       ; helper, by name or number
        exit

One source is one program, as one ELF section is one program to a
4.18-era LWT hook (which reaches another program only by a tail call):
every branch target is a label of the same source, resolved here.

``parse_asm`` is pure: no maps are instantiated and nothing is verified;
it returns a :class:`TextObject` for :func:`~repro.ebpf.text.eld.link`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .. import isa
from ..errors import AsmError
from ..helpers import HELPER_IDS_BY_NAME
from ..insn import Instruction
from ..maps import MAP_TYPES

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")
_REG_RE = re.compile(r"^([rw])(\d+)$")
_INT_RE = re.compile(r"^-?(0[xX][0-9a-fA-F]+|\d+)$")
_MEM_RE = re.compile(
    r"^\*\s*\(\s*u(8|16|32|64)\s*\*\s*\)\s*"
    r"\(\s*r(\d+)\s*(?:([+-])\s*(0[xX][0-9a-fA-F]+|\d+)\s*)?\)$"
)
_ASSIGN_RE = re.compile(r"^(.+?)\s*(s>>|<<|>>|[-+*/%&|^])?=\s*(.+)$")
_IF_RE = re.compile(
    r"^if\s+([rw]\d+)\s*(==|!=|s<=|s>=|s<|s>|<=|>=|<|>|&)\s*(\S+)\s+goto\s+(\S+)$"
)
_END_RE = re.compile(r"^(be|le)(16|32|64)\s+([rw]\d+)$")
_NEG_RE = re.compile(r"^-\s*([rw]\d+)$")
_LL_RE = re.compile(r"^(\S+)\s+ll$")

ALU_OPS = {
    "+": isa.BPF_ADD,
    "-": isa.BPF_SUB,
    "*": isa.BPF_MUL,
    "/": isa.BPF_DIV,
    "%": isa.BPF_MOD,
    "&": isa.BPF_AND,
    "|": isa.BPF_OR,
    "^": isa.BPF_XOR,
    "<<": isa.BPF_LSH,
    ">>": isa.BPF_RSH,
    "s>>": isa.BPF_ARSH,
}

JMP_OPS = {
    "==": isa.BPF_JEQ,
    "!=": isa.BPF_JNE,
    ">": isa.BPF_JGT,
    ">=": isa.BPF_JGE,
    "<": isa.BPF_JLT,
    "<=": isa.BPF_JLE,
    "s>": isa.BPF_JSGT,
    "s>=": isa.BPF_JSGE,
    "s<": isa.BPF_JSLT,
    "s<=": isa.BPF_JSLE,
    "&": isa.BPF_JSET,
}

_SIZES = {"8": isa.BPF_B, "16": isa.BPF_H, "32": isa.BPF_W, "64": isa.BPF_DW}

_HOOKS = ("seg6local", "lwt", "none")


@dataclass(frozen=True)
class MapDecl:
    """One ``.map`` directive: everything needed to instantiate the map."""

    name: str
    map_type: str
    key_size: int = 4
    value_size: int = 8
    max_entries: int = 1
    line_no: int = 0


@dataclass
class TextObject:
    """The assembler's output: an object file, minus the ELF.

    ``insns`` are the program in source order with every branch
    resolved; ``maps`` are declarations only — :func:`link` instantiates
    them or binds them to maps the caller provides.
    """

    insns: list[Instruction] = field(default_factory=list)
    maps: dict[str, MapDecl] = field(default_factory=dict)
    hook: str | None = None


def _parse_int(token: str, line_no: int) -> int:
    if not _INT_RE.match(token):
        raise AsmError(f"expected integer, got {token!r}", line_no)
    return int(token, 0)


def _parse_imm32(token: str, line_no: int) -> int:
    """An ALU / jump / store immediate, as the signed 32-bit field holds it.

    ``0x80000000 … 0xffffffff`` name the field's bit pattern and are
    stored sign-wrapped, so a program runs the same from text as from
    its own bytes; anything wider would be truncated by the encoding.
    """
    value = _parse_int(token, line_no)
    if not -(1 << 31) <= value <= isa.U32:
        raise AsmError(
            f"immediate {token} does not fit in 32 bits; use `ll`", line_no
        )
    return isa.to_signed32(value)


def _parse_reg(token: str, line_no: int) -> tuple[int, bool]:
    """Parse ``rN``/``wN`` into (index, is64)."""
    match = _REG_RE.match(token)
    if not match:
        raise AsmError(f"expected register, got {token!r}", line_no)
    reg = int(match.group(2))
    if reg >= isa.NUM_REGS:
        raise AsmError(f"register {token} out of range", line_no)
    return reg, match.group(1) == "r"


def _parse_mem(token: str, line_no: int) -> tuple[int, int, int] | None:
    """Parse ``*(uN *)(rM +/- off)`` into (size_bits, reg, off), or None."""
    match = _MEM_RE.match(token)
    if not match:
        return None
    size = _SIZES[match.group(1)]
    reg = int(match.group(2))
    if reg >= isa.NUM_REGS:
        raise AsmError(f"register r{reg} out of range", line_no)
    off = 0
    if match.group(4) is not None:
        off = int(match.group(4), 0)
        if match.group(3) == "-":
            off = -off
    if not -(1 << 15) <= off < (1 << 15):
        raise AsmError(f"memory offset {off} out of 16-bit range", line_no)
    return size, reg, off


class _Parser:
    def __init__(self):
        self.obj = TextObject()
        self.labels: dict[str, int] = {}  # label -> slot
        self.slot = 0  # slots emitted so far
        # Branches awaiting their label: (insn index, own slot, target, line).
        self.fixups: list[tuple[int, int, str, int]] = []

    # -- directives -------------------------------------------------------
    def directive(self, line: str, line_no: int) -> None:
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == ".hook":
            if self.obj.hook is not None:
                raise AsmError("duplicate .hook", line_no)
            if rest not in _HOOKS:
                raise AsmError(
                    f"unknown hook {rest!r} (expected one of {', '.join(_HOOKS)})",
                    line_no,
                )
            self.obj.hook = rest
            return
        if word == ".map":
            self._map_directive(rest, line_no)
            return
        raise AsmError(f"unknown directive {word!r}", line_no)

    def _map_directive(self, rest: str, line_no: int) -> None:
        parts = [part.strip() for part in rest.split(",")]
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise AsmError(
                ".map needs at least a name and a type "
                "(.map name, type, key=K, value=V, entries=N)",
                line_no,
            )
        name, map_type = parts[0], parts[1]
        if not _LABEL_RE.match(name):
            raise AsmError(f"invalid map name {name!r}", line_no)
        if map_type not in MAP_TYPES:
            raise AsmError(
                f"unknown map type {map_type!r} "
                f"(expected one of {', '.join(sorted(MAP_TYPES))})",
                line_no,
            )
        if name in self.obj.maps:
            raise AsmError(f"duplicate map {name!r}", line_no)
        fields = {"key": 4, "value": 8, "entries": 1}
        if map_type == "perf_event_array":
            fields = {"key": 4, "value": 0, "entries": 1}
        for part in parts[2:]:
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq or key not in fields:
                raise AsmError(
                    f"bad map parameter {part!r} (expected key=, value=, entries=)",
                    line_no,
                )
            fields[key] = _parse_int(value.strip(), line_no)
        self.obj.maps[name] = MapDecl(
            name,
            map_type,
            fields["key"],
            fields["value"],
            fields["entries"],
            line_no,
        )

    # -- labels and instructions ------------------------------------------
    def label(self, label: str, line_no: int) -> None:
        if not _LABEL_RE.match(label):
            raise AsmError(f"invalid label {label!r}", line_no)
        if label in self.labels:
            raise AsmError(f"duplicate label {label!r}", line_no)
        self.labels[label] = self.slot

    def insn(self, line: str, line_no: int) -> None:
        insn = self._parse_insn(line, line_no)
        self.obj.insns.append(insn)
        self.slot += insn.slots

    def _branch(
        self, opcode: int, dst: int, src: int, imm: int, target: str, line_no: int
    ) -> Instruction:
        """The branch ``insn`` is about to append; ``off`` is fixed up at the end."""
        if not _LABEL_RE.match(target):
            raise AsmError(f"invalid branch target {target!r}", line_no)
        self.fixups.append((len(self.obj.insns), self.slot, target, line_no))
        return Instruction(opcode, dst, src, 0, imm)

    def resolve(self) -> None:
        """Point every branch at its label."""
        for index, slot, target, line_no in self.fixups:
            if target not in self.labels:
                raise AsmError(f"undefined label {target!r}", line_no)
            off = self.labels[target] - slot - 1
            if not -(1 << 15) <= off < (1 << 15):
                raise AsmError(f"branch to {target!r} out of 16-bit range", line_no)
            self.obj.insns[index] = replace(self.obj.insns[index], off=off)

    def _parse_insn(self, line: str, line_no: int) -> Instruction:
        # -- exit / goto / call -------------------------------------------
        if line == "exit":
            return Instruction(isa.BPF_JMP | isa.BPF_EXIT)
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "goto":
            if not rest or " " in rest:
                raise AsmError("goto needs exactly one target", line_no)
            return self._branch(isa.BPF_JMP | isa.BPF_JA, 0, 0, 0, rest, line_no)
        if word == "call":
            if not rest or " " in rest:
                raise AsmError("call needs exactly one operand", line_no)
            if _INT_RE.match(rest):
                func = int(rest, 0)
            elif rest in HELPER_IDS_BY_NAME:
                func = HELPER_IDS_BY_NAME[rest]
            else:
                raise AsmError(f"unknown helper {rest!r}", line_no)
            return Instruction(isa.BPF_JMP | isa.BPF_CALL, imm=func)

        # -- conditional branches ------------------------------------------
        match = _IF_RE.match(line)
        if match:
            lhs, cmp_op, rhs, target = match.groups()
            dst, is64 = _parse_reg(lhs, line_no)
            klass = isa.BPF_JMP if is64 else isa.BPF_JMP32
            op = JMP_OPS[cmp_op]
            reg_match = _REG_RE.match(rhs)
            if reg_match:
                src, src64 = _parse_reg(rhs, line_no)
                if src64 != is64:
                    raise AsmError(
                        "cannot mix r and w registers in one comparison", line_no
                    )
                return self._branch(
                    klass | isa.BPF_X | op, dst, src, 0, target, line_no
                )
            imm = _parse_imm32(rhs, line_no)
            return self._branch(klass | isa.BPF_K | op, dst, 0, imm, target, line_no)
        if line.startswith("if "):
            raise AsmError(
                "malformed branch (expected: if <reg> <op> <reg|imm> goto <label>)",
                line_no,
            )

        # -- assignments: stores, loads, lddw, alu -------------------------
        match = _ASSIGN_RE.match(line)
        if not match:
            raise AsmError(f"cannot parse instruction {line!r}", line_no)
        lhs, alu_op, rhs = match.groups()
        lhs, rhs = lhs.strip(), rhs.strip()

        mem = _parse_mem(lhs, line_no)
        if mem is not None:  # store
            if alu_op is not None:
                raise AsmError("read-modify-write stores are not eBPF", line_no)
            size, base, off = mem
            if _REG_RE.match(rhs):
                src, src64 = _parse_reg(rhs, line_no)
                if not src64:
                    raise AsmError("stores take an r register or an immediate", line_no)
                return Instruction(isa.BPF_STX | isa.BPF_MEM | size, base, src, off)
            imm = _parse_imm32(rhs, line_no)
            return Instruction(isa.BPF_ST | isa.BPF_MEM | size, base, off=off, imm=imm)

        dst, is64 = _parse_reg(lhs, line_no)

        if alu_op is not None:  # compound assignment
            klass = isa.BPF_ALU64 if is64 else isa.BPF_ALU
            op = ALU_OPS[alu_op]
            if _REG_RE.match(rhs):
                src, src64 = _parse_reg(rhs, line_no)
                if src64 != is64:
                    raise AsmError(
                        "cannot mix r and w registers in one operation", line_no
                    )
                return Instruction(klass | isa.BPF_X | op, dst, src)
            imm = _parse_imm32(rhs, line_no)
            return Instruction(klass | isa.BPF_K | op, dst, imm=imm)

        # plain '=' forms --------------------------------------------------
        mem = _parse_mem(rhs, line_no)
        if mem is not None:  # load
            size, base, off = mem
            return Instruction(isa.BPF_LDX | isa.BPF_MEM | size, dst, base, off)

        match = _LL_RE.match(rhs)
        if match:  # lddw: 64-bit immediate or map symbol
            if not is64:
                raise AsmError("lddw needs an r register destination", line_no)
            operand = match.group(1)
            opcode = isa.BPF_LD | isa.BPF_IMM | isa.BPF_DW
            if _INT_RE.match(operand):
                value = int(operand, 0) & isa.U64
                return Instruction(opcode, dst, imm64=value)
            if not _LABEL_RE.match(operand):
                raise AsmError(f"invalid map symbol {operand!r}", line_no)
            return Instruction(
                opcode, dst, isa.BPF_PSEUDO_MAP_FD, imm64=0, map_ref=operand
            )

        match = _END_RE.match(rhs)
        if match:  # byte swap
            direction = isa.BPF_TO_BE if match.group(1) == "be" else isa.BPF_TO_LE
            width = int(match.group(2))
            src, _ = _parse_reg(match.group(3), line_no)
            if src != dst:
                raise AsmError(
                    f"byte swap must be in place (r{dst} = {match.group(1)}"
                    f"{width} r{dst})",
                    line_no,
                )
            return Instruction(
                isa.BPF_ALU | isa.BPF_END | direction, dst, imm=width
            )

        match = _NEG_RE.match(rhs)
        if match:  # negate
            src, src64 = _parse_reg(match.group(1), line_no)
            if src != dst or src64 != is64:
                raise AsmError("negation must be in place (rN = -rN)", line_no)
            klass = isa.BPF_ALU64 if is64 else isa.BPF_ALU
            return Instruction(klass | isa.BPF_NEG, dst)

        klass = isa.BPF_ALU64 if is64 else isa.BPF_ALU
        if _REG_RE.match(rhs):  # register move
            src, src64 = _parse_reg(rhs, line_no)
            if src64 != is64:
                raise AsmError("cannot mix r and w registers in one move", line_no)
            return Instruction(klass | isa.BPF_X | isa.BPF_MOV, dst, src)
        imm = _parse_imm32(rhs, line_no)  # immediate move
        return Instruction(klass | isa.BPF_K | isa.BPF_MOV, dst, imm=imm)


def parse_asm(text: str) -> TextObject:
    """Assemble kernel-style source text into a :class:`TextObject`.

    ``call`` by name reads the helper registry.  A branch to a label the
    source does not define is an :class:`AsmError` naming its line.
    """
    parser = _Parser()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = re.split(r";|//|#", raw_line, maxsplit=1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parser.directive(line, line_no)
            continue
        while ":" in line.split()[0] or line.endswith(":"):
            label, _, rest = line.partition(":")
            parser.label(label.strip(), line_no)
            line = rest.strip()
            if not line:
                break
        if not line:
            continue
        parser.insn(line, line_no)
    parser.resolve()
    return parser.obj
