"""The paper's eBPF programs, in eBPF assembly.

Every program in the evaluation (§3.2) and the use cases (§4) is written
here as genuine eBPF bytecode — assembled, verified and executed by
:mod:`repro.ebpf` — never as shortcut Python:

========================  ===  =======================  ==============================
Program                   §    Source                   Purpose
========================  ===  =======================  ==============================
``end_prog``              3.2  ``asm/end.s``            BPF counterpart of End
``end_t_prog``            3.2  ``asm/end_t.s``          BPF counterpart of End.T
``tag_increment_prog``    3.2  ``asm/tag_increment.s``  "Tag++": increment the SRH tag
``add_tlv_prog``          3.2  ``asm/add_tlv.s``        grow TLV area, write a TLV
``dm_encap_prog``         4.1  ``DM_ENCAP_ASM``         transit sampler: DM TLV encap
``end_dm_prog``           4.1  ``END_DM_ASM``           End.DM: perf event, decap
``wrr_prog``              4.2  ``asm/wrr.s``            per-packet WRR, push encap
``end_oamp_prog``         4.3  ``END_OAMP_ASM``         End.OAMP: ECMP nexthops event
========================  ===  =======================  ==============================

The five programs with no Python-side parameters are ``.s`` files in the
kernel-style syntax of :mod:`repro.ebpf.text`, each naming its hook in a
``.hook`` directive (from which its helper whitelist derives).  The
three §4.1/§4.3 programs interpolate the probe layout constants below
and stay classic-syntax strings here.

Probe packet geometry is fixed (as real eBPF programs fix their parse
offsets — the 2018 verifier had no loops): see the layout constants
below, shared with the user-space builders in :mod:`repro.usecases`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

from ..ebpf import ArrayMap, PerfEventArrayMap, Program
from ..ebpf.text import link, parse_asm
from ..net.addr import as_addr
from ..net.seg6_helpers import LWT_HELPERS, SEG6LOCAL_HELPERS

# ---------------------------------------------------------------------------
# The ``.s`` programs: sources, objects, §3.2 loaders
# ---------------------------------------------------------------------------

ASM_DIR = Path(__file__).parent / "asm"


def asm_text(name: str) -> str:
    """Return the ``.s`` source of a library program (e.g. ``"wrr"``)."""
    path = ASM_DIR / f"{name}.s"
    if not path.exists():
        available = ", ".join(sorted(p.stem for p in ASM_DIR.glob("*.s")))
        raise KeyError(f"no library asm program {name!r} (have: {available})")
    return path.read_text()


# Assembled once at import, as an object file would be: the text path
# costs ~100 µs more per program than a loader call can absorb (the perf
# ledger's setup_s).  ``link`` does not mutate a ``TextObject`` and its
# ``Instruction``s are frozen, so the objects are shared; map binding and
# shape check, relocation, verification and JIT run on every loader call.
_OBJECTS = {
    stem: parse_asm(asm_text(stem))
    for stem in ("end", "end_t", "tag_increment", "add_tlv", "wrr")
}


def end_prog(jit: bool = True) -> Program:
    """The paper's baseline End.BPF program (§3.2, "End BPF")."""
    return link(_OBJECTS["end"]).load(name="end_bpf", jit=jit)


def end_t_prog(jit: bool = True) -> Program:
    """BPF counterpart of End.T (§3.2)."""
    return link(_OBJECTS["end_t"]).load(name="end_t_bpf", jit=jit)


def tag_increment_prog(jit: bool = True) -> Program:
    """The paper's Tag++ program (§3.2, ~50 SLOC in C)."""
    return link(_OBJECTS["tag_increment"]).load(name="tag_increment", jit=jit)


def add_tlv_prog(jit: bool = True) -> Program:
    """The paper's Add TLV program (§3.2)."""
    return link(_OBJECTS["add_tlv"]).load(name="add_tlv", jit=jit)


# ---------------------------------------------------------------------------
# §4.1 delay measurement: probe geometry shared with user space
# ---------------------------------------------------------------------------

# DM probe packet: outer IPv6 (40) + SRH (72) + inner packet.
#   SRH: fixed 8 | segments 2x16 | DM TLV (11) | controller TLV (20) | Pad1
DM_SRH_LEN = 72
DM_SRH_OFF = 40
DM_TLV_OFF = DM_SRH_OFF + 8 + 32  # 80: DM TLV type byte
DM_TS_OFF = DM_TLV_OFF + 2  # 82: 8-byte big-endian TX timestamp
DM_KIND_OFF = DM_TLV_OFF + 10  # 90: probe kind (OWD/TWD)
DM_CTRL_TLV_OFF = DM_TLV_OFF + 11  # 91: controller TLV type byte
DM_CTRL_ADDR_OFF = DM_CTRL_TLV_OFF + 2  # 93
DM_CTRL_PORT_OFF = DM_CTRL_ADDR_OFF + 16  # 109
DM_PROBE_MIN_LEN = DM_SRH_OFF + DM_SRH_LEN  # 112

# dm_config array-map value layout (40 bytes).
DM_CONFIG_SIZE = 40
DM_EVENT_SIZE = 40


def dm_config_value(
    dm_segment: bytes | str,
    controller: bytes | str,
    port: int,
    kind: int,
    ratio: int,
) -> bytes:
    """Encode the sampler's configuration map value.

    ``ratio`` is the paper's probing ratio denominator (1:ratio packets
    are turned into probes); 0 disables sampling entirely.
    """
    return (
        as_addr(dm_segment)
        + as_addr(controller)
        + struct.pack(">H", port)
        + struct.pack("BB", kind & 0xFF, 0)
        + struct.pack("<I", ratio)
    )


@dataclass
class DmEvent:
    """Decoded End.DM perf-event record (§4.1)."""

    tx_timestamp_ns: int
    rx_timestamp_ns: int
    controller: bytes
    port: int
    kind: int

    SIZE = DM_EVENT_SIZE

    @classmethod
    def parse(cls, raw: bytes) -> "DmEvent":
        if len(raw) != cls.SIZE:
            raise ValueError(f"DM event must be {cls.SIZE} bytes, got {len(raw)}")
        tx, rx = struct.unpack_from("<QQ", raw, 0)
        controller = raw[16:32]
        port = struct.unpack_from(">H", raw, 32)[0]
        kind = raw[34]
        return cls(tx, rx, controller, port, kind)

    @property
    def delay_ns(self) -> int:
        return self.rx_timestamp_ns - self.tx_timestamp_ns


DM_ENCAP_ASM = f"""
    ; §4.1 transit behaviour: for 1 out of `ratio` IPv6 packets, build an
    ; SRH with a Delay-Measurement TLV and a controller TLV on the stack
    ; and encapsulate the packet with it (130 SLOC in the paper's C).
    mov r6, r1
    ldxdw r7, [r6+16]
    ldxdw r8, [r6+24]
    mov r2, r7
    add r2, 40                     ; need the full inner IPv6 header
    jgt r2, r8, out
    ldxb r3, [r7+6]
    jeq r3, 43, out                ; only *regular* IPv6: skip SRv6 traffic
    stw [r10-4], 0
    lddw r1, map:dm_config
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jeq r0, 0, out
    mov r9, r0                     ; r9 = config
    call get_prandom_u32
    ldxw r3, [r9+36]               ; probing ratio
    jeq r3, 0, out                 ; ratio 0: sampling disabled
    mod r0, r3
    jne r0, 0, out                 ; not sampled
    ; --- SRH fixed part (offsets relative to r10-80) ---
    stb [r10-80], 41               ; next header: IPv6 (outer encap)
    stb [r10-79], {DM_SRH_LEN // 8 - 1}
    stb [r10-78], 4                ; routing type: SRH
    stb [r10-77], 1                ; segments_left
    stb [r10-76], 1                ; last_entry
    stb [r10-75], 0                ; flags
    sth [r10-74], 0                ; tag
    ; --- segments[0] = inner destination (final segment) ---
    ldxdw r3, [r7+24]
    stxdw [r10-72], r3
    ldxdw r3, [r7+32]
    stxdw [r10-64], r3
    ; --- segments[1] = the End.DM segment (first segment) ---
    ldxdw r3, [r9+0]
    stxdw [r10-56], r3
    ldxdw r3, [r9+8]
    stxdw [r10-48], r3
    ; --- DM TLV: type 0x80, len 9, timestamp + kind ---
    stb [r10-40], 128
    stb [r10-39], 9
    call ktime_get_ns              ; TX software timestamp
    be64 r0
    stxdw [r10-38], r0
    ldxb r3, [r9+34]               ; probe kind (OWD / TWD)
    stxb [r10-30], r3
    ; --- controller TLV: type 0x81, len 18, addr + port ---
    stb [r10-29], 129
    stb [r10-28], 18
    ldxdw r3, [r9+16]
    stxdw [r10-27], r3
    ldxdw r3, [r9+24]
    stxdw [r10-19], r3
    ldxh r3, [r9+32]
    stxh [r10-11], r3
    stb [r10-9], 0                 ; Pad1
    ; --- encapsulate ---
    mov r1, r6
    mov r2, 0                      ; BPF_LWT_ENCAP_SEG6 (outer)
    mov r3, r10
    add r3, -80
    mov r4, {DM_SRH_LEN}
    call lwt_push_encap
out:
    mov r0, 0
    exit
"""


def dm_encap_prog(dm_config: ArrayMap, jit: bool = True) -> Program:
    """The §4.1 transit sampler; attach as a route's ``lwt_out`` program."""
    return Program(
        DM_ENCAP_ASM,
        maps={"dm_config": dm_config},
        name="dm_encap",
        jit=jit,
        allowed_helpers=LWT_HELPERS,
    )


END_DM_ASM = f"""
    ; §4.1 End.DM: read the TX timestamp from the DM TLV and the RX
    ; software timestamp from the skb, push both (plus the controller
    ; coordinates) to user space via a perf event, then decapsulate (OWD)
    ; or forward the probe back to the querier (TWD).
    mov r6, r1
    ldxdw r7, [r6+16]
    ldxdw r8, [r6+24]
    mov r2, r7
    add r2, {DM_PROBE_MIN_LEN}
    jgt r2, r8, pass
    ldxb r3, [r7+6]
    jne r3, 43, pass
    ldxb r3, [r7+{DM_TLV_OFF}]
    jne r3, 128, pass              ; no DM TLV: not a probe
    ; --- build the 40-byte event record at r10-40 ---
    ldxdw r3, [r7+{DM_TS_OFF}]
    be64 r3                        ; wire big-endian -> host
    stxdw [r10-40], r3             ; tx_timestamp
    mov r1, r6
    call skb_rx_timestamp
    stxdw [r10-32], r0             ; rx_timestamp
    ldxdw r3, [r7+{DM_CTRL_ADDR_OFF}]
    stxdw [r10-24], r3
    ldxdw r3, [r7+{DM_CTRL_ADDR_OFF + 8}]
    stxdw [r10-16], r3             ; controller address (raw copy)
    ldxh r3, [r7+{DM_CTRL_PORT_OFF}]
    stxh [r10-8], r3               ; controller port (wire order)
    ldxb r3, [r7+{DM_KIND_OFF}]
    stxb [r10-6], r3               ; probe kind
    stb [r10-5], 0
    stw [r10-4], 0
    mov r1, r6
    lddw r2, map:dm_events
    mov32 r3, -1                   ; BPF_F_CURRENT_CPU
    mov r4, r10
    add r4, -40
    mov r5, {DM_EVENT_SIZE}
    call perf_event_output
    ldxb r3, [r7+{DM_KIND_OFF}]
    jeq r3, 1, twd
    ; OWD probe: decapsulate so the inner packet continues normally.
    stw [r10-44], 254              ; main table
    mov r1, r6
    mov r2, 7                      ; SEG6_LOCAL_ACTION_END_DT6
    mov r3, r10
    add r3, -44
    mov r4, 4
    call lwt_seg6_action
    jne r0, 0, err
    mov r0, 7                      ; BPF_REDIRECT
    exit
twd:
    mov r0, 0                      ; forward to the querier (next segment)
    exit
pass:
    mov r0, 0
    exit
err:
    mov r0, 2
    exit
"""


def end_dm_prog(dm_events: PerfEventArrayMap, jit: bool = True) -> Program:
    """The §4.1 End.DM network function; attach via ``EndBPF``."""
    return Program(
        END_DM_ASM,
        maps={"dm_events": dm_events},
        name="end_dm",
        jit=jit,
        allowed_helpers=SEG6LOCAL_HELPERS,
    )


# ---------------------------------------------------------------------------
# §4.2 hybrid access: per-packet weighted round robin
# ---------------------------------------------------------------------------

WRR_CONFIG_SIZE = 40  # seg0 (16) | seg1 (16) | w0 u32 | w1 u32
WRR_STATE_SIZE = 16  # c0 u32 | c1 u32 | pkts0 u32 | pkts1 u32


def wrr_config_value(
    seg_link0: bytes | str, seg_link1: bytes | str, weight0: int, weight1: int
) -> bytes:
    """Encode the WRR configuration (link segments + weights).

    Weights match the uplink capacities as seen by the encapsulating box
    (§4.2): e.g. 50 Mb/s and 30 Mb/s links get weights 5 and 3.
    """
    if weight0 <= 0 or weight1 <= 0:
        raise ValueError("WRR weights must be positive")
    return (
        as_addr(seg_link0)
        + as_addr(seg_link1)
        + struct.pack("<II", weight0, weight1)
    )


def wrr_state_counters(state_map: ArrayMap) -> tuple[int, int, int, int]:
    """Decode (credit0, credit1, pkts0, pkts1) from the state map."""
    raw = state_map.lookup((0).to_bytes(4, "little"))
    return struct.unpack("<IIII", raw)


def wrr_prog(config_map: ArrayMap, state_map: ArrayMap, jit: bool = True) -> Program:
    """The §4.2 WRR link-aggregation scheduler (BPF LWT)."""
    return link(
        _OBJECTS["wrr"], maps={"wrr_config": config_map, "wrr_state": state_map}
    ).load(name="wrr_scheduler", jit=jit)


# ---------------------------------------------------------------------------
# §4.3 End.OAMP: ECMP nexthop discovery
# ---------------------------------------------------------------------------

# OAMP probe: IPv6 (40) + SRH (64): fixed 8 | 2 segments | ctrl TLV | PadN.
OAMP_SRH_LEN = 64
OAMP_CTRL_TLV_OFF = 40 + 8 + 32  # 80
OAMP_CTRL_ADDR_OFF = OAMP_CTRL_TLV_OFF + 2  # 82
OAMP_CTRL_PORT_OFF = OAMP_CTRL_ADDR_OFF + 16  # 98
OAMP_PROBE_MIN_LEN = 40 + OAMP_SRH_LEN  # 104
OAMP_MAX_NEXTHOPS = 4
OAMP_EVENT_SIZE = 8 + 16 + 16 + 16 * OAMP_MAX_NEXTHOPS  # 104


@dataclass
class OampEvent:
    """Decoded End.OAMP perf-event record (§4.3)."""

    count: int
    port: int
    prober: bytes
    target: bytes
    nexthops: list[bytes]

    SIZE = OAMP_EVENT_SIZE

    @classmethod
    def parse(cls, raw: bytes) -> "OampEvent":
        if len(raw) != cls.SIZE:
            raise ValueError(f"OAMP event must be {cls.SIZE} bytes, got {len(raw)}")
        count = struct.unpack_from("<I", raw, 0)[0]
        port = struct.unpack_from(">H", raw, 4)[0]
        prober = raw[8:24]
        target = raw[24:40]
        nexthops = [
            raw[40 + 16 * i : 56 + 16 * i] for i in range(min(count, OAMP_MAX_NEXTHOPS))
        ]
        return cls(count, port, prober, target, nexthops)


def _oamp_copy_nexthops() -> str:
    lines = []
    for i in range(OAMP_MAX_NEXTHOPS * 2):  # 8 double-words
        lines.append(f"    ldxdw r3, [r10-{96 - 8 * i}]")
        lines.append(f"    stxdw [r10-{176 - 8 * i}], r3")
    return "\n".join(lines)


END_OAMP_ASM = f"""
    ; §4.3 End.OAMP: query the FIB for the probe target's ECMP nexthops
    ; (custom helper) and report them to the prober via a perf event
    ; (60 SLOC in the paper's C).  Non-probe packets pass through.
    mov r6, r1
    ldxdw r7, [r6+16]
    ldxdw r8, [r6+24]
    mov r2, r7
    add r2, {OAMP_PROBE_MIN_LEN}
    jgt r2, r8, pass
    ldxb r3, [r7+6]
    jne r3, 43, pass
    ldxb r3, [r7+{OAMP_CTRL_TLV_OFF}]
    jne r3, 129, pass              ; no controller TLV: not a probe
    ; target address = current destination (the segment after End.BPF's
    ; advance), copied to the stack for the helper
    ldxdw r3, [r7+24]
    stxdw [r10-112], r3
    ldxdw r3, [r7+32]
    stxdw [r10-104], r3
    mov r1, r6
    mov r2, r10
    add r2, -112
    mov r3, r10
    add r3, -96                    ; 64-byte nexthop output buffer
    mov r4, 64
    call get_ecmp_nexthops
    ; --- event record (104 bytes at r10-216) ---
    stxw [r10-216], r0             ; nexthop count
    ldxh r3, [r7+{OAMP_CTRL_PORT_OFF}]
    stxh [r10-212], r3             ; prober port (wire order)
    sth [r10-210], 0
    ldxdw r3, [r7+{OAMP_CTRL_ADDR_OFF}]
    stxdw [r10-208], r3
    ldxdw r3, [r7+{OAMP_CTRL_ADDR_OFF + 8}]
    stxdw [r10-200], r3            ; prober address
    ldxdw r3, [r10-112]
    stxdw [r10-192], r3
    ldxdw r3, [r10-104]
    stxdw [r10-184], r3            ; target address
{_oamp_copy_nexthops()}
    mov r1, r6
    lddw r2, map:oamp_events
    mov32 r3, -1
    mov r4, r10
    add r4, -216
    mov r5, {OAMP_EVENT_SIZE}
    call perf_event_output
    mov r0, 2                      ; probe consumed
    exit
pass:
    mov r0, 0
    exit
"""


def end_oamp_prog(oamp_events: PerfEventArrayMap, jit: bool = True) -> Program:
    """The §4.3 End.OAMP network function; attach via ``EndBPF``."""
    return Program(
        END_OAMP_ASM,
        maps={"oamp_events": oamp_events},
        name="end_oamp",
        jit=jit,
        allowed_helpers=SEG6LOCAL_HELPERS,
    )
