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
``dm_encap_prog``         4.1  ``asm/dm_encap.s``       transit sampler: DM TLV encap
``end_dm_prog``           4.1  ``asm/end_dm.s``         End.DM: perf event, decap
``wrr_prog``              4.2  ``asm/wrr.s``            per-packet WRR, push encap
``end_oamp_prog``         4.3  ``asm/end_oamp.s``       End.OAMP: ECMP nexthops event
========================  ===  =======================  ==============================

Each is a ``.s`` file in the kernel-style syntax of
:mod:`repro.ebpf.text`, naming its hook in a ``.hook`` directive (from
which its helper whitelist derives) and declaring its maps with ``.map``.

Probe packet geometry is fixed (as real eBPF programs fix their parse
offsets — the 2018 verifier had no loops): the §4.1/§4.3 sources spell
their offsets as commented literals, and the layout constants below are
the same numbers for the user-space builders in :mod:`repro.usecases`
(``tests/test_progs.py`` holds the two together).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

from ..ebpf import ArrayMap, PerfEventArrayMap, Program
from ..ebpf.text import link, parse_asm
from ..net.addr import as_addr

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
    path.stem: parse_asm(path.read_text()) for path in sorted(ASM_DIR.glob("*.s"))
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


def dm_encap_prog(dm_config: ArrayMap, jit: bool = True) -> Program:
    """The §4.1 transit sampler; attach as a route's ``lwt_out`` program."""
    return link(_OBJECTS["dm_encap"], maps={"dm_config": dm_config}).load(
        name="dm_encap", jit=jit
    )


def end_dm_prog(dm_events: PerfEventArrayMap, jit: bool = True) -> Program:
    """The §4.1 End.DM network function; attach via ``EndBPF``."""
    return link(_OBJECTS["end_dm"], maps={"dm_events": dm_events}).load(
        name="end_dm", jit=jit
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


def end_oamp_prog(oamp_events: PerfEventArrayMap, jit: bool = True) -> Program:
    """The §4.3 End.OAMP network function; attach via ``EndBPF``."""
    return link(_OBJECTS["end_oamp"], maps={"oamp_events": oamp_events}).load(
        name="end_oamp", jit=jit
    )
