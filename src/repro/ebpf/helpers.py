"""Helper-function registry and the generic (non-SRv6) helpers.

Helpers are the proxies between eBPF programs and the kernel (§2.1).  Each
helper carries:

* a stable numeric id (matching Linux where the helper exists upstream;
  paper-specific additions live in a private range ≥ 1000),
* an argument specification the verifier checks statically, and
* a Python implementation executed with bounds-checked guest memory.

A helper is called with exactly its ``len(helper.args)`` arguments.  The
tracing :class:`Helper` appends ``(name, args, ret)`` to an enabled
``helper_trace``; a translated program calls the plain ``Helper.fn`` when
the invocation does not trace, so both engines leave the same trace.

The SRv6 helpers of §3.1 (``bpf_lwt_seg6_*``, ``bpf_lwt_push_encap``) are
registered by :mod:`repro.net.seg6_helpers`, keeping the kernel-networking
logic out of the VM core — the same layering as the kernel, where helper
sets are per-hook.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from . import isa
from .errors import HelperError
from .maps import Map, PerfEventArrayMap
from .memory import Memory, Region

# Argument-spec atoms (see verifier):
#   ("ctx",)                      pointer to the program context
#   ("scalar",)                   any integer
#   ("map_ptr",)                  pointer from a pseudo map lddw
#   ("map_key",)                  readable memory of preceding map's key_size
#   ("map_value_src",)            readable memory of preceding map's value_size
#   ("mem", rw, "sizearg", n)     memory sized by argument register rn
#   ("mem", rw, "fixed", k)       memory of fixed size k
# Return kinds: "scalar", "map_value_or_null".
ArgSpec = tuple


@dataclass
class Helper:
    """A kernel function callable from eBPF."""

    helper_id: int
    name: str
    fn: Callable
    args: list[ArgSpec] = field(default_factory=list)
    ret: str = "scalar"

    def __call__(self, hctx: "HelperContext", *args: int) -> int:
        ret = self.fn(hctx, *args)
        if hctx.helper_trace is not None:
            hctx.helper_trace.append((self.name, args, ret))
        return ret


HELPERS_BY_ID: dict[int, Helper] = {}
HELPER_IDS_BY_NAME: dict[str, int] = {}
HELPER_NAMES_BY_ID: dict[int, str] = {}


def register_helper(helper_id: int, name: str, args: list[ArgSpec], ret: str = "scalar"):
    """Decorator registering a helper implementation."""

    def decorator(fn: Callable) -> Callable:
        if helper_id in HELPERS_BY_ID:
            raise HelperError(f"helper id {helper_id} already registered")
        if name in HELPER_IDS_BY_NAME:
            raise HelperError(f"helper name {name!r} already registered")
        helper = Helper(helper_id, name, fn, args, ret)
        HELPERS_BY_ID[helper_id] = helper
        HELPER_IDS_BY_NAME[name] = helper_id
        HELPER_NAMES_BY_ID[helper_id] = name
        return fn

    return decorator


class HelperContext:
    """Per-invocation runtime state shared by all helpers.

    Networking hooks subclass-or-embed this with packet/node attributes;
    the VM only requires what is defined here.  A context is built fresh
    by ``Program.make_context``; the one place that resets a reused one
    is :meth:`repro.ebpf.jit.CompiledHandler.arm`.
    """

    def __init__(
        self,
        mem: Memory,
        skb=None,
        maps: dict[int, Map] | None = None,
        clock_ns: Callable[[], int] = lambda: 0,
        rng: random.Random | None = None,
        cpu: int = 0,
    ):
        self.mem = mem
        self.skb = skb
        self.maps_by_addr = maps or {}
        self.value_bases: dict[int, int] = {}  # map handle -> its values' base
        self.clock_ns = clock_ns
        self.rng = rng or random.Random(0)
        self.cpu = cpu
        self.trace_log: list[str] = []
        # Opt-in call tracing: set to a list and every helper invocation
        # appends ``(name, args, ret)``.  Both engines trace through
        # :meth:`Helper.__call__`, so traces are engine-comparable — the
        # differential corpus and fuzzer rely on this.  ``None`` (the
        # default) lets a translated program call ``Helper.fn`` directly.
        self.helper_trace: list[tuple] | None = None
        # Networking hooks populate these:
        self.packet = None
        self.node = None
        self.hook = None
        self.metadata: dict = {}

    # -- utilities for helper implementations -------------------------------
    def resolve_map(self, addr: int) -> Map:
        map_obj = self.maps_by_addr.get(addr)
        if map_obj is None:
            raise HelperError(f"no map bound at guest address {addr:#x}")
        return map_obj


def install_map_regions(mem: Memory, maps: dict[int, Map]) -> None:
    """Register opaque, non-accessible map-handle regions in guest memory."""
    for addr in maps:
        mem.add_region(Region(addr, bytearray(16), 0, "map_ptr", maps[addr]))


# ---------------------------------------------------------------------------
# Generic helpers (ids match include/uapi/linux/bpf.h).
# ---------------------------------------------------------------------------


@register_helper(1, "map_lookup_elem", [("map_ptr",), ("map_key",)], "map_value_or_null")
def _map_lookup_elem(hctx: HelperContext, map_addr: int, key_addr: int) -> int:
    # The table read directly; resolve_map only raises for an unbound handle.
    map_obj = hctx.maps_by_addr.get(map_addr) or hctx.resolve_map(map_addr)
    mem = hctx.mem
    found = map_obj.lookup_slot(mem.read_bytes(key_addr, map_obj.key_size))
    if found is None:
        return 0
    # Slot s of this map's values sits where the program's numbering put them.
    slot, data = found
    return mem.map_value(hctx.value_bases[map_addr] + slot * map_obj._stride, data, map_obj)


@register_helper(
    2,
    "map_update_elem",
    [("map_ptr",), ("map_key",), ("map_value_src",), ("scalar",)],
)
def _map_update_elem(
    hctx: HelperContext, map_addr: int, key_addr: int, value_addr: int, flags: int
) -> int:
    map_obj = hctx.resolve_map(map_addr)
    key = hctx.mem.read_bytes(key_addr, map_obj.key_size)
    value = hctx.mem.read_bytes(value_addr, map_obj.value_size)
    try:
        map_obj.update(key, value)
    except Exception:
        return -1 & isa.U64
    return 0


@register_helper(3, "map_delete_elem", [("map_ptr",), ("map_key",)])
def _map_delete_elem(hctx: HelperContext, map_addr: int, key_addr: int) -> int:
    map_obj = hctx.resolve_map(map_addr)
    key = hctx.mem.read_bytes(key_addr, map_obj.key_size)
    try:
        map_obj.delete(key)
    except Exception:
        return -1 & isa.U64
    return 0


@register_helper(5, "ktime_get_ns", [])
def _ktime_get_ns(hctx: HelperContext) -> int:
    return hctx.clock_ns() & isa.U64


@register_helper(
    6,
    "trace_printk",
    [("mem", "r", "sizearg", 2), ("scalar",), ("scalar",), ("scalar",), ("scalar",)],
)
def _trace_printk(hctx: HelperContext, fmt_addr, fmt_size, a1=0, a2=0, a3=0) -> int:
    raw = hctx.mem.read_bytes(fmt_addr, fmt_size)
    fmt = raw.split(b"\x00", 1)[0].decode("ascii", "replace")
    args = (a1, a2, a3)
    out, arg_idx, i = [], 0, 0
    while i < len(fmt):
        ch = fmt[i]
        if ch == "%" and i + 1 < len(fmt):
            spec = fmt[i + 1 :]
            for prefix in ("llu", "lld", "llx", "u", "d", "x"):
                if spec.startswith(prefix):
                    value = args[arg_idx] if arg_idx < 3 else 0
                    if prefix.endswith("d"):
                        value = isa.to_signed64(value)
                    out.append(format(value, "x" if prefix.endswith("x") else "d"))
                    arg_idx += 1
                    i += 1 + len(prefix)
                    break
            else:
                out.append(ch)
                i += 1
        else:
            out.append(ch)
            i += 1
    hctx.trace_log.append("".join(out))
    return len(raw)


@register_helper(7, "get_prandom_u32", [])
def _get_prandom_u32(hctx: HelperContext) -> int:
    return hctx.rng.getrandbits(32)


@register_helper(8, "get_smp_processor_id", [])
def _get_smp_processor_id(hctx: HelperContext) -> int:
    return hctx.cpu


@register_helper(
    25,
    "perf_event_output",
    [("ctx",), ("map_ptr",), ("scalar",), ("mem", "r", "sizearg", 5), ("scalar",)],
)
def _perf_event_output(
    hctx: HelperContext, ctx_addr: int, map_addr: int, flags: int, data_addr: int, size: int
) -> int:
    map_obj = hctx.resolve_map(map_addr)
    if not isinstance(map_obj, PerfEventArrayMap):
        raise HelperError("perf_event_output requires a perf event array map")
    data = hctx.mem.read_bytes(data_addr, size)
    cpu = hctx.cpu if flags == BPF_F_CURRENT_CPU else flags & 0xFFFFFFFF
    return 0 if map_obj.output(cpu, data, hctx.clock_ns()) else (-2 & isa.U64)


BPF_F_CURRENT_CPU = 0xFFFFFFFF

# ---------------------------------------------------------------------------
# Paper-specific generic helper (§4.1): software timestamp of packet
# reception, used by End.DM to compute the one-way delay.
# ---------------------------------------------------------------------------


@register_helper(1000, "skb_rx_timestamp", [("ctx",)])
def _skb_rx_timestamp(hctx: HelperContext, ctx_addr: int) -> int:
    packet = hctx.packet
    if packet is None:
        return 0
    return getattr(packet, "rx_tstamp_ns", 0) & isa.U64
