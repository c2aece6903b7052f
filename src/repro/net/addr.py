"""IPv6 address utilities.

Addresses travel through the stack as 16-byte ``bytes`` objects (wire
format); these helpers convert to/from the textual form and provide the
prefix arithmetic the FIB needs.
"""

from __future__ import annotations

import ipaddress

IPV6_LEN = 16


def pton(text: str) -> bytes:
    """``"fc00::1"`` → 16 wire bytes."""
    return ipaddress.IPv6Address(text).packed


def ntop(addr: bytes) -> str:
    """16 wire bytes → canonical textual form."""
    if len(addr) != IPV6_LEN:
        raise ValueError(f"IPv6 address must be 16 bytes, got {len(addr)}")
    return str(ipaddress.IPv6Address(addr))


def as_addr(value: str | bytes | bytearray | memoryview) -> bytes:
    """Accept either representation, return wire bytes."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        value = bytes(value)
        if len(value) != IPV6_LEN:
            raise ValueError(f"IPv6 address must be 16 bytes, got {len(value)}")
        return value
    return pton(value)


def prefix_bits(addr: bytes, prefixlen: int) -> int:
    """The top ``prefixlen`` bits of ``addr`` as an integer."""
    if not 0 <= prefixlen <= 128:
        raise ValueError(f"invalid prefix length {prefixlen}")
    value = int.from_bytes(addr, "big")
    return value >> (128 - prefixlen) if prefixlen < 128 else value


def parse_prefix(text: str) -> tuple[bytes, int]:
    """``"fc00:1::/64"`` → (prefix bytes, prefix length)."""
    network = ipaddress.IPv6Network(text, strict=False)
    return network.network_address.packed, network.prefixlen
