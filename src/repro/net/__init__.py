"""IPv6/SRv6 network-stack substrate.

Importing this package registers the SRv6 eBPF helpers (§3.1 of the
paper) in the global helper registry, so programs using
``lwt_seg6_store_bytes`` etc. assemble and verify.
"""

from . import seg6_helpers  # noqa: F401  (registers helpers on import)
from .addr import as_addr, ntop, parse_prefix, pton
from .fib import MAIN_TABLE, FibTable, Nexthop, Route
from .iproute import IpRoute, IpRouteError
from .icmpv6 import (
    ICMPV6_DEST_UNREACH,
    ICMPV6_ECHO_REPLY,
    ICMPV6_ECHO_REQUEST,
    ICMPV6_TIME_EXCEEDED,
    Icmpv6Message,
    echo_reply,
    time_exceeded,
)
from .ipv6 import (
    IPV6_HEADER_LEN,
    IPv6Header,
    PROTO_ICMPV6,
    PROTO_IPV6,
    PROTO_ROUTING,
    PROTO_TCP,
    PROTO_UDP,
)
from .lwt_bpf import BpfLwt
from .netdev import NetDev
from .node import FlowTable, Node
from .packet import (
    Packet,
    make_icmpv6_packet,
    make_srv6_udp_packet,
    make_tcp_packet,
    make_udp_packet,
)
from .seg6 import (
    BPF_LWT_ENCAP_SEG6,
    BPF_LWT_ENCAP_SEG6_INLINE,
    SEG6_MODE_ENCAP,
    SEG6_MODE_INLINE,
    Seg6Encap,
    push_outer_encap,
    push_srh_inline,
)
from .seg6_helpers import LWT_HELPERS, SEG6LOCAL_HELPERS
from .seg6local import (
    Disposition,
    clear_advance_memo,
    End,
    EndB6,
    EndB6Encaps,
    EndBPF,
    EndDT6,
    EndDX6,
    EndT,
    EndX,
    Seg6LocalAction,
)
from .srh import (
    SRH,
    DM_KIND_OWD,
    DM_KIND_TWD,
    TLV_CONTROLLER,
    TLV_DM,
    TLV_HMAC,
    TLV_PAD1,
    TLV_PADN,
    Tlv,
    make_controller_tlv,
    make_dm_tlv,
    make_srh,
)
from .tcp import TcpHeader, build_tcp
from .udp import UdpHeader, build_udp

__all__ = [
    "BPF_LWT_ENCAP_SEG6",
    "BPF_LWT_ENCAP_SEG6_INLINE",
    "BpfLwt",
    "DM_KIND_OWD",
    "DM_KIND_TWD",
    "Disposition",
    "End",
    "EndB6",
    "EndB6Encaps",
    "EndBPF",
    "EndDT6",
    "EndDX6",
    "EndT",
    "EndX",
    "FibTable",
    "ICMPV6_DEST_UNREACH",
    "IpRoute",
    "IpRouteError",
    "ICMPV6_ECHO_REPLY",
    "ICMPV6_ECHO_REQUEST",
    "ICMPV6_TIME_EXCEEDED",
    "IPV6_HEADER_LEN",
    "IPv6Header",
    "Icmpv6Message",
    "LWT_HELPERS",
    "MAIN_TABLE",
    "NetDev",
    "Nexthop",
    "FlowTable",
    "Node",
    "PROTO_ICMPV6",
    "PROTO_IPV6",
    "PROTO_ROUTING",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "Route",
    "SEG6LOCAL_HELPERS",
    "SEG6_MODE_ENCAP",
    "SEG6_MODE_INLINE",
    "SRH",
    "Seg6Encap",
    "Seg6LocalAction",
    "clear_advance_memo",
    "TLV_CONTROLLER",
    "TLV_DM",
    "TLV_HMAC",
    "TLV_PAD1",
    "TLV_PADN",
    "TcpHeader",
    "Tlv",
    "UdpHeader",
    "as_addr",
    "build_tcp",
    "build_udp",
    "echo_reply",
    "make_controller_tlv",
    "make_dm_tlv",
    "make_icmpv6_packet",
    "make_srh",
    "make_srv6_udp_packet",
    "make_tcp_packet",
    "make_udp_packet",
    "ntop",
    "parse_prefix",
    "pton",
    "push_outer_encap",
    "push_srh_inline",
    "time_exceeded",
]
