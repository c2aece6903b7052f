"""Discrete-event network simulation substrate (the paper's lab)."""

from .cpu import CostModel, CpuQueue, CpuStats
from .link import Link, LinkEndpoint
from .netem import NetemQdisc
from .pcap import PcapWriter, read_pcap, tap_device
from .scheduler import NS_PER_MS, NS_PER_SEC, NS_PER_US, Event, Scheduler
from .stats import FlowMeter, mbps
from .tcp import TcpReceiver, TcpSender, make_connection
from .trafgen import Srv6UdpFlood, UdpFlow, batch_srv6_udp, batch_srv6_udp_flows, batch_udp

__all__ = [
    "CostModel",
    "CpuQueue",
    "CpuStats",
    "Event",
    "FlowMeter",
    "Link",
    "LinkEndpoint",
    "NS_PER_MS",
    "NS_PER_SEC",
    "NS_PER_US",
    "NetemQdisc",
    "PcapWriter",
    "Scheduler",
    "Srv6UdpFlood",
    "TcpReceiver",
    "TcpSender",
    "UdpFlow",
    "batch_srv6_udp",
    "batch_srv6_udp_flows",
    "batch_udp",
    "make_connection",
    "mbps",
    "read_pcap",
    "tap_device",
]
