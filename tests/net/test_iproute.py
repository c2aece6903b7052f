"""iproute2-style configuration front-end."""

import pytest

from repro.ebpf import Program
from repro.net import (
    BpfLwt,
    End,
    EndB6,
    EndBPF,
    EndDT6,
    EndT,
    EndX,
    Node,
    SEG6LOCAL_HELPERS,
    Seg6Encap,
    make_srv6_udp_packet,
    pton,
)
from repro.net.iproute import IpRoute, IpRouteError


@pytest.fixture
def ip():
    node = Node("R")
    node.add_device("eth0")
    node.add_device("eth1")
    prog = Program("r0 = 0\nexit", allowed_helpers=SEG6LOCAL_HELPERS)
    return IpRoute(node, objects={"prog.o": prog})


def test_plain_route(ip):
    route = ip.route_add("fc00:2::/64 via fc00:2::1 dev eth1")
    assert route.prefixlen == 64
    assert route.nexthops[0].via == pton("fc00:2::1")
    assert route.nexthops[0].dev == "eth1"


def test_host_route_default_prefixlen(ip):
    route = ip.route_add("fc00::1 dev eth0")
    assert route.prefixlen == 128


def test_route_into_table(ip):
    ip.route_add("fc00:2::/64 table 100 via fc00:2::1 dev eth1")
    assert ip.node.table(100).lookup(pton("fc00:2::5")) is not None
    assert ip.node.main_table().lookup(pton("fc00:2::5")) is None


def test_seg6_encap_modes(ip):
    route = ip.route_add(
        "fc00:2::/64 encap seg6 mode encap segs fc00::a,fc00::b dev eth1"
    )
    assert isinstance(route.encap, Seg6Encap)
    assert route.encap.mode == "encap"
    assert route.encap.segments == [pton("fc00::a"), pton("fc00::b")]
    inline = ip.route_add("fc00:3::/64 encap seg6 mode inline segs fc00::c dev eth1")
    assert inline.encap.mode == "inline"


@pytest.mark.parametrize(
    "spec,cls,attr",
    [
        ("encap seg6local action End", End, None),
        ("encap seg6local action End.X nh6 fc00::9", EndX, ("nh6", pton("fc00::9"))),
        ("encap seg6local action End.T table 42", EndT, ("table_id", 42)),
        ("encap seg6local action End.DT6 table 254", EndDT6, ("table_id", 254)),
        (
            "encap seg6local action End.B6 srh segs fc00::a,fc00::b",
            EndB6,
            ("segments", [pton("fc00::a"), pton("fc00::b")]),
        ),
    ],
)
def test_seg6local_actions(ip, spec, cls, attr):
    route = ip.route_add(f"fc00::100/128 {spec} dev eth0")
    assert isinstance(route.encap, cls)
    if attr:
        assert getattr(route.encap, attr[0]) == attr[1]


def test_end_bpf_with_object(ip):
    route = ip.route_add(
        "fc00::100/128 encap seg6local action End.BPF endpoint obj prog.o sec main dev eth0"
    )
    assert isinstance(route.encap, EndBPF)


def test_end_bpf_route_actually_works(ip):
    ip.addr_add("fc00:e::1 dev eth0")
    ip.route_add("fc00:2::/64 via fc00:2::1 dev eth1")
    ip.route_add(
        "fc00:e::100/128 encap seg6local action End.BPF endpoint obj prog.o dev eth0"
    )
    pkt = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, b"x")
    ip.node.receive(pkt, ip.node.devices["eth0"])
    assert len(ip.node.devices["eth1"].tx_buffer) == 1


def test_bpf_lwt_route(ip):
    route = ip.route_add("fc00:2::/64 encap bpf out obj prog.o dev eth1")
    assert isinstance(route.encap, BpfLwt)
    assert route.encap.prog_out is not None
    assert route.encap.prog_in is None


def test_ecmp_nexthop_blocks(ip):
    route = ip.route_add(
        "fc00:5::/64 nexthop via fc00::a dev eth0 weight 2 nexthop via fc00::b dev eth1"
    )
    assert len(route.nexthops) == 2
    assert route.nexthops[0].weight == 2


def test_unknown_object_rejected(ip):
    with pytest.raises(IpRouteError, match="no loaded eBPF object"):
        ip.route_add(
            "fc00::100/128 encap seg6local action End.BPF endpoint obj missing.o dev eth0"
        )


def test_unknown_keyword_rejected(ip):
    with pytest.raises(IpRouteError, match="unknown keyword"):
        ip.route_add("fc00::/64 frobnicate eth0")


def test_unknown_action_rejected(ip):
    with pytest.raises(IpRouteError, match="unknown seg6local action"):
        ip.route_add("fc00::/64 encap seg6local action End.Bogus dev eth0")


def test_truncated_command_rejected(ip):
    with pytest.raises(IpRouteError, match="expected"):
        ip.route_add("fc00::/64 encap seg6 mode encap segs")


def test_mixed_nexthop_and_via_rejected(ip):
    with pytest.raises(IpRouteError, match="not both"):
        ip.route_add("fc00::/64 via fc00::1 dev eth0 nexthop via fc00::2 dev eth1")


def test_addr_add(ip):
    ip.addr_add("fc00:e::1/64 dev eth0")
    assert pton("fc00:e::1") in ip.node.addresses


# --- route del / replace / show: the config-plane round trip ------------------


def test_route_del_removes_route(ip):
    ip.route_add("fc00:2::/64 via fc00:2::1 dev eth1")
    assert ip.node.main_table().lookup(pton("fc00:2::5")) is not None
    ip.route_del("fc00:2::/64")
    assert ip.node.main_table().lookup(pton("fc00:2::5")) is None


def test_route_del_default_host_prefixlen(ip):
    ip.route_add("fc00::1 dev eth0")
    ip.route_del("fc00::1")
    assert ip.node.main_table().lookup(pton("fc00::1")) is None


def test_route_del_from_table(ip):
    ip.route_add("fc00:2::/64 table 100 via fc00:2::1 dev eth1")
    ip.route_del("fc00:2::/64 table 100")
    assert ip.node.table(100).lookup(pton("fc00:2::5")) is None


def test_route_del_missing_route_raises(ip):
    with pytest.raises(IpRouteError, match="no route"):
        ip.route_del("fc00:9::/64")


def test_route_replace_overwrites_nexthop(ip):
    ip.route_add("fc00:2::/64 via fc00:2::1 dev eth1")
    route = ip.route_replace("fc00:2::/64 via fc00:2::9 dev eth0")
    assert route.nexthops[0].via == pton("fc00:2::9")
    resolved = ip.node.main_table().lookup(pton("fc00:2::5"))
    assert resolved.nexthops[0].dev == "eth0"


def test_route_show_round_trips_plain_and_encap_routes(ip):
    ip.route_add("fc00:2::/64 via fc00:2::1 dev eth1")
    ip.route_add("fc00:3::/64 encap seg6 mode encap segs fc00::a,fc00::b dev eth1")
    ip.route_add("fc00::100/128 encap seg6local action End.DT6 table 254")
    ip.route_add(
        "fc00::101/128 encap seg6local action End.BPF endpoint obj prog.o dev eth0"
    )
    ip.route_add(
        "fc00:5::/64 nexthop via fc00::a dev eth0 weight 2 nexthop via fc00::b dev eth1"
    )
    shown = ip.route_show()
    assert shown  # deterministic order: sorted by (prefixlen, prefix)

    # Replay every shown line onto a fresh node: same routes come back.
    replica = IpRoute(Node("R2"), objects=ip.objects)
    replica.node.add_device("eth0")
    replica.node.add_device("eth1")
    for line in shown:
        replica.route_add(line)
    assert replica.route_show() == shown


def test_route_show_includes_table_and_local(ip):
    ip.addr_add("fc00:e::1 dev eth0")
    ip.route_add("fc00:2::/64 table 100 via fc00:2::1 dev eth1")
    assert any(line.startswith("local fc00:e::1/128") for line in ip.route_show())
    assert ip.route_show("table 100") == ["fc00:2::/64 via fc00:2::1 dev eth1 table 100"]


def test_execute_dispatches_full_command_lines(ip):
    ip.execute("ip -6 addr add fc00:e::1 dev eth0")
    assert pton("fc00:e::1") in ip.node.addresses
    ip.execute("ip -6 route add fc00:2::/64 via fc00:2::1 dev eth1")
    assert ip.node.main_table().lookup(pton("fc00:2::5")) is not None
    ip.execute("route replace fc00:2::/64 via fc00:2::9 dev eth0")
    shown = ip.execute("ip -6 route show")
    assert "fc00:2::/64 via fc00:2::9 dev eth0" in shown
    ip.execute("ip -6 route del fc00:2::/64")
    assert ip.node.main_table().lookup(pton("fc00:2::5")) is None


def test_execute_rejects_unknown_commands(ip):
    with pytest.raises(IpRouteError, match="unknown route subcommand"):
        ip.execute("ip -6 route frobnicate fc00::/64")
    with pytest.raises(IpRouteError, match="unknown command object"):
        ip.execute("ip -6 link set eth0 up")


def test_shared_object_registry_sees_late_loads():
    node = Node("R")
    node.add_device("eth0")
    objects = {}
    ip = IpRoute(node, objects)
    with pytest.raises(IpRouteError, match="no loaded eBPF object"):
        ip.route_add(
            "fc00::100/128 encap seg6local action End.BPF endpoint obj late.o dev eth0"
        )
    objects["late.o"] = Program("r0 = 0\nexit", allowed_helpers=SEG6LOCAL_HELPERS)
    route = ip.route_add(
        "fc00::100/128 encap seg6local action End.BPF endpoint obj late.o dev eth0"
    )
    assert isinstance(route.encap, EndBPF)


# --- round-tripping under churn (the control plane's write pattern) -----------


def replay_equals_shown(ip):
    """Replay the current dump onto a fresh node; both dumps must match."""
    shown = ip.route_show()
    replica = IpRoute(Node("replica"), objects=ip.objects)
    replica.node.add_device("eth0")
    replica.node.add_device("eth1")
    for line in shown:
        replica.route_add(line)
    assert replica.route_show() == shown
    return shown


CHURN = [
    "route add fc00:2::/64 via fc00:2::1 dev eth1",
    "route add fc00:5::/64 nexthop via fc00::a dev eth0 weight 2 "
    "nexthop via fc00::b dev eth1 weight 1",
    "route add fc00:3::/64 encap seg6 mode encap segs fc00::a,fc00::b dev eth1",
    "route replace fc00:5::/64 nexthop via fc00::a dev eth0 weight 1 "
    "nexthop via fc00::c dev eth1 weight 1",
    "route replace fc00:2::/64 encap seg6 mode encap segs fcff:1::d",
    "route del fc00:3::/64",
    "route add fc00:3::/64 encap seg6 mode inline segs fc00::c dev eth1",
    "route replace fc00:3::/64 via fc00:3::9 dev eth0",
    "route del fc00:5::/64",
    "route add fc00:5::/64 encap seg6 mode encap segs fc00::d "
    "nexthop via fc00::a dev eth0 nexthop via fc00::b dev eth1",
    "route replace fc00:2::/64 via fc00:2::1 dev eth1",
    "route del fc00:2::/64",
]


def test_churn_round_trips_after_every_step(ip):
    """ECMP and seg6-encap replace/del interleaved: the dump re-parses to
    identical state after *every* mutation — the property the IGP's
    route programming relies on."""
    for command in CHURN:
        ip.execute(command)
        replay_equals_shown(ip)


def test_churn_end_state_is_exact(ip):
    for command in CHURN:
        ip.execute(command)
    shown = replay_equals_shown(ip)
    assert "fc00:2::/64" not in " ".join(shown)
    assert any(
        line.startswith("fc00:5::/64 encap seg6") and line.count("nexthop") == 2
        for line in shown
    )


def test_replace_churn_bumps_generation_for_flow_table(ip):
    """Every replace/del invalidates memoised lookups (generation bump)."""
    table = ip.node.main_table()
    generation = table.generation
    ip.execute("route add fc00:2::/64 via fc00:2::1 dev eth1")
    ip.execute("route replace fc00:2::/64 via fc00:2::9 dev eth0")
    ip.execute("route del fc00:2::/64")
    assert table.generation == generation + 3


def test_route_del_accepts_metric_selector(ip):
    ip.route_add("fc00:2::/64 via fc00:2::1 dev eth1 metric 1024")
    ip.route_del("fc00:2::/64 metric 1024")
    assert ip.node.main_table().lookup(pton("fc00:2::5")) is None


def test_route_show_registers_programmatic_programs_for_replay(ip):
    # Installed around the plane (node.add_route with an encap object),
    # as usecases' install_wrr does — the dump must still resolve.
    prog = Program("r0 = 0\nexit", allowed_helpers=SEG6LOCAL_HELPERS, name="wrr")
    ip.node.add_route("fc00:7::/64", encap=BpfLwt(prog_out=prog), via="fc00::1", dev="eth0")
    shown = [line for line in ip.route_show() if "encap bpf" in line]
    assert shown == ["fc00:7::/64 encap bpf out obj wrr via fc00::1 dev eth0"]
    assert ip.objects["wrr"] is prog  # registered on show
    replica = IpRoute(Node("R2"), objects=ip.objects)
    replica.node.add_device("eth0")
    replayed = replica.route_add(shown[0])
    assert replayed.encap.prog_out is prog


def test_route_show_local_lines_replay_unfiltered(ip):
    ip.addr_add("fc00:e::1 dev eth0")
    ip.route_add("fc00:2::/64 via fc00:2::1 dev eth1")
    shown = ip.route_show()
    replica = IpRoute(Node("R2"))
    replica.node.add_device("eth0")
    replica.node.add_device("eth1")
    for line in shown:
        replica.route_add(line)  # no filtering needed
    assert replica.route_show() == shown
    # The replayed local route really delivers locally.
    resolved = replica.node.main_table().lookup(pton("fc00:e::1"))
    assert resolved is not None and resolved.local
