"""Unit tests for nodes, links, dispatch and the IP cloud."""

import pytest

from repro.errors import RoutingError, TopologyError
from repro.identities import IPv4Address
from repro.net.interfaces import FIGURE3_LINKS, INTERFACE_SPECS, Interface
from repro.net.ip import IPCloud
from repro.net.iphost import IpHost
from repro.net.node import Network, Node, handles
from repro.packets.base import Packet, Raw
from repro.packets.fields import ByteField
from repro.packets.ip import IPv4, UDP
from repro.sim.kernel import Simulator


class Ping(Packet):
    name = "Ping"
    fields = (ByteField("n", 0),)


class Pong(Packet):
    name = "Pong"
    fields = (ByteField("n", 0),)


class Echo(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.pings = []

    @handles(Ping)
    def on_ping(self, msg, src, interface):
        self.pings.append((msg.n, src.name, interface))
        self.send(src, Pong(n=msg.n))


class Caller(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.pongs = []

    @handles(Pong)
    def on_pong(self, msg, src, interface):
        self.pongs.append(msg.n)


@pytest.fixture
def pair():
    sim = Simulator()
    net = Network(sim)
    a = net.add(Caller(sim, "A"))
    b = net.add(Echo(sim, "B"))
    net.connect(a, b, "test", latency=0.1)
    return sim, net, a, b


class TestDispatch:
    def test_request_response(self, pair):
        sim, net, a, b = pair
        a.send(b, Ping(n=7))
        sim.run()
        assert b.pings == [(7, "A", "test")]
        assert a.pongs == [7]
        assert sim.now == pytest.approx(0.2)

    def test_unhandled_counted_not_crashed(self, pair):
        sim, net, a, b = pair
        b.send(a, Ping(n=1))  # Caller has no Ping handler
        sim.run()
        assert sim.metrics.counters("unhandled") == {"unhandled.A": 1}

    def test_handler_inherits_to_subclass(self, pair):
        sim, _, _, _ = pair

        class SubEcho(Echo):
            pass

        net2 = Network(sim)
        a = net2.add(Caller(sim, "A2"))
        b = net2.add(SubEcho(sim, "B2"))
        net2.connect(a, b, "t", 0.0)
        a.send(b, Ping(n=1))
        sim.run()
        assert b.pings

    def test_base_class_handler_catches_subclass_packet(self):
        class SpecialPing(Ping):
            name = "SpecialPing"

        sim = Simulator()
        net = Network(sim)
        a = net.add(Caller(sim, "A"))
        b = net.add(Echo(sim, "B"))
        net.connect(a, b, "t", 0.0)
        a.send(b, SpecialPing(n=3))
        sim.run()
        assert b.pings == [(3, "A", "t")]


class TestTopology:
    def test_duplicate_node_name_rejected(self, pair):
        sim, net, a, b = pair
        with pytest.raises(TopologyError):
            net.add(Caller(sim, "A"))

    def test_unknown_node_lookup(self, pair):
        _, net, _, _ = pair
        with pytest.raises(TopologyError):
            net.node("nope")

    def test_link_to_unknown_peer(self, pair):
        _, _, a, _ = pair
        with pytest.raises(TopologyError):
            a.link_to("C")

    def test_self_link_rejected(self, pair):
        sim, net, a, _ = pair
        with pytest.raises(TopologyError):
            net.connect(a, a, "loop", 0.1)

    def test_negative_latency_rejected(self, pair):
        sim, net, a, b = pair
        with pytest.raises(TopologyError):
            net.connect(a, b, "neg", -1.0)

    def test_peer_requires_single_link(self, pair):
        sim, net, a, b = pair
        c = net.add(Echo(sim, "C"))
        net.connect(a, c, "test", 0.1)
        with pytest.raises(TopologyError):
            a.peer("test")  # two links on "test"
        assert {p.name for p in a.peers("test")} == {"B", "C"}

    def test_peer_memo_cleared_when_a_second_link_attaches(self, pair):
        sim, net, a, b = pair
        assert a.peer("test") is b
        assert a.peer("test") is b  # memoised
        net.connect(a, net.add(Echo(sim, "C")), "test", 0.1)
        with pytest.raises(TopologyError) as ambiguous:
            a.peer("test")
        assert str(ambiguous.value) == "'A' has 2 links on 'test', expected 1"
        with pytest.raises(TopologyError) as absent:
            a.peer("none")
        with pytest.raises(TopologyError) as again:
            a.peer("none")  # the error path is not memoised
        assert str(absent.value) == str(again.value)

    def test_inventory_and_link_table(self, pair):
        _, net, _, _ = pair
        assert ("A", "Caller") in net.inventory()
        assert ("A", "B", "test", 0.1) in net.link_table()

    def test_contains(self, pair):
        _, net, _, _ = pair
        assert "A" in net and "missing" not in net


class TestLinkBehaviour:
    def test_down_link_drops(self, pair):
        sim, net, a, b = pair
        link = a.link_to(b)
        link.up = False
        a.send(b, Ping(n=1))
        sim.run()
        assert b.pings == []
        assert sim.metrics.counters("link.test.dropped_down") == {
            "link.test.dropped_down": 1
        }

    def test_wire_fidelity_reparses(self):
        sim = Simulator()
        net = Network(sim)
        a = net.add(Caller(sim, "A"))
        b = net.add(Echo(sim, "B"))
        net.connect(a, b, "t", 0.0, wire_fidelity=True)
        a.send(b, Ping(n=9))
        sim.run()
        assert b.pings == [(9, "A", "t")]

    def test_bit_rate_adds_serialisation_delay(self):
        sim = Simulator()
        net = Network(sim)
        a = net.add(Caller(sim, "A"))
        b = net.add(Echo(sim, "B"))
        net.connect(a, b, "t", 0.0, bit_rate=8.0)  # 1 byte/s
        a.send(b, Ping(n=1))
        sim.run()
        # Ping wire size: 2-byte id + 1-byte field = 3 bytes -> 3 s;
        # the Pong return leg costs the same.
        assert b.pings[0][0] == 1
        assert sim.now == pytest.approx(6.0)

    def test_tx_accounting(self, pair):
        sim, net, a, b = pair
        a.send(b, Ping(n=1))
        sim.run()
        link = a.link_to(b)
        assert link.tx_count == 2  # ping + pong

    def test_trace_records_delivery(self, pair):
        sim, net, a, b = pair
        a.send(b, Ping(n=1))
        sim.run()
        assert sim.trace.triples() == [("Ping", "A", "B"), ("Pong", "B", "A")]


class TestIpCloud:
    def make(self):
        sim = Simulator()
        net = Network(sim)
        cloud = net.add(IPCloud(sim))
        h1 = net.add(IpHost(sim, "H1", IPv4Address.parse("10.0.0.1")))
        h2 = net.add(IpHost(sim, "H2", IPv4Address.parse("10.0.0.2")))
        net.connect(h1, cloud, Interface.IP, 0.01)
        net.connect(h2, cloud, Interface.IP, 0.01)
        h1.attach_to_cloud()
        h2.attach_to_cloud()
        return sim, cloud, h1, h2

    def test_routes_by_destination(self):
        sim, cloud, h1, h2 = self.make()
        got = []

        class RxHost(IpHost):
            @handles(Raw)
            def on_raw(self, msg, src, interface):
                got.append((msg.data, self.rx_reply_addr()))

        # Swap in a receiving host.
        rx = RxHost(sim, "RX", IPv4Address.parse("10.0.0.9"))
        cloud.network.add(rx)
        cloud.network.connect(rx, cloud, Interface.IP, 0.01)
        rx.attach_to_cloud()
        h1.send_ip(rx.ip, Raw(data=b"hi"), dport=99)
        sim.run()
        assert got == [(b"hi", (h1.ip, 99))]

    def test_no_route_counted(self):
        sim, cloud, h1, h2 = self.make()
        h1.send_ip(IPv4Address.parse("10.9.9.9"), Raw(data=b"x"), dport=1)
        sim.run()
        assert sim.metrics.counters("ip.") == {"ip.no_route": 1}

    def test_unregister_removes_route(self):
        sim, cloud, h1, h2 = self.make()
        cloud.unregister(h2.ip)
        h1.send_ip(h2.ip, Raw(data=b"x"), dport=1)
        sim.run()
        assert sim.metrics.counters("ip.") == {"ip.no_route": 1}

    def test_owner_of(self):
        sim, cloud, h1, h2 = self.make()
        assert cloud.owner_of(h1.ip) == "H1"
        with pytest.raises(RoutingError):
            cloud.owner_of(IPv4Address.parse("1.2.3.4"))

    def test_ttl_expiry(self):
        sim, cloud, h1, h2 = self.make()
        pkt = IPv4(src=h1.ip, dst=h2.ip, ttl=1) / UDP(sport=1, dport=1) / Raw(data=b"")
        h1.send(cloud, pkt)
        sim.run()
        assert sim.metrics.counters("ip.") == {"ip.ttl_expired": 1}


class TestInterfaceMetadata:
    def test_all_interfaces_have_specs(self):
        for iface in (Interface.UM, Interface.ABIS, Interface.A, Interface.B,
                      Interface.C, Interface.D, Interface.E, Interface.GB,
                      Interface.GN, Interface.GI):
            assert iface in INTERFACE_SPECS
            assert INTERFACE_SPECS[iface].stack

    def test_figure3_has_ten_links(self):
        assert len(FIGURE3_LINKS) == 10
        assert [row[0] for row in FIGURE3_LINKS] == list(range(1, 11))

    def test_figure3_interfaces_exist(self):
        for _, _, _, iface, _ in FIGURE3_LINKS:
            assert iface in INTERFACE_SPECS

    def test_figure3_links_exist_in_the_built_network(self):
        """Each Figure 3 row is a live link on its interface between
        nodes of the named types.  Row 8 (GGSN to H.323 terminal) has no
        direct link: it is the Gi hop to the IP cloud, then the cloud's
        IP hop to the terminal."""
        from repro.core.network import build_vgprs_network

        nw = build_vgprs_network(seed=1)
        nw.add_ms("MS1", "466920000000001", "+886935000001")
        nw.add_terminal("TERM1", "+886222000001")
        kind = {
            "H.323 terminal": "H323Terminal", "H.323 network": "IPCloud",
            "GGSN": "Ggsn", "SGSN": "Sgsn", "VMSC": "Vmsc", "BSC": "Bsc",
            "BTS": "Bts", "MS": "MobileStation", "VLR": "Vlr", "HLR": "Hlr",
        }
        live = {
            (link.interface, frozenset((type(link.a).__name__,
                                        type(link.b).__name__)))
            for link in nw.net.links
        }
        for num, a, b, iface, _ in FIGURE3_LINKS:
            hops = [(a, b, iface)]
            if num == 8:
                hops = [("GGSN", "H.323 network", Interface.GI),
                        ("H.323 network", "H.323 terminal", Interface.IP)]
            for x, y, hop_iface in hops:
                assert (hop_iface, frozenset((kind[x], kind[y]))) in live, (
                    num, x, y, hop_iface)


class TestIpHostContext:
    def test_rx_context_restored_after_nested_dispatch(self):
        """A handler that sends (triggering nested deliveries later) must
        not leak its rx context; and rx_reply_addr outside a handler is
        an error."""
        sim = Simulator()
        net = Network(sim)
        cloud = net.add(IPCloud(sim))
        seen = []

        class Echoer(IpHost):
            @handles(Raw)
            def on_raw(self, msg, src, interface):
                addr, port = self.rx_reply_addr()
                seen.append((msg.data, str(addr), port))
                if msg.data == b"ping":
                    self.send_ip(addr, Raw(data=b"pong"), dport=port, sport=5)

        a = net.add(Echoer(sim, "A", IPv4Address.parse("10.0.0.1")))
        b = net.add(Echoer(sim, "B", IPv4Address.parse("10.0.0.2")))
        net.connect(a, cloud, Interface.IP, 0.01)
        net.connect(b, cloud, Interface.IP, 0.01)
        a.attach_to_cloud()
        b.attach_to_cloud()
        a.send_ip(b.ip, Raw(data=b"ping"), dport=7, sport=9)
        sim.run()
        assert seen == [
            (b"ping", "10.0.0.1", 9),
            (b"pong", "10.0.0.2", 5),
        ]
        assert a.rx_ip is None and b.rx_ip is None
        with pytest.raises(AssertionError):
            a.rx_reply_addr()

    def test_empty_ip_packet_counted(self):
        sim = Simulator()
        net = Network(sim)
        cloud = net.add(IPCloud(sim))
        host = net.add(IpHost(sim, "H", IPv4Address.parse("10.0.0.1")))
        net.connect(host, cloud, Interface.IP, 0.0)
        host.attach_to_cloud()
        cloud.send(host, IPv4(src=host.ip, dst=host.ip) / UDP(sport=1, dport=1))
        sim.run()
        assert sim.metrics.counters("H.empty_ip") == {"H.empty_ip": 1}
