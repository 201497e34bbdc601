"""Unit tests for node dispatch, forwarding, and host behaviour."""

import pytest

from repro.mld import MldQuery, MldReport
from repro.mld.messages import MldMessage
from repro.net import (
    Address,
    ApplicationData,
    ControlPayload,
    Host,
    Ipv6Packet,
    Message,
    Network,
    Node,
)
from repro.pimdm import MulticastRouter


def two_links_one_router(seed=1):
    net = Network(seed=seed)
    l1 = net.add_link("L1", "2001:db8:1::/64")
    l2 = net.add_link("L2", "2001:db8:2::/64")
    r = MulticastRouter(net.sim, "R", tracer=net.tracer, rng=net.rng)
    r.attach_to(l1, l1.prefix.address_for_host(1))
    r.attach_to(l2, l2.prefix.address_for_host(1))
    net.register_node(r)
    net.on_start(r.start)
    h1 = Host(net.sim, "H1", tracer=net.tracer, rng=net.rng)
    h1.attach_to(l1, l1.prefix.address_for_host(100))
    h2 = Host(net.sim, "H2", tracer=net.tracer, rng=net.rng)
    h2.attach_to(l2, l2.prefix.address_for_host(100))
    net.register_node(h1)
    net.register_node(h2)
    return net, (l1, l2), r, h1, h2


class TestDispatch:
    def test_message_handler_called_by_type(self, net):
        link = net.add_link("L", "2001:db8::/64")
        h = Host(net.sim, "H", rng=net.rng)
        h.attach_to(link, link.prefix.address_for_host(1))
        seen = []
        h.register_message_handler(MldQuery, lambda p, m, i: seen.append(m))
        p = Ipv6Packet(Address("2001:db8::2"), h.primary_address(), MldQuery())
        h.receive(p, h.interfaces[0])
        assert len(seen) == 1

    def test_handler_not_called_for_other_types(self, net):
        link = net.add_link("L", "2001:db8::/64")
        h = Host(net.sim, "H", rng=net.rng)
        h.attach_to(link, link.prefix.address_for_host(1))
        seen = []
        h.register_message_handler(MldQuery, lambda p, m, i: seen.append(m))
        p = Ipv6Packet(
            Address("2001:db8::2"), h.primary_address(),
            MldReport(Address("ff1e::1")),
        )
        h.receive(p, h.interfaces[0])
        assert seen == []

    def test_multiple_handlers_same_type(self, net):
        link = net.add_link("L", "2001:db8::/64")
        h = Host(net.sim, "H", rng=net.rng)
        h.attach_to(link, link.prefix.address_for_host(1))
        seen = []
        h.register_message_handler(MldQuery, lambda p, m, i: seen.append("a"))
        h.register_message_handler(MldQuery, lambda p, m, i: seen.append("b"))
        p = Ipv6Packet(Address("2001:db8::2"), h.primary_address(), MldQuery())
        h.receive(p, h.interfaces[0])
        assert seen == ["a", "b"]

    def test_base_and_subclass_handlers_run_in_type_registration_order(self, net):
        """A payload runs the handlers of every registered type it is an
        instance of: types in the order they were first registered, each
        type's handlers in the order they were added."""
        h = Host(net.sim, "H", rng=net.rng)
        iface = h.attach_to(net.add_link("L", "2001:db8::/64"))
        seen = []
        h.register_message_handler(MldReport, lambda p, m, i: seen.append("report-1"))
        h.register_message_handler(MldMessage, lambda p, m, i: seen.append("mld"))
        h.register_message_handler(Message, lambda p, m, i: seen.append("any"))
        h.register_message_handler(MldReport, lambda p, m, i: seen.append("report-2"))
        report = Ipv6Packet(Address("2001:db8::2"), Address("ff1e::1"),
                            MldReport(Address("ff1e::1")))
        assert h.dispatch_message(report, iface) is True
        assert seen == ["report-1", "report-2", "mld", "any"]
        seen.clear()
        query = Ipv6Packet(Address("2001:db8::2"), Address("ff1e::1"), MldQuery())
        assert h.dispatch_message(query, iface) is True
        assert seen == ["mld", "any"]

    def test_handler_registered_after_first_dispatch_is_used(self, net):
        h = Host(net.sim, "H", rng=net.rng)
        iface = h.attach_to(net.add_link("L", "2001:db8::/64"))
        p = Ipv6Packet(Address("2001:db8::2"), Address("ff1e::1"), MldQuery())
        assert h.dispatch_message(p, iface) is False
        seen = []
        h.register_message_handler(MldQuery, lambda p, m, i: seen.append(m))
        assert h.dispatch_message(p, iface) is True
        assert seen == [p.payload]

    def test_non_message_payload_is_not_dispatched(self, net):
        h = Host(net.sim, "H", rng=net.rng)
        iface = h.attach_to(net.add_link("L", "2001:db8::/64"))
        seen = []
        h.register_message_handler(Message, lambda p, m, i: seen.append(m))
        p = Ipv6Packet(Address("2001:db8::2"), Address("ff1e::1"), "not a message")
        assert h.dispatch_message(p, iface) is False
        assert seen == []

    def test_unicast_not_mine_dropped_by_host(self, net):
        link = net.add_link("L", "2001:db8::/64")
        h = Host(net.sim, "H", tracer=net.tracer, rng=net.rng)
        h.attach_to(link, link.prefix.address_for_host(1))
        p = Ipv6Packet(
            Address("2001:db8::2"), Address("2001:db8::99"),
            ApplicationData(seqno=0),
        )
        h.receive(p, h.interfaces[0])
        assert net.tracer.count("drop", reason="not-mine") == 1

    def test_option_handler_called(self, net):
        from repro.mipv6 import HomeAddressOption

        link = net.add_link("L", "2001:db8::/64")
        h = Host(net.sim, "H", rng=net.rng)
        h.attach_to(link, link.prefix.address_for_host(1))
        seen = []
        h.register_option_handler(HomeAddressOption, lambda p, o, i: seen.append(o))
        p = Ipv6Packet(
            Address("2001:db8::2"),
            h.primary_address(),
            ControlPayload(),
            dest_options=(HomeAddressOption(Address("2001:db8::5")),),
        )
        h.receive(p, h.interfaces[0])
        assert len(seen) == 1

    def test_default_tunnel_handling_re_receives_inner(self, net):
        link = net.add_link("L", "2001:db8::/64")
        h = Host(net.sim, "H", rng=net.rng)
        h.attach_to(link, link.prefix.address_for_host(1))
        me = h.primary_address()
        inner = Ipv6Packet(Address("2001:db8::2"), me, ApplicationData(seqno=7))
        got = []
        h.on_app_data(lambda p, m: got.append(m.seqno))
        h.joined_groups.add(me)  # not used; deliver path is unicast
        seen = []
        h.register_message_handler(ApplicationData, lambda p, m, i: seen.append(m.seqno))
        outer = inner.encapsulate(Address("2001:db8::9"), me)
        h.receive(outer, h.interfaces[0])
        assert seen == [7]
        assert h.load["decapsulations"] == 1


class TestUnicastForwarding:
    def test_router_forwards_between_links(self):
        net, links, r, h1, h2 = two_links_one_router()
        net.start()
        got = []
        h2.register_message_handler(ApplicationData, lambda p, m, i: got.append(m.seqno))
        p = Ipv6Packet(h1.primary_address(), h2.primary_address(), ApplicationData(seqno=5))
        h1.route_and_send(p)
        net.run(until=1.0)
        assert got == [5]

    def test_hop_limit_decremented(self):
        net, links, r, h1, h2 = two_links_one_router()
        net.start()
        hops = []
        h2.register_message_handler(ApplicationData, lambda p, m, i: hops.append(p.hop_limit))
        p = Ipv6Packet(h1.primary_address(), h2.primary_address(), ApplicationData(seqno=0))
        h1.route_and_send(p)
        net.run(until=1.0)
        assert hops == [63]

    def test_hop_limit_exhaustion_drops(self):
        net, links, r, h1, h2 = two_links_one_router()
        net.start()
        got = []
        h2.register_message_handler(ApplicationData, lambda p, m, i: got.append(1))
        p = Ipv6Packet(
            h1.primary_address(), h2.primary_address(),
            ApplicationData(seqno=0), hop_limit=1,
        )
        h1.route_and_send(p)
        net.run(until=1.0)
        assert got == []
        assert net.tracer.count("drop", reason="hop-limit") == 1

    def test_host_uses_default_gateway(self):
        """Hosts without FIB entries hand traffic to an on-link router."""
        net, links, r, h1, h2 = two_links_one_router()
        net.start()
        assert len(h1.routing) == 0
        got = []
        h2.register_message_handler(ApplicationData, lambda p, m, i: got.append(1))
        h1.route_and_send(
            Ipv6Packet(h1.primary_address(), h2.primary_address(), ApplicationData(seqno=0))
        )
        net.run(until=1.0)
        assert got == [1]

    def test_no_gateway_drop(self, net):
        link = net.add_link("L", "2001:db8::/64")
        h = Host(net.sim, "H", tracer=net.tracer, rng=net.rng)
        h.attach_to(link, link.prefix.address_for_host(1))
        ok = h.route_and_send(
            Ipv6Packet(h.primary_address(), Address("2001:db8:ff::1"), ApplicationData(seqno=0))
        )
        assert not ok
        assert net.tracer.count("drop", reason="no-gateway") == 1

    def test_on_link_delivery_bypasses_router(self, net):
        link = net.add_link("L", "2001:db8::/64")
        a = Host(net.sim, "A", rng=net.rng)
        a.attach_to(link, link.prefix.address_for_host(1))
        b = Host(net.sim, "B", rng=net.rng)
        b.attach_to(link, link.prefix.address_for_host(2))
        got = []
        b.register_message_handler(ApplicationData, lambda p, m, i: got.append(p.hop_limit))
        a.route_and_send(Ipv6Packet(a.primary_address(), b.primary_address(), ApplicationData(seqno=0)))
        net.sim.run()
        assert got == [64]  # not decremented: no router crossed


class TestHostMulticast:
    def test_joined_group_delivers_app_data(self, net):
        link = net.add_link("L", "2001:db8::/64")
        a = Host(net.sim, "A", rng=net.rng)
        a.attach_to(link, link.prefix.address_for_host(1))
        b = Host(net.sim, "B", tracer=net.tracer, rng=net.rng)
        b.attach_to(link, link.prefix.address_for_host(2))
        g = Address("ff1e::1")
        b.joined_groups.add(g)
        got = []
        b.on_app_data(lambda p, m: got.append(m.seqno))
        a.send_multicast(g, ApplicationData(seqno=3))
        net.sim.run()
        assert got == [3]

    def test_not_joined_group_ignored(self, net):
        link = net.add_link("L", "2001:db8::/64")
        a = Host(net.sim, "A", rng=net.rng)
        a.attach_to(link, link.prefix.address_for_host(1))
        b = Host(net.sim, "B", rng=net.rng)
        b.attach_to(link, link.prefix.address_for_host(2))
        got = []
        b.on_app_data(lambda p, m: got.append(m.seqno))
        a.send_multicast(Address("ff1e::1"), ApplicationData(seqno=3))
        net.sim.run()
        assert got == []

    def test_send_multicast_detached_returns_none(self, net):
        h = Host(net.sim, "H", rng=net.rng)
        h.new_interface()
        assert h.send_multicast(Address("ff1e::1"), ApplicationData(seqno=0)) is None

    def test_send_multicast_uses_link_address(self, net):
        link = net.add_link("L", "2001:db8::/64")
        h = Host(net.sim, "H", rng=net.rng)
        h.attach_to(link, link.prefix.address_for_host(9))
        p = h.send_multicast(Address("ff1e::1"), ApplicationData(seqno=0))
        assert p.src == link.prefix.address_for_host(9)

    def test_load_counter_increments(self, net):
        link = net.add_link("L", "2001:db8::/64")
        a = Host(net.sim, "A", rng=net.rng)
        a.attach_to(link, link.prefix.address_for_host(1))
        b = Host(net.sim, "B", rng=net.rng)
        b.attach_to(link, link.prefix.address_for_host(2))
        a.send_multicast(Address("ff1e::1"), ApplicationData(seqno=0))
        net.sim.run()
        assert b.load["packets_processed"] == 1
