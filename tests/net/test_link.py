"""Unit tests for multi-access links: delivery, timing, neighbor cache."""

import pytest

from repro.net import Address, ApplicationData, Host, Ipv6Packet, Network, Prefix
from repro.net.link import Link
from repro.sim import Simulator, Tracer


def build(n_hosts=3, delay=1e-3, bandwidth=1e6):
    net = Network(seed=1)
    link = net.add_link("LAN", "2001:db8:9::/64", delay=delay, bandwidth_bps=bandwidth)
    hosts = []
    for i in range(n_hosts):
        h = Host(net.sim, f"H{i}", tracer=net.tracer, rng=net.rng)
        h.attach_to(link, link.prefix.address_for_host(i + 1))
        net.register_node(h)
        hosts.append(h)
    return net, link, hosts


def packet(src, dst, size=1000):
    return Ipv6Packet(src, dst, ApplicationData(seqno=0, payload_bytes=size))


class TestDelivery:
    def test_flood_reaches_all_but_sender(self):
        net, link, hosts = build(4)
        got = []
        for h in hosts:
            h.receive = lambda p, i, name=h.name: got.append(name)  # type: ignore
        p = packet(hosts[0].primary_address(), Address("ff1e::1"))
        link.transmit(hosts[0].interfaces[0], p)
        net.sim.run()
        assert sorted(got) == ["H1", "H2", "H3"]

    def test_l2_unicast_reaches_only_target(self):
        net, link, hosts = build(3)
        got = []
        for h in hosts:
            h.receive = lambda p, i, name=h.name: got.append(name)  # type: ignore
        p = packet(hosts[0].primary_address(), hosts[2].primary_address())
        link.transmit(hosts[0].interfaces[0], p, l2_dst=hosts[2].interfaces[0])
        net.sim.run()
        assert got == ["H2"]

    def test_arrival_time_includes_tx_and_delay(self):
        net, link, hosts = build(2, delay=1e-3, bandwidth=1e6)
        times = []
        hosts[1].receive = lambda p, i: times.append(net.sim.now)  # type: ignore
        p = packet(hosts[0].primary_address(), hosts[1].primary_address(), size=1000)
        # 1040 bytes at 1 Mbit/s = 8.32 ms tx + 1 ms prop
        link.transmit(hosts[0].interfaces[0], p, l2_dst=hosts[1].interfaces[0])
        net.sim.run()
        assert times[0] == pytest.approx(0.00932, abs=1e-6)

    def test_fifo_serialization_queues_back_to_back(self):
        net, link, hosts = build(2, delay=0.0, bandwidth=1e6)
        times = []
        hosts[1].receive = lambda p, i: times.append(net.sim.now)  # type: ignore
        src = hosts[0].primary_address()
        dst = hosts[1].primary_address()
        for _ in range(2):
            link.transmit(
                hosts[0].interfaces[0], packet(src, dst, 1000),
                l2_dst=hosts[1].interfaces[0],
            )
        net.sim.run()
        # second packet waits for the first's 8.32 ms serialization
        assert times[1] - times[0] == pytest.approx(0.00832, abs=1e-6)

    def test_detached_interface_misses_in_flight_frame(self):
        """Handoff loss: frames in flight when the MN detaches are gone."""
        net, link, hosts = build(2, delay=10e-3)
        got = []
        hosts[1].receive = lambda p, i: got.append(1)  # type: ignore
        p = packet(hosts[0].primary_address(), Address("ff1e::1"))
        link.transmit(hosts[0].interfaces[0], p)
        net.sim.schedule(0.001, hosts[1].interfaces[0].detach)
        net.sim.run()
        assert got == []

    def test_reattached_interface_gets_in_flight_frame(self):
        """A frame in flight to an interface that left and rejoined the
        same link before arrival is delivered."""
        net, link, hosts = build(2, delay=10e-3)
        got = []
        hosts[1].receive = lambda p, i: got.append(i)  # type: ignore
        iface = hosts[1].interfaces[0]
        p = packet(hosts[0].primary_address(), Address("ff1e::1"))
        link.transmit(hosts[0].interfaces[0], p)
        net.sim.schedule(0.001, iface.detach)
        net.sim.schedule(0.002, iface.attach, link)
        net.sim.run()
        assert got == [iface]
        assert net.stats.link_drops("LAN", "receiver-detached") == 0

    def test_interface_moved_to_other_link_misses_in_flight_frame(self):
        """A frame in flight to an interface that is on another link by
        arrival time is lost and counted as ``receiver-detached``."""
        net, link, hosts = build(2, delay=10e-3)
        other = net.add_link("WLAN", "2001:db8:8::/64")
        got = []
        hosts[1].receive = lambda p, i: got.append(i)  # type: ignore
        iface = hosts[1].interfaces[0]
        p = packet(hosts[0].primary_address(), Address("ff1e::1"))
        link.transmit(hosts[0].interfaces[0], p)
        net.sim.schedule(0.001, iface.detach)
        net.sim.schedule(0.002, iface.attach, other)
        net.sim.run()
        assert got == []
        assert net.stats.link_drops("LAN", "receiver-detached") == 1

    def test_flood_follows_attachment_list_after_churn(self):
        """After detaches and attaches, a flood reaches exactly
        ``link.interfaces`` minus the sender, in list order."""
        net, link, hosts = build(4)
        hosts[1].interfaces[0].detach()
        hosts[1].interfaces[0].attach(link)  # rejoins at the end
        hosts[2].interfaces[0].detach()
        late = Host(net.sim, "H4", tracer=net.tracer, rng=net.rng)
        late.attach_to(link, link.prefix.address_for_host(5))
        got = []
        for h in hosts + [late]:
            h.receive = lambda p, i, name=h.name: got.append(name)  # type: ignore
        sender = hosts[3].interfaces[0]
        link.transmit(sender, packet(hosts[3].primary_address(), Address("ff1e::1")))
        net.sim.run()
        assert got == [i.node.name for i in link.interfaces if i is not sender]
        assert got == ["H0", "H1", "H4"]

    def test_send_from_detached_interface_dropped(self):
        net, link, hosts = build(2)
        hosts[0].interfaces[0].detach()
        hosts[0].interfaces[0].send(
            packet(Address("2001:db8:9::1"), Address("ff1e::1"))
        )
        net.sim.run()  # nothing scheduled, nothing crashes

    def test_transmit_after_sender_detached_accounts_drop(self):
        """A send that fires after the interface left the link (mobile
        handoff) is a loss like any other: it must be accounted as a
        ``sender-detached`` drop, not silently swallowed."""
        net, link, hosts = build(2)
        iface = hosts[0].interfaces[0]
        p = packet(Address("2001:db8:9::1"), Address("ff1e::1"))
        # The protocol stack scheduled the send, then the node moved.
        net.sim.schedule(1.0, link.transmit, iface, p)
        net.sim.schedule_at(0.5, iface.detach)
        net.sim.run()
        assert net.stats.link_drops("LAN", "sender-detached") == 1
        drops = list(net.tracer.query(category="drop", reason="sender-detached"))
        assert len(drops) == 1
        assert drops[0].detail["dst"] == "ff1e::1"
        # No frame was delivered to the remaining host.
        assert net.tracer.count(category="link") == 0


class TestNeighborCache:
    def test_resolve_attached_address(self):
        net, link, hosts = build(2)
        assert link.resolve(hosts[1].primary_address()) is hosts[1].interfaces[0]

    def test_resolve_unknown_none(self):
        net, link, hosts = build(1)
        assert link.resolve(Address("2001:db8:9::ff")) is None

    def test_detach_clears_entries(self):
        net, link, hosts = build(2)
        addr = hosts[1].primary_address()
        hosts[1].interfaces[0].detach()
        assert link.resolve(addr) is None

    def test_proxy_registration(self):
        """The home-agent intercept: HA binds the MN's address to itself."""
        net, link, hosts = build(2)
        mn_home = Address("2001:db8:9::64")
        link.register_address(hosts[0].interfaces[0], mn_home)
        assert link.resolve(mn_home) is hosts[0].interfaces[0]
        link.unregister_address(mn_home)
        assert link.resolve(mn_home) is None

    def test_register_requires_attachment(self):
        net, link, hosts = build(1)
        other = Host(net.sim, "X", rng=net.rng)
        iface = other.new_interface()
        with pytest.raises(ValueError):
            link.register_address(iface, Address("2001:db8:9::9"))


class TestAccounting:
    def test_bytes_charged_per_transmission(self):
        net, link, hosts = build(2)
        p = packet(hosts[0].primary_address(), Address("ff1e::1"), 500)
        link.transmit(hosts[0].interfaces[0], p)
        net.sim.run()
        assert net.stats.link_bytes("LAN", "mcast_data") == 540

    def test_double_attach_rejected(self):
        net, link, hosts = build(1)
        with pytest.raises(ValueError):
            link.attach(hosts[0].interfaces[0])

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "bad", Prefix("2001:db8::/64"), delay=-1.0)
        with pytest.raises(ValueError):
            Link(sim, "bad", Prefix("2001:db8::/64"), bandwidth_bps=0.0)
        # frame arrivals are queued unchecked, so NaN must not get in
        with pytest.raises(ValueError):
            Link(sim, "bad", Prefix("2001:db8::/64"), delay=float("nan"))
        with pytest.raises(ValueError):
            Link(sim, "bad", Prefix("2001:db8::/64"), bandwidth_bps=float("nan"))
