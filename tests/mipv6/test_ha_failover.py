"""Tests for home-agent redundancy / failover.

The paper's outlook (§5) points at home agent redundancy and load
balancing (its reference [10]).  A mobile node configured with
alternate home agents rotates to the next one when Binding Updates to
the current one go unanswered.
"""

import pytest

from repro.mipv6 import DeliveryMode, HomeAgent, MobileIpv6Config, MobileNode
from repro.net import Address, ApplicationData, Host, Network
from repro.traffic import CbrSource, ReceiverApp

GROUP = Address("ff1e::1")


def dual_ha_network(seed=3):
    """Home link with two home agents, a backbone, and a foreign link."""
    net = Network(seed=seed)
    home = net.add_link("home", "2001:db8:1::/64")
    backbone = net.add_link("backbone", "2001:db8:2::/64")
    foreign = net.add_link("foreign", "2001:db8:3::/64")
    ha1 = HomeAgent(net.sim, "HA1", tracer=net.tracer, rng=net.rng)
    ha2 = HomeAgent(net.sim, "HA2", tracer=net.tracer, rng=net.rng)
    for i, ha in enumerate((ha1, ha2), start=1):
        ha.attach_to(home, home.prefix.address_for_host(i))
        ha.attach_to(backbone, backbone.prefix.address_for_host(i))
        net.register_node(ha)
        net.on_start(ha.start)
    edge = HomeAgent(net.sim, "EDGE", tracer=net.tracer, rng=net.rng)
    edge.attach_to(backbone, backbone.prefix.address_for_host(3))
    edge.attach_to(foreign, foreign.prefix.address_for_host(3))
    net.register_node(edge)
    net.on_start(edge.start)
    mn = MobileNode(
        net.sim, "MN", tracer=net.tracer, rng=net.rng,
        home_link=home,
        home_agent_address=ha1.address_on(home),
        alternate_home_agents=[ha2.address_on(home)],
        host_id=0x64,
        config=MobileIpv6Config(bu_retransmit_interval=0.5, bu_max_retransmits=2),
        recv_mode=DeliveryMode.HA_TUNNEL,
        send_mode=DeliveryMode.HA_TUNNEL,
    )
    net.register_node(mn)
    return net, (home, backbone, foreign), (ha1, ha2, edge), mn


def fail(ha, net):
    """Take a router down and let unicast routing reconverge.

    Mobile IPv6 and PIM both assume a working unicast routing protocol;
    rebuilding the FIBs models its convergence after the failure."""
    for iface in list(ha.interfaces):
        iface.detach()
    net.build_routes()


class TestFailover:
    def test_no_failover_when_primary_alive(self):
        net, links, (ha1, ha2, edge), mn = dual_ha_network()
        net.run(until=1.0)
        mn.move_to(links[2])
        net.run(until=10.0)
        assert mn.ha_failovers == 0
        assert ha1.binding_cache.get(mn.home_address) is not None
        assert ha2.binding_cache.get(mn.home_address) is None

    def test_failover_to_backup_when_primary_dead(self):
        net, links, (ha1, ha2, edge), mn = dual_ha_network()
        net.run(until=1.0)
        fail(ha1, net)
        mn.move_to(links[2])
        net.run(until=20.0)
        assert mn.ha_failovers >= 1
        assert net.tracer.count("mipv6", node="MN", event="ha-failover") >= 1
        assert ha2.binding_cache.get(mn.home_address) is not None
        assert mn.home_agent_address == ha2.address_on(links[0])

    def test_multicast_resumes_via_backup(self):
        net, links, (ha1, ha2, edge), mn = dual_ha_network()
        src_host = Host(net.sim, "SRC", tracer=net.tracer, rng=net.rng)
        src_host.attach_to(links[0], links[0].prefix.address_for_host(100))
        net.register_node(src_host)
        app = ReceiverApp(mn)
        mn.join_group(GROUP)
        source = CbrSource(src_host, GROUP, packet_interval=0.2)
        source.start(at=2.0)
        net.run(until=5.0)
        fail(ha1, net)
        mn.move_to(links[2])
        net.run(until=40.0)
        # the backup HA joined on behalf and tunnels the stream
        assert ha2.groups_on_behalf() == [GROUP]
        assert app.first_delivery_after(20.0) is not None

    def test_failover_cycles_back(self):
        """With both HAs dead the mobile keeps rotating (and trying)."""
        net, links, (ha1, ha2, edge), mn = dual_ha_network()
        net.run(until=1.0)
        fail(ha1, net)
        fail(ha2, net)
        mn.move_to(links[2])
        net.run(until=30.0)
        assert mn.ha_failovers >= 2
        # no binding anywhere, but the node never crashed
        assert ha1.binding_cache.get(mn.home_address) is None
        assert ha2.binding_cache.get(mn.home_address) is None

    def test_single_ha_gives_up(self):
        net = Network(seed=4)
        home = net.add_link("home", "2001:db8:1::/64")
        foreign = net.add_link("foreign", "2001:db8:2::/64")
        ha = HomeAgent(net.sim, "HA", tracer=net.tracer, rng=net.rng)
        ha.attach_to(home, home.prefix.address_for_host(1))
        ha.attach_to(foreign, foreign.prefix.address_for_host(1))
        net.register_node(ha)
        net.on_start(ha.start)
        mn = MobileNode(
            net.sim, "MN", tracer=net.tracer, rng=net.rng,
            home_link=home, home_agent_address=ha.address_on(home),
            host_id=0x64,
            config=MobileIpv6Config(bu_retransmit_interval=0.5,
                                    bu_max_retransmits=2),
        )
        net.register_node(mn)
        net.run(until=1.0)
        fail(ha, net)
        mn.move_to(foreign)
        net.run(until=20.0)
        assert net.tracer.count("mipv6", node="MN", event="bu-gave-up") == 1
        assert mn.ha_failovers == 0
