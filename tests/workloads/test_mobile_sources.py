"""Traffic sources driving mobile nodes: losses and mode interactions."""

import pytest

from repro.mipv6 import DeliveryMode, MobileIpv6Config, MobileNode
from repro.net import Address
from repro.traffic import CbrSource, OnOffSource

from topo_helpers import build_line

GROUP = Address("ff1e::1")


def mobile_sender(send_mode=DeliveryMode.LOCAL, handoff_delay=0.5):
    topo = build_line(2, use_home_agents=True)
    mn = MobileNode(
        topo.net.sim, "MN", tracer=topo.net.tracer, rng=topo.net.rng,
        home_link=topo.links[0],
        home_agent_address=topo.routers[0].address_on(topo.links[0]),
        host_id=0x64,
        config=MobileIpv6Config(handoff_delay=handoff_delay),
        send_mode=send_mode,
    )
    topo.net.register_node(mn)
    return topo, mn


class TestCbrOnMobileNode:
    def test_datagrams_lost_while_detached(self):
        topo, mn = mobile_sender(handoff_delay=2.0)
        src = CbrSource(mn, GROUP, packet_interval=0.1)
        src.start(at=1.0)
        topo.net.run(until=5.0)
        mn.move_to(topo.links[2])  # 2 s detached
        topo.net.run(until=10.0)
        # ~20 ticks fall into the detached window
        assert 15 <= mn.handoff_losses <= 25
        assert src.sent > mn.handoff_losses

    def test_source_uses_tunnel_mode_after_move(self):
        topo, mn = mobile_sender(send_mode=DeliveryMode.HA_TUNNEL)
        src = CbrSource(mn, GROUP, packet_interval=0.1)
        src.start(at=1.0)
        topo.net.run(until=3.0)
        assert mn.load["encapsulations"] == 0  # at home: native
        mn.move_to(topo.links[2])
        topo.net.run(until=20.0)
        assert mn.load["encapsulations"] > 100  # away: tunneled
        assert topo.routers[0].reverse_tunneled > 100

    def test_erroneous_window_counted(self):
        topo, mn = mobile_sender()
        src = CbrSource(mn, GROUP, packet_interval=0.05)
        src.start(at=1.0)
        topo.net.run(until=3.0)
        mn.move_to(topo.links[2])
        topo.net.run(until=10.0)
        # attach at +0.5s, CoA at +2.0s: ~1.5s of stale-source sends
        stale = topo.net.tracer.count("mobility", event="erroneous-source-send")
        assert 20 <= stale <= 40


class TestOnOffDeterminism:
    def test_same_seed_same_phases(self):
        def run(seed):
            topo = build_line(1, seed=seed)
            host = topo.host_on(0, 100, "S")
            src = OnOffSource(host, GROUP, packet_interval=0.1,
                              mean_on=3.0, mean_off=3.0, flow="d")
            src.start()
            topo.net.run(until=60.0)
            return src.sent

        assert run(5) == run(5)

    def test_stop_mid_phase(self):
        topo = build_line(1)
        host = topo.host_on(0, 100, "S")
        src = OnOffSource(host, GROUP, packet_interval=0.1,
                          mean_on=5.0, mean_off=5.0)
        src.start()
        topo.net.run(until=10.0)
        count = src.sent
        src.stop()
        topo.net.run(until=60.0)
        assert src.sent == count
