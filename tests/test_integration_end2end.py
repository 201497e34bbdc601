"""End-to-end integration scenarios across all subsystems.

These run the full Figure 1 network through combined situations the
unit tests don't reach: simultaneous sender+receiver mobility, multiple
groups, the paper's duplicate-unicast criticism (two tunnel receivers
on one foreign link), mid-stream return home, and querier takeover with
membership continuity.
"""

import pytest

from repro.core import (
    BIDIRECTIONAL_TUNNEL,
    LOCAL_MEMBERSHIP,
    TUNNEL_MH_TO_HA,
    PaperScenario,
    ScenarioConfig,
)
from repro.net import make_multicast_group
from repro.traffic import CbrSource, ReceiverApp


class TestSenderAndReceiverBothMobile:
    """The paper's 'general case ... derived by combining these
    scenarios' (§4.2): S and R3 both roam at once."""

    @pytest.fixture(scope="class", params=["local", "bidir", "ut-mh-ha"])
    def sc(self, request):
        approach = {
            "local": LOCAL_MEMBERSHIP,
            "bidir": BIDIRECTIONAL_TUNNEL,
            "ut-mh-ha": TUNNEL_MH_TO_HA,
        }[request.param]
        sc = PaperScenario(ScenarioConfig(seed=31, approach=approach))
        sc.converge()
        sc.move("S", "L5", at=40.0)
        sc.move("R3", "L6", at=41.0)
        sc.run_until(100.0)
        return sc

    def test_stream_resumes_for_moved_receiver(self, sc):
        delivery = sc.apps["R3"].first_delivery_after(50.0)
        assert delivery is not None
        assert delivery.time < 60.0

    def test_static_receivers_unaffected(self, sc):
        for name in ("R1", "R2"):
            assert sc.apps[name].first_delivery_after(50.0) is not None

    def test_no_runaway_event_count(self, sc):
        # sanity against protocol storms: < 200 events per sim second
        assert sc.net.sim.events_dispatched < 200 * sc.now


class TestTwoTunnelReceiversOneLink:
    """§4.3.2: 'If several mobile members of the same multicast group
    are located on the same foreign link, they will all receive group
    traffic via their tunnel' — per-member unicast copies."""

    @pytest.fixture(scope="class")
    def sc(self):
        sc = PaperScenario(ScenarioConfig(seed=32, approach=BIDIRECTIONAL_TUNNEL))
        extra = sc.paper.add_host("R4", "L4", host_id=140)
        sc.extra_app = ReceiverApp(extra)
        sc.converge()
        extra.join_group(sc.group)
        sc.run_for(2.0)
        sc.move("R3", "L6", at=40.0)
        sc.net.sim.schedule_at(
            40.0, extra.move_to, sc.paper.link("L6")
        )
        sc.run_until(80.0)
        return sc

    def test_both_receive_via_their_own_tunnel(self, sc):
        assert sc.apps["R3"].first_delivery_after(50.0) is not None
        assert sc.extra_app.first_delivery_after(50.0) is not None

    def test_duplicate_unicast_copies_on_shared_link(self, sc):
        """Each datagram crosses Link 6 once per tunnel receiver — the
        redundancy that 'reduces the benefit of multicasting'."""
        d = sc.paper.router("D")
        # D encapsulated one copy per subscribed binding per datagram
        assert len(d.binding_cache.subscribers_of(sc.group)) == 2
        per_receiver = sc.net.tracer.count(
            "mipv6", node="D", event="tunnel-mcast-to-mn", since=45.0
        )
        datagrams = sc.net.tracer.count(
            "mipv6", node="D", event="tunnel-mcast-to-mn", since=45.0,
            home=str(sc.paper.host("R3").home_address),
        )
        assert per_receiver == pytest.approx(2 * datagrams, abs=4)

    def test_local_membership_would_share_one_copy(self):
        """Contrast: under local membership the same two receivers share
        a single multicast copy on Link 6."""
        sc = PaperScenario(ScenarioConfig(seed=33, approach=LOCAL_MEMBERSHIP))
        extra = sc.paper.add_host("R4", "L4", host_id=140)
        app = ReceiverApp(extra)
        sc.converge()
        extra.join_group(sc.group)
        sc.run_for(2.0)
        before = sc.metrics.snapshot()
        sc.move("R3", "L6", at=40.0)
        sc.net.sim.schedule_at(40.0, extra.move_to, sc.paper.link("L6"))
        sc.run_until(70.0)
        delta = sc.metrics.snapshot().delta(before)
        window = 70.0 - 45.0
        rate = 1.0 / sc.config.packet_interval
        copies = delta.bytes_on("L6", "mcast_data") / (
            (sc.config.payload_bytes + 40) * rate * window
        )
        # one multicast copy serves both members (±startup effects)
        assert copies < 1.5
        assert app.first_delivery_after(50.0) is not None


class TestMultipleGroups:
    def test_independent_trees_and_deliveries(self):
        sc = PaperScenario(ScenarioConfig(seed=34, approach=LOCAL_MEMBERSHIP))
        g2 = make_multicast_group(2)
        src2 = CbrSource(sc.paper.host("R1"), g2, packet_interval=0.1, flow="g2")
        sc.converge()
        # R3 subscribes to both groups
        sc.paper.host("R3").join_group(g2)
        src2.start()
        sc.run_for(10.0)
        r3 = sc.apps["R3"]
        flows = {d.flow for d in r3.deliveries}
        assert {"S-flow", "g2"} <= flows
        # two distinct (S,G) trees exist at Router D
        d = sc.paper.router("D")
        assert len(d.pim.entries) >= 2

    def test_leaving_one_group_keeps_the_other(self):
        sc = PaperScenario(ScenarioConfig(seed=35, approach=LOCAL_MEMBERSHIP))
        g2 = make_multicast_group(2)
        src2 = CbrSource(sc.paper.host("R1"), g2, packet_interval=0.1, flow="g2")
        sc.converge()
        r3 = sc.paper.host("R3")
        r3.join_group(g2)
        src2.start()
        sc.run_for(5.0)
        r3.leave_group(g2)  # Done -> fast leave for g2 only
        sc.run_for(10.0)
        late = sc.apps["R3"].deliveries_between(sc.now - 5.0, sc.now)
        flows = {d.flow for d in late}
        assert "S-flow" in flows
        assert "g2" not in flows


class TestReturnHomeMidStream:
    def test_receiver_returns_home(self):
        sc = PaperScenario(ScenarioConfig(seed=36, approach=BIDIRECTIONAL_TUNNEL))
        sc.converge()
        sc.move("R3", "L6", at=40.0)
        sc.run_until(70.0)
        assert sc.paper.router("D").groups_on_behalf() == [sc.group]
        sc.move("R3", "L4", at=70.0)
        sc.run_until(100.0)
        r3 = sc.paper.host("R3")
        assert r3.at_home
        # binding + on-behalf membership torn down
        d = sc.paper.router("D")
        assert d.binding_cache.get(r3.home_address) is None
        assert d.groups_on_behalf() == []
        # reception continues natively at home
        assert sc.apps["R3"].first_delivery_after(85.0) is not None

    def test_sender_returns_home(self):
        sc = PaperScenario(ScenarioConfig(seed=37, approach=BIDIRECTIONAL_TUNNEL))
        sc.converge()
        sc.move("S", "L6", at=40.0)
        sc.run_until(70.0)
        reverse_before = sc.paper.router("A").reverse_tunneled
        assert reverse_before > 0
        sc.move("S", "L1", at=70.0)
        sc.run_until(100.0)
        # tunneling stopped; native sending resumed; receivers fine
        a = sc.paper.router("A")
        assert a.reverse_tunneled - reverse_before < 5
        for name in ("R1", "R2", "R3"):
            assert sc.apps[name].first_delivery_after(85.0) is not None


class TestQuerierContinuity:
    def test_membership_survives_querier_takeover(self):
        """Link 2 has three routers (A, B, C); A (lowest address) is the
        querier.  When A dies, B takes over querier duty and R2's
        membership keeps being refreshed."""
        from repro.mld import MldConfig

        mld = MldConfig(query_interval=15.0, query_response_interval=5.0,
                        startup_query_interval=4.0)
        sc = PaperScenario(ScenarioConfig(seed=38, mld=mld))
        sc.converge()
        a, b = sc.paper.router("A"), sc.paper.router("B")
        l2_iface_b = b.iface_on(sc.paper.link("L2"))
        assert not b.mld_router.is_querier(l2_iface_b)  # A is querier
        # A dies
        for iface in list(a.interfaces):
            iface.detach()
        sc.net.build_routes()
        horizon = sc.now + mld.other_querier_present_interval + 40.0
        sc.run_until(horizon)
        assert b.mld_router.is_querier(l2_iface_b)
        # R2's membership on Link 2 never lapsed at B
        assert b.mld_router.has_members(l2_iface_b, sc.group)
