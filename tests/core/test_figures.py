"""Reproduction tests for the paper's Figures 1-4 (integration level).

Each test runs the Figure 1 network through the exact scenario the
figure depicts and checks the resulting distribution tree / tunnels.
"""

import pytest

from repro.core import (
    BIDIRECTIONAL_TUNNEL,
    LOCAL_MEMBERSHIP,
    PaperScenario,
    ScenarioConfig,
)
from repro.net import Address


@pytest.fixture(scope="module")
def fig1():
    """Converged Figure 1 scenario (local membership approach)."""
    sc = PaperScenario(ScenarioConfig(seed=11, approach=LOCAL_MEMBERSHIP))
    sc.converge()
    return sc


class TestFigure1:
    """Initial multicast distribution tree for (S on Link 1, G)."""

    def test_tree_spans_links_1_to_4(self, fig1):
        tree = fig1.current_tree()
        assert tree["A"] == ["L2"]
        assert tree["D"] == ["L4"]
        # exactly one of the parallel pair forwards onto L3
        assert sorted(tree["B"] + tree["C"]) == ["L3"]

    def test_links_5_and_6_off_tree(self, fig1):
        tree = fig1.current_tree()
        for links in tree.values():
            assert "L5" not in links and "L6" not in links
        assert fig1.net.stats.link_bytes("L5", "mcast_data") == 0
        assert fig1.net.stats.link_bytes("L6", "mcast_data") == 0

    def test_assert_elected_single_forwarder_on_l3(self, fig1):
        """B and C both start forwarding onto L3; the assert election
        (equal metric, higher address wins) leaves only C."""
        tree = fig1.current_tree()
        assert tree["C"] == ["L3"]
        assert tree["B"] == []
        assert fig1.metrics.assert_count() >= 2

    def test_all_receivers_get_traffic(self, fig1):
        for name in ("R1", "R2", "R3"):
            assert fig1.apps[name].unique_count > 150

    def test_e_pruned(self, fig1):
        """E has no members and no downstream routers: it prunes."""
        assert fig1.net.tracer.count("pim", node="E", event="prune-sent") >= 1

    def test_join_override_protected_d(self, fig1):
        """E's prune on L3 must not cut D off: D join-overrides."""
        assert fig1.apps["R3"].unique_count > 150  # D kept receiving


class TestFigure2:
    """Mobile receiver, local group membership: R3 moves Link 4 -> Link 6."""

    @pytest.fixture(scope="class")
    def fig2(self):
        sc = PaperScenario(ScenarioConfig(seed=12, approach=LOCAL_MEMBERSHIP))
        sc.converge()
        sc.move("R3", "L6", at=40.0)
        sc.run_until(80.0)
        return sc

    def test_e_grafts_link6_onto_tree(self, fig2):
        tree = fig2.current_tree()
        assert tree["E"] == ["L6"]
        assert fig2.metrics.graft_count(since=40.0) >= 1

    def test_r3_receives_after_short_join_delay(self, fig2):
        delay = fig2.join_delay("R3", 40.0)
        # handoff (0.1) + detection (1.0) + CoA (0.5) + report/graft
        assert delay is not None and 1.5 < delay < 3.0

    def test_leave_delay_link4_still_forwarding(self, fig2):
        """Router D still 'believes' a member is on Link 4 (Figure 2)."""
        tree = fig2.current_tree()
        assert "L4" in tree["D"]

    def test_leave_detected_within_t_mli(self):
        sc = PaperScenario(ScenarioConfig(seed=13, approach=LOCAL_MEMBERSHIP))
        sc.converge()
        sc.move("R3", "L6", at=40.0)
        sc.run_until(40.0 + 260.0 + 30.0)
        leave = sc.leave_delay("L4", 40.0)
        assert leave is not None and 0 < leave <= 260.0
        assert "L4" not in sc.current_tree()["D"]


class TestFigure3:
    """Mobile receiver via HA tunnel: R3 moves Link 4 -> Link 1."""

    @pytest.fixture(scope="class")
    def fig3(self):
        sc = PaperScenario(ScenarioConfig(seed=14, approach=BIDIRECTIONAL_TUNNEL))
        sc.converge()
        sc.move("R3", "L1", at=40.0)
        sc.run_until(80.0)
        return sc

    def test_tunnel_established_from_router_d(self, fig3):
        d = fig3.paper.router("D")
        entry = d.binding_cache.get(fig3.paper.host("R3").home_address)
        assert entry is not None
        assert fig3.paper.link("L1").prefix.contains(entry.care_of_address)

    def test_home_agent_joined_on_behalf(self, fig3):
        d = fig3.paper.router("D")
        assert d.groups_on_behalf() == [fig3.group]

    def test_datagrams_tunneled_to_r3(self, fig3):
        d = fig3.paper.router("D")
        assert d.tunneled_to_mobiles > 100
        assert fig3.net.tracer.count("mipv6", node="R3", event="tunnel-mcast-received") > 100

    def test_tree_unchanged(self, fig3):
        tree = fig3.current_tree()
        assert tree["A"] == ["L2"]
        assert "L4" in tree["D"]  # leave delay: D still serves Link 4

    def test_routing_suboptimal_links_crossed_twice(self, fig3):
        """Data reaches Link 1's receiver after crossing to D and back:
        latency is several times the one-link optimum."""
        window = [
            d for d in fig3.apps["R3"].deliveries_between(60.0, 80.0)
            if not d.duplicate
        ]
        assert window
        mean_latency = sum(d.latency for d in window) / len(window)
        optimal = fig3.metrics.optimal_latency("L1", "L1", 1000)
        assert mean_latency > 3 * optimal


class TestFigure4:
    """Mobile sender via tunnel to HA: S moves Link 1 -> Link 6."""

    @pytest.fixture(scope="class")
    def fig4(self):
        sc = PaperScenario(ScenarioConfig(seed=15, approach=BIDIRECTIONAL_TUNNEL))
        sc.converge()
        sc.move("S", "L6", at=40.0)
        sc.run_until(90.0)
        return sc

    def test_tree_still_rooted_at_home_link(self, fig4):
        tree = fig4.current_tree()
        assert tree["A"] == ["L2"]
        assert tree["D"] == ["L4"]

    def test_no_new_source_tree(self, fig4):
        coa = fig4.paper.host("S").care_of_address
        assert coa is not None
        assert fig4.metrics.entries_created(source=coa, since=40.0) == 0

    def test_reverse_tunnel_carries_traffic(self, fig4):
        a = fig4.paper.router("A")
        assert a.reverse_tunneled > 500
        assert fig4.paper.host("S").load["encapsulations"] > 500

    def test_receivers_keep_receiving(self, fig4):
        for name in ("R1", "R2", "R3"):
            assert fig4.apps[name].first_delivery_after(50.0) is not None

    def test_inner_source_is_home_address(self, fig4):
        """Tunneled datagrams carry the home address as inner source, so
        the original (S on Link 1, G) tree keeps matching."""
        home = fig4.paper.host("S").home_address
        deliveries = fig4.net.tracer.query(
            "mcast.deliver", node="R3", since=50.0, src=str(home)
        )
        assert next(deliveries, None) is not None
