"""Unit tests for scenario metrics."""

import pytest

from repro.core import LOCAL_MEMBERSHIP, PaperScenario, ScenarioConfig
from repro.core.metrics import StatsSnapshot, per_hop_latency


@pytest.fixture(scope="module")
def ran():
    sc = PaperScenario(ScenarioConfig(seed=21, approach=LOCAL_MEMBERSHIP))
    sc.converge()
    sc.move("R3", "L6", at=40.0)
    sc.run_until(80.0)
    return sc


class TestSnapshots:
    def test_snapshot_totals(self, ran):
        snap = ran.metrics.snapshot()
        assert snap.total("mcast_data") > 0
        assert snap.total() >= snap.total("mcast_data")

    def test_delta_subtracts(self):
        a = StatsSnapshot(0.0, {"L1": {"mcast_data": 100}})
        b = StatsSnapshot(5.0, {"L1": {"mcast_data": 250, "mld": 24}})
        d = b.delta(a)
        assert d.bytes_on("L1", "mcast_data") == 150
        assert d.bytes_on("L1", "mld") == 24

    def test_bytes_on_unknown_link(self):
        snap = StatsSnapshot(0.0, {})
        assert snap.bytes_on("nope") == 0


class TestDelays:
    def test_move_and_attach_times(self, ran):
        assert ran.metrics.move_start_time("R3") == 40.0
        attach = ran.metrics.attach_time("R3", "L6")
        assert attach == pytest.approx(40.1)

    def test_coa_ready_time(self, ran):
        coa = ran.metrics.coa_ready_time("R3", after=40.0)
        assert coa == pytest.approx(41.6)

    def test_leave_delay_none_before_expiry(self, ran):
        # at t=80 the membership on L4 has not expired yet (T_MLI=260)
        assert ran.metrics.leave_delay("L4", ran.group, 40.0) is None

    def test_bu_rtts_exposed(self, ran):
        assert len(ran.metrics.binding_update_rtts("R3")) >= 1


class TestCounts:
    def test_assert_graft_prune_counts(self, ran):
        assert ran.metrics.assert_count() >= 2
        assert ran.metrics.graft_count(since=40.0) >= 1
        assert ran.metrics.prune_count() >= 1

    def test_entries_created_filter(self, ran):
        src = ran.paper.host("S").home_address
        assert ran.metrics.entries_created(source=src) == 5
        assert ran.metrics.entries_created() >= 5

    def test_flood_extent(self, ran):
        src = ran.paper.host("S").home_address
        links = ran.metrics.flood_extent(src, ran.group)
        assert "L2" in links and "L3" in links and "L4" in links


class TestOptimality:
    def test_per_hop_latency(self, ran):
        link = ran.net.link("L1")
        expected = (1040 * 8) / link.bandwidth_bps + link.delay
        assert per_hop_latency(link, 1000) == pytest.approx(expected)

    def test_optimal_latency_scales_with_hops(self, ran):
        one = ran.metrics.optimal_latency("L1", "L1", 1000)
        four = ran.metrics.optimal_latency("L1", "L6", 1000)
        assert four == pytest.approx(4 * one)

    def test_stretch_of_optimal_is_one(self, ran):
        lat = ran.metrics.optimal_latency("L1", "L4", 1000)
        assert ran.metrics.stretch(lat, "L1", "L4", 1000) == pytest.approx(1.0)


class TestSystemLoad:
    def test_per_node_rows(self, ran):
        load = ran.metrics.system_load()
        assert set(load) == {"A", "B", "C", "D", "E", "S", "R1", "R2", "R3"}
        assert load["A"]["pim_entries"] >= 1
        assert "bindings" in load["D"]

    def test_local_approach_no_ha_encap(self, ran):
        assert ran.metrics.home_agent_encapsulations() == 0
        assert ran.metrics.total_encapsulations() == 0
