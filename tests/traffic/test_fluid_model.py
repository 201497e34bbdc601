"""FluidModel semantics: analytic exactness, probes, losses, boundaries.

The equivalence suite (test_fluid_equivalence.py) checks fluid against
packet mode; this file checks fluid against *closed form* — between two
protocol boundaries the charged bytes must equal rate x time exactly.
"""

import pytest

from repro.core import PaperScenario, ScenarioConfig
from repro.net.loss import GilbertElliottLoss, gilbert_for_mean_loss
from repro.net.stats import CATEGORIES, FLUID_PROBE_CATEGORY


def _fluid_scenario(**kw):
    sc = PaperScenario(
        ScenarioConfig(traffic_model="fluid", **kw)
    )
    sc.converge()
    return sc


# wire rate of the default 20 pkt/s x 1000 B flow (+40 B IPv6 header)
WIRE_RATE = (1000 + 40) / 0.05


class TestAnalyticExactness:
    def test_static_tree_bytes_equal_rate_times_dt(self):
        """With the tree converged and unchanged, the per-link
        mcast_data accrual over a window is exactly R x dt — the
        closed-form integral of a constant rate."""
        sc = _fluid_scenario()
        before = sc.metrics.snapshot()
        sc.run_until(38.0)
        delta = sc.metrics.snapshot().delta(before)
        dt = 38.0 - before.time
        # L1 (the sender link) carries the flow exactly once
        assert delta.bytes_on("L1", "mcast_data") == pytest.approx(
            WIRE_RATE * dt, rel=1e-9
        )
        sc.finish()

    def test_sync_is_idempotent(self):
        sc = _fluid_scenario()
        sc.traffic.sync()
        snap1 = sc.metrics.snapshot()
        snap2 = sc.metrics.snapshot()  # same sim time, second sync
        assert snap1.total("mcast_data") == snap2.total("mcast_data")
        sc.finish()

    def test_describe_reports_probe_and_recompute_counts(self):
        sc = _fluid_scenario()
        sc.finish()
        desc = sc.traffic.describe()
        assert desc["traffic_model"] == "fluid"
        assert desc["flows"] == 1
        assert desc["probes_sent"] >= 1
        assert desc["recomputes"] > 0
        assert desc["analytic_bytes"] > 0


class TestProbes:
    def test_probe_bytes_in_dedicated_category(self):
        """Probe datagrams are charged to ``fluid_probe`` at full wire
        size so the analytic data categories stay exact."""
        sc = _fluid_scenario()
        sc.finish()
        stats = sc.net.stats
        assert stats.total_bytes(FLUID_PROBE_CATEGORY) > 0
        # probes are whole real packets: byte count divisible by wire size
        assert stats.total_packets(FLUID_PROBE_CATEGORY) >= 1

    def test_probe_category_not_in_public_categories(self):
        """render()/report layouts iterate CATEGORIES; the probe
        category is bookkeeping, not a §4.3 metric."""
        assert FLUID_PROBE_CATEGORY not in CATEGORIES

    def test_probe_decimation(self):
        """Probes replace per-packet events at the configured cadence:
        the default is 100x sparser than the packet interval."""
        sc = _fluid_scenario()
        sc.run_until(80.0)
        sc.finish()
        probes = sc.traffic.probes_sent()
        packets_equiv = (80.0 - 20.0) / 0.05
        assert probes < packets_equiv / 50

    def test_explicit_probe_interval(self):
        sc = _fluid_scenario(probe_interval=2.5)
        assert sc.source.probe_interval == 2.5
        sc.finish()

    def test_probe_interval_below_packet_interval_rejected(self):
        with pytest.raises(ValueError, match="probe_interval"):
            _fluid_scenario(probe_interval=0.01)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_probe_interval_rejected(self, value):
        """NaN passes a ``<`` check and then schedules NaN-time probes."""
        with pytest.raises(ValueError, match="probe_interval must be finite"):
            _fluid_scenario(probe_interval=value)


class TestLossModels:
    def test_bernoulli_loss_scales_rates(self):
        """A lossy member link leaks rate x mean_loss into the
        analytic loss ledger."""
        sc = _fluid_scenario()
        link = sc.paper.link("L4")
        link.loss_rate = 0.25
        base = sc.traffic.lost_bytes.get("link-loss", 0.0)
        sc.run_for(8.0)
        sc.traffic.sync()
        leaked = sc.traffic.lost_bytes["link-loss"] - base
        assert leaked == pytest.approx(WIRE_RATE * 0.25 * 8.0, rel=1e-6)
        sc.finish()

    def test_gilbert_elliott_uses_stationary_mean(self):
        """GE loss enters the fluid model through ``mean_loss`` — the
        stationary expected-throughput multiplier."""
        ge = gilbert_for_mean_loss(0.2)
        assert isinstance(ge, GilbertElliottLoss)
        sc = _fluid_scenario()
        link = sc.paper.link("L4")
        link.set_loss_model(ge)
        assert link.loss_rate == pytest.approx(ge.mean_loss)
        base = sc.traffic.lost_bytes.get("link-loss", 0.0)
        sc.run_for(5.0)
        sc.traffic.sync()
        leaked = sc.traffic.lost_bytes["link-loss"] - base
        assert leaked == pytest.approx(WIRE_RATE * ge.mean_loss * 5.0, rel=1e-6)
        sc.finish()

    def test_link_down_stops_charging(self):
        """Link.add_on_change: an administrative down immediately
        reroutes the rate into the link-down loss ledger."""
        sc = _fluid_scenario()
        link = sc.paper.link("L1")  # the sender's link: kills the flow
        before = sc.metrics.snapshot()
        link.set_down()
        sc.run_for(5.0)
        sc.traffic.sync()
        delta = sc.metrics.snapshot().delta(before)
        assert delta.bytes_on("L1", "mcast_data") == pytest.approx(0.0, abs=1e-6)
        assert sc.traffic.lost_bytes["link-down"] == pytest.approx(
            WIRE_RATE * 5.0, rel=1e-6
        )
        link.set_up()
        sc.finish()


class TestBoundaryEvents:
    def test_rate_changes_emit_fluid_trace_events(self):
        """Synthetic ``fluid``/``rate-change`` events mark tree
        boundaries so offline span/trace analysis sees the fluid
        run's structure."""
        sc = _fluid_scenario()
        sc.move("R3", "L6", at=40.0)
        sc.run_until(60.0)
        sc.finish()
        events = list(sc.net.tracer.query("fluid"))
        assert events, "expected rate-change boundary events"
        assert all(ev.detail["event"] == "rate-change" for ev in events)
        # the handover changed rates on the new link
        links_touched = {ev.node for ev in events}
        assert "L6" in links_touched

    def test_flow_stop_is_a_boundary(self):
        sc = _fluid_scenario()
        before = sc.metrics.snapshot()
        sc.source.stop()
        sc.run_for(5.0)
        sc.traffic.sync()
        delta = sc.metrics.snapshot().delta(before)
        assert delta.bytes_on("L1", "mcast_data") == pytest.approx(0.0, abs=1e-6)
        sc.finish()


class TestCounterTopUps:
    def test_ha_encapsulation_counters_accrue(self):
        """Figure 3 approach under fluid: the HA's encapsulation load
        grows at the residual analytic rate between probes."""
        from repro.core import BIDIRECTIONAL_TUNNEL

        sc = _fluid_scenario(approach=BIDIRECTIONAL_TUNNEL)
        sc.move("R3", "L1", at=40.0)
        sc.run_until(70.0)
        sc.finish()
        ha = sc.paper.router("D")
        assert ha.load["encapsulations"] > 0
        assert sc.paper.host("R3").load["decapsulations"] > 0
        # delivery continues at the tunnel endpoint
        assert sc.traffic.delivered_bytes["R3"] > 0
