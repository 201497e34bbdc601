"""Unit tests for the bandwidth recorder and sparkline rendering."""

import pytest

from repro.analysis.timeseries import BandwidthRecorder, render_series, sparkline
from repro.core import LOCAL_MEMBERSHIP, PaperScenario, ScenarioConfig
from repro.net import ApplicationData


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_all_zero(self):
        assert sparkline([0, 0, 0]) == "   "

    def test_peak_is_full_block(self):
        line = sparkline([0.0, 5.0, 10.0])
        assert line[-1] == "█"
        assert line[0] == " "

    def test_monotone_values_monotone_blocks(self):
        line = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert list(line) == sorted(line, key=" ▁▂▃▄▅▆▇█".index)


class TestBandwidthRecorder:
    def _run(self, period=1.0):
        sc = PaperScenario(ScenarioConfig(seed=61, approach=LOCAL_MEMBERSHIP))
        rec = BandwidthRecorder(sc.net, period=period)
        rec.start()
        sc.converge()
        return sc, rec

    def test_rate_matches_source_bitrate(self):
        sc, rec = self._run()
        series = rec.rate_series(link="L1", category="mcast_data")
        # after traffic start (t=20): 20 pkt/s * 1040 B = 20800 B/s
        steady = [r for t, r in series if t > 22.0]
        assert steady
        assert steady[-1] == pytest.approx(20800, rel=0.05)

    def test_quiet_before_traffic_start(self):
        sc, rec = self._run()
        early = [r for t, r in rec.rate_series(link="L1", category="mcast_data")
                 if t <= 19.0]
        assert all(r == 0.0 for r in early)

    def test_aggregate_over_links(self):
        sc, rec = self._run()
        total = rec.rate_series(category="mcast_data")
        single = rec.rate_series(link="L1", category="mcast_data")
        t_last = total[-1][0]
        total_rate = dict(total)[t_last]
        single_rate = dict(single)[t_last]
        assert total_rate > single_rate  # several links carry the tree

    def test_peak_and_busy_bins(self):
        sc, rec = self._run()
        assert rec.peak_rate(link="L1", category="mcast_data") == pytest.approx(
            20800, rel=0.05
        )
        busy = rec.busy_bins(link="L1", category="mcast_data", threshold=1000.0)
        # traffic starts exactly at t=20, inside the bin that ends at 20
        assert busy and all(t >= 20.0 for t in busy)

    def test_captures_graft_burst_on_new_link(self):
        """Link 6 goes from silent to full rate when R3 moves there."""
        sc, rec = self._run()
        sc.move("R3", "L6", at=40.0)
        sc.run_until(60.0)
        series = rec.rate_series(link="L6", category="mcast_data")
        before = [r for t, r in series if t <= 40.0]
        after = [r for t, r in series if t >= 45.0]
        assert all(r == 0.0 for r in before)
        assert after and after[-1] > 15_000

    def test_stop(self):
        sc, rec = self._run()
        n = len(rec.times)
        rec.stop()
        sc.run_for(10.0)
        assert len(rec.times) == n

    def test_invalid_period(self):
        sc = PaperScenario(ScenarioConfig(seed=62))
        with pytest.raises(ValueError):
            BandwidthRecorder(sc.net, period=0.0)

    def test_render_series(self):
        sc, rec = self._run()
        text = render_series(
            rec.rate_series(link="L1", category="mcast_data"), label="L1 data"
        )
        assert "L1 data" in text and "peak" in text

    def test_render_empty(self):
        assert "(no samples)" in render_series([], label="x")


class TestFluidEngine:
    """The fluid engine integrates lazily, once per constant-rate
    segment; stats reads sync it through ``NetworkStats.sync_hook``."""

    @staticmethod
    def _l1_series(traffic_model):
        sc = PaperScenario(ScenarioConfig(traffic_model=traffic_model))
        sc.converge()
        rec = BandwidthRecorder(sc.net, period=2.0)
        rec.start()
        sc.run_for(20.0)
        return rec.rate_series(link="L1", category="mcast_data")

    def test_fluid_series_reads_the_link_rate_in_every_bin(self):
        # 20 pkt/s * 1040 B on the wire
        rates = [r for _, r in self._l1_series("fluid")]
        assert rates == pytest.approx([20800.0] * 10, rel=1e-9)

    def test_fluid_total_matches_packet_mode(self):
        fluid = sum(r * 2.0 for _, r in self._l1_series("fluid"))
        packet = sum(r * 2.0 for _, r in self._l1_series("packet"))
        assert fluid == pytest.approx(packet, rel=0.02)

    def test_fluid_metrics_snapshot_reads_current_bytes(self):
        def run(traffic_model):
            sc = PaperScenario(ScenarioConfig(traffic_model=traffic_model))
            sc.converge()
            sc.run_for(7.3)  # ends inside a constant-rate segment
            return sc

        packet, fluid = run("packet"), run("fluid")
        read = fluid.metrics.snapshot().bytes_on("L1", "mcast_data")
        assert read > 0
        assert read == pytest.approx(
            packet.metrics.snapshot().bytes_on("L1", "mcast_data"), rel=0.02
        )
        # a read in mid-segment equals a read after an explicit sync
        fluid.traffic.sync()
        assert fluid.net.stats.link_bytes("L1", "mcast_data") == read

    def test_fluid_single_counter_reads_are_current(self):
        """Single-counter reads sync through the hook as snapshots do:
        in mid-segment they equal the reads after an explicit sync."""
        sc = PaperScenario(ScenarioConfig(traffic_model="fluid"))
        sc.converge()
        sc.run_for(7.3)  # ends inside a constant-rate segment
        stats = sc.net.stats

        def reads():
            return (
                stats.link_bytes("L1", "mcast_data"),
                stats.link_packets("L1", "mcast_data"),
                stats.total_bytes("mcast_data"),
                stats.total_packets("mcast_data"),
            )

        mid_segment = reads()
        sc.traffic.sync()
        assert mid_segment == reads()
