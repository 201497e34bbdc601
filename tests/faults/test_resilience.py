"""Resilience metric arithmetic on synthetic delivery records."""

from types import SimpleNamespace

import pytest

from repro.faults import (
    delivery_stats,
    duplicate_stats,
    expected_seqnos,
    longest_outage,
    publish_resilience,
    recovery_time,
)
from repro.obs import MetricsRegistry


class FakeApp:
    """Duck-typed stand-in for repro.traffic.ReceiverApp."""

    def __init__(self, deliveries):
        # deliveries: list of (time, seqno, duplicate)
        self._d = [
            SimpleNamespace(time=t, seqno=s, duplicate=dup)
            for t, s, dup in deliveries
        ]

    def delivered_seqnos(self, flow=None):
        return [d.seqno for d in self._d if not d.duplicate]

    def deliveries_between(self, start, end):
        return [d for d in self._d if start <= d.time <= end]

    def join_delay(self, move_time):
        later = [d.time for d in self._d if d.time >= move_time]
        return (min(later) - move_time) if later else None


class TestExpectedSeqnos:
    def test_basic_window(self):
        # seqno k sent at 20 + 0.5k; window [21, 23] -> seqnos 2..6
        assert expected_seqnos(20.0, 0.5, 21.0, 23.0, 100) == (2, 6)

    def test_window_before_traffic(self):
        assert expected_seqnos(20.0, 0.5, 0.0, 10.0, 100) == (0, -1)

    def test_clamped_to_total_sent(self):
        assert expected_seqnos(20.0, 0.5, 21.0, 1000.0, 5) == (2, 4)

    def test_boundary_inclusive(self):
        # a packet sent exactly at the window edge counts
        first, last = expected_seqnos(20.0, 0.5, 20.0, 20.5, 100)
        assert (first, last) == (0, 1)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            expected_seqnos(0.0, 0.0, 0.0, 1.0, 10)


class TestDeliveryStats:
    def test_counts_unique_in_range(self):
        app = FakeApp([(1.0, 0, False), (2.0, 1, False), (2.1, 1, True)])
        stats = delivery_stats(app, "f", 0, 3)
        assert stats == {
            "expected": 4,
            "delivered": 2,
            "lost": 2,
            "delivery_ratio": 0.5,
        }

    def test_empty_window(self):
        app = FakeApp([])
        stats = delivery_stats(app, "f", 0, -1)
        assert stats["expected"] == 0 and stats["delivery_ratio"] is None


class TestRecoveryAndOutage:
    def test_recovery_time(self):
        app = FakeApp([(5.0, 0, False), (11.5, 1, False)])
        assert recovery_time(app, 10.0) == pytest.approx(1.5)
        assert recovery_time(app, 12.0) is None

    def test_longest_outage_interior_gap(self):
        app = FakeApp([(1.0, 0, False), (2.0, 1, False), (7.0, 2, False)])
        assert longest_outage(app, 0.0, 8.0) == pytest.approx(5.0)

    def test_longest_outage_silent_window(self):
        assert longest_outage(FakeApp([]), 10.0, 25.0) == pytest.approx(15.0)

    def test_longest_outage_tail_gap(self):
        app = FakeApp([(1.0, 0, False)])
        assert longest_outage(app, 0.0, 9.0) == pytest.approx(8.0)


class TestDuplicateStats:
    def test_ratio(self):
        app = FakeApp([(1.0, 0, False), (1.1, 0, True), (2.0, 1, False)])
        stats = duplicate_stats(app, 0.0, 3.0)
        assert stats["deliveries"] == 3 and stats["duplicates"] == 1
        assert stats["duplicate_ratio"] == pytest.approx(1 / 3)

    def test_empty_window_is_zero(self):
        assert duplicate_stats(FakeApp([]), 0.0, 1.0)["duplicate_ratio"] == 0.0


class TestPublish:
    def test_gauges_labelled_by_approach_and_scenario(self):
        registry = MetricsRegistry()
        rows = [
            {
                "approach": "local",
                "scenario": "loss",
                "recovery_time": 1.5,
                "delivery_ratio": 0.9,
                "duplicate_ratio": 0.0,
                "control_bytes": 1234,
                "longest_outage": 2.0,
            },
            {
                "approach": "bidir",
                "scenario": "loss",
                "recovery_time": None,  # never recovered: no sample
                "delivery_ratio": 0.1,
            },
        ]
        publish_resilience(registry, rows)
        text = registry.render_prometheus()
        assert 'repro_resilience_recovery_seconds{approach="local",scenario="loss"} 1.5' in text
        assert 'repro_resilience_delivery_ratio{approach="bidir",scenario="loss"} 0.1' in text
        assert 'recovery_seconds{approach="bidir"' not in text
