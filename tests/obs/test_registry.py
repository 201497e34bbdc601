"""Unit tests for the metrics registry and the live trace collector."""

import pytest

from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    TraceCollector,
)
from repro.sim import Simulator, Tracer


class TestCounter:
    def test_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total")
        c.inc()
        c.inc(2.5)
        assert c.labels().value == 3.5

    def test_negative_rejected(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labelled_children_independent(self):
        c = MetricsRegistry().counter("x", label_names=("kind",))
        c.labels(kind="a").inc()
        c.labels(kind="a").inc()
        c.labels(kind="b").inc()
        assert c.labels(kind="a").value == 2
        assert c.labels(kind="b").value == 1

    def test_wrong_labels_rejected(self):
        c = MetricsRegistry().counter("x", label_names=("kind",))
        with pytest.raises(ValueError):
            c.labels(other="a")
        with pytest.raises(ValueError):
            c.inc()  # labelled family has no solo child


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("pending")
        g.set(10)
        g.inc()
        g.dec(3)
        assert g.labels().value == 8


class TestHistogram:
    def test_bucketing(self):
        h = Histogram(boundaries=(1.0, 10.0))
        for v in (0.5, 0.9, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(56.4)
        assert h.cumulative() == [(1.0, 2), (10.0, 3), (float("inf"), 4)]

    def test_mean_and_boundary_quantile(self):
        h = Histogram(boundaries=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            h.observe(v)
        assert h.mean == pytest.approx(1.65)
        # boundary mode: the containing bucket's upper edge
        assert h.quantile(0.5, interpolated=False) == 2.0
        assert h.quantile(1.0, interpolated=False) == 4.0

    def test_interpolated_quantile(self):
        h = Histogram(boundaries=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            h.observe(v)
        # rank 2 of 4 is halfway through the (1, 2] bucket (2 entries)
        assert h.quantile(0.5) == pytest.approx(1.5)
        # rank 1 of 4 is the whole way through the [0, 1] bucket
        assert h.quantile(0.25) == pytest.approx(1.0)
        # rank 4 of 4 is the whole way through the (2, 4] bucket
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_q0_returns_observed_minimum_bucket(self):
        h = Histogram(boundaries=(1.0, 10.0, 100.0))
        h.observe(50.0)
        # the minimum observation lives in (10, 100], not the first
        # configured bucket
        assert h.quantile(0.0) == 10.0
        assert h.quantile(0.0, interpolated=False) == 100.0

    def test_overflow_bucket_clamps_when_interpolating(self):
        h = Histogram(boundaries=(1.0,))
        h.observe(5.0)
        assert h.quantile(0.5) == 1.0  # top finite boundary
        assert h.quantile(0.5, interpolated=False) == float("inf")
        assert h.quantile(0.0) == 1.0

    def test_empty_quantile_none(self):
        assert Histogram(boundaries=(1.0,)).quantile(0.5) is None

    def test_out_of_range_quantile_rejected(self):
        h = Histogram(boundaries=(1.0,))
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestRegistry:
    def test_idempotent_registration(self):
        reg = MetricsRegistry()
        a = reg.counter("x", label_names=("k",))
        b = reg.counter("x", label_names=("k",))
        assert a is b

    def test_conflicting_registration_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.counter("x", label_names=("k",))

    def test_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c", "help text", ("k",)).labels(k="a").inc(2)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["c"]["samples"]["k=a"] == 2
        assert snap["h"]["samples"][""]["count"] == 1
        assert snap["h"]["samples"][""]["buckets"]["+Inf"] == 1

    def test_render_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("repro_events_total", "All events", ("category",)).labels(
            category="pim"
        ).inc(3)
        reg.gauge("repro_pending").set(7)
        reg.histogram("repro_lat", buckets=(0.1, 1.0)).observe(0.05)
        text = reg.render_prometheus()
        assert "# TYPE repro_events_total counter" in text
        assert 'repro_events_total{category="pim"} 3' in text
        assert "repro_pending 7" in text
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_count 1" in text


class TestTraceCollector:
    def make(self):
        sim = Simulator()
        tracer = Tracer(sim)
        reg = MetricsRegistry()
        TraceCollector(reg).attach(tracer)
        return sim, tracer, reg

    def test_category_counts(self):
        _, tracer, reg = self.make()
        tracer.record("pim", "A", event="prune-sent")
        tracer.record("pim", "B", event="prune-sent")
        tracer.record("mld", "A", event="report-sent")
        events = reg.get("repro_trace_events_total")
        assert events.labels(category="pim").value == 2
        assert events.labels(category="mld").value == 1
        proto = reg.get("repro_protocol_events_total")
        assert proto.labels(category="pim", event="prune-sent").value == 2

    def test_delivery_latency_histogram(self):
        _, tracer, reg = self.make()
        tracer.record("mcast.deliver", "R3", group="ff1e::1", latency=0.002)
        tracer.record("mcast.deliver", "R3", group="ff1e::1", latency=0.004)
        hist = reg.get("repro_delivery_latency_seconds").labels()
        assert hist.count == 2
        assert hist.sum == pytest.approx(0.006)

    def test_event_without_kind_only_counts_category(self):
        _, tracer, reg = self.make()
        tracer.record("mcast.forward", "A", links=["L1"])
        assert reg.get("repro_trace_events_total").labels(
            category="mcast.forward"
        ).value == 1
        assert reg.get("repro_protocol_events_total").samples() == {}


class TestNetworkPublish:
    def test_network_stats_gauges(self):
        from repro.net.stats import NetworkStats
        from repro.net.packet import Ipv6Packet
        from repro.net.addressing import Address
        from repro.net.messages import ApplicationData

        stats = NetworkStats()
        packet = Ipv6Packet(
            Address("2001:db8:1::10"),
            Address("ff1e::1"),
            ApplicationData(seqno=0, payload_bytes=1000),
        )
        stats.stats_for("L1").account(packet)
        reg = MetricsRegistry()
        stats.publish_to(reg)
        gauge = reg.get("repro_link_bytes")
        assert gauge.labels(link="L1", category="mcast_data").value > 0
        packets = reg.get("repro_link_packets")
        assert packets.labels(link="L1", category="mcast_data").value == 1
        # republish overwrites, not accumulates
        stats.publish_to(reg)
        assert packets.labels(link="L1", category="mcast_data").value == 1
