"""Unit tests for the receiver application instrumentation."""

import pytest

from repro.net import Address, ApplicationData, Host, Ipv6Packet, Network
from repro.traffic import ReceiverApp

GROUP = Address("ff1e::1")
SRC = Address("2001:db8:1::10")


def receiver(seed=1):
    net = Network(seed=seed)
    link = net.add_link("LAN", "2001:db8:1::/64")
    h = Host(net.sim, "H", tracer=net.tracer, rng=net.rng)
    h.attach_to(link, link.prefix.address_for_host(1))
    net.register_node(h)
    h.joined_groups.add(GROUP)
    return net, h, ReceiverApp(h)


def inject(net, h, seqno, at, flow="f", sent_at=None):
    pkt = Ipv6Packet(
        SRC, GROUP,
        ApplicationData(seqno=seqno, flow=flow,
                        sent_at=sent_at if sent_at is not None else at),
    )
    net.sim.schedule_at(at, h.handle_multicast, pkt, h.interfaces[0])


class TestDeliveries:
    def test_records_deliveries(self):
        net, h, app = receiver()
        inject(net, h, 0, 1.0)
        inject(net, h, 1, 2.0)
        net.sim.run()
        assert app.unique_count == 2
        assert [d.seqno for d in app.deliveries] == [0, 1]

    def test_duplicates_flagged(self):
        net, h, app = receiver()
        inject(net, h, 0, 1.0)
        inject(net, h, 0, 2.0)
        net.sim.run()
        assert app.unique_count == 1
        assert app.duplicate_count == 1
        assert [d.duplicate for d in app.deliveries] == [False, True]

    def test_flows_independent(self):
        net, h, app = receiver()
        inject(net, h, 0, 1.0, flow="a")
        inject(net, h, 0, 2.0, flow="b")
        net.sim.run()
        assert app.unique_count == 2
        assert app.delivered_seqnos("a") == [0]

    def test_latency_computed(self):
        net, h, app = receiver()
        inject(net, h, 0, 5.0, sent_at=4.9)
        net.sim.run()
        assert app.deliveries[0].latency == pytest.approx(0.1)


class TestProbes:
    def _filled(self):
        net, h, app = receiver()
        for k in range(5):
            inject(net, h, k, 1.0 + k)
        net.sim.run()
        return app

    def test_first_delivery_after(self):
        app = self._filled()
        assert app.first_delivery_after(2.5).seqno == 2
        assert app.first_delivery_after(3.0).seqno == 2
        assert app.first_delivery_after(99.0) is None
        assert app.first_delivery_after(0.0).seqno == 0

    def test_first_delivery_after_takes_first_of_equal_times(self):
        net, h, app = receiver()
        for k in range(4):
            inject(net, h, k, 1.0 + k // 2)  # two deliveries per instant
        net.sim.run()
        assert app.first_delivery_after(2.0).seqno == 2
        assert app.first_delivery_after(1.5).seqno == 2

    def test_join_delay(self):
        app = self._filled()
        assert app.join_delay(2.5) == pytest.approx(0.5)
        assert app.join_delay(99.0) is None

    def test_mean_latency_window(self):
        net, h, app = receiver()
        inject(net, h, 0, 1.0, sent_at=0.8)
        inject(net, h, 1, 5.0, sent_at=4.9)
        net.sim.run()
        assert app.mean_latency(since=4.0) == pytest.approx(0.1)
        assert app.mean_latency(since=90.0) is None

    def test_mean_latency_excludes_duplicates(self):
        net, h, app = receiver()
        inject(net, h, 0, 1.0, sent_at=0.9)
        inject(net, h, 0, 9.0, sent_at=0.9)  # dup with huge 'latency'
        net.sim.run()
        assert app.mean_latency() == pytest.approx(0.1)

    def test_loss_count(self):
        net, h, app = receiver()
        for k in (0, 1, 4):
            inject(net, h, k, 1.0 + k, flow="f")
        net.sim.run()
        assert app.loss_count("f", 0, 4) == 2

    def test_deliveries_between(self):
        app = self._filled()
        window = app.deliveries_between(2.0, 4.0)
        assert [d.seqno for d in window] == [1, 2, 3]
