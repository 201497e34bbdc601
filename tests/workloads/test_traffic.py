"""Unit tests for traffic sources."""

import pytest

from repro.net import Address, Host, Network
from repro.traffic import CbrSource, OnOffSource

GROUP = Address("ff1e::1")


def host_pair(seed=1):
    net = Network(seed=seed)
    link = net.add_link("LAN", "2001:db8:1::/64")
    a = Host(net.sim, "A", tracer=net.tracer, rng=net.rng)
    a.attach_to(link, link.prefix.address_for_host(1))
    b = Host(net.sim, "B", tracer=net.tracer, rng=net.rng)
    b.attach_to(link, link.prefix.address_for_host(2))
    net.register_node(a)
    net.register_node(b)
    b.joined_groups.add(GROUP)
    return net, a, b


class TestCbrSource:
    def test_sends_at_rate(self):
        net, a, b = host_pair()
        src = CbrSource(a, GROUP, packet_interval=0.5)
        src.start()
        net.sim.run(until=10.0)
        assert src.sent == 21  # t=0..10 inclusive

    def test_start_at_absolute_time(self):
        net, a, b = host_pair()
        src = CbrSource(a, GROUP, packet_interval=1.0)
        src.start(at=5.0)
        net.sim.run(until=7.5)
        assert src.sent == 3  # 5, 6, 7

    def test_stop(self):
        net, a, b = host_pair()
        src = CbrSource(a, GROUP, packet_interval=1.0)
        src.start()
        net.sim.run(until=3.5)
        src.stop()
        net.sim.run(until=10.0)
        assert src.sent == 4

    def test_seqnos_monotonic(self):
        net, a, b = host_pair()
        got = []
        b.on_app_data(lambda p, m: got.append(m.seqno))
        CbrSource(a, GROUP, packet_interval=1.0).start()
        net.sim.run(until=5.0)
        assert got == list(range(len(got)))
        assert len(got) >= 5

    def test_sent_at_stamped(self):
        net, a, b = host_pair()
        stamps = []
        b.on_app_data(lambda p, m: stamps.append((m.sent_at, net.sim.now)))
        CbrSource(a, GROUP, packet_interval=1.0).start(at=2.0)
        net.sim.run(until=4.5)
        for sent_at, arrived in stamps:
            assert sent_at <= arrived
            assert arrived - sent_at < 0.01

    def test_bit_rate(self):
        net, a, b = host_pair()
        src = CbrSource(a, GROUP, packet_interval=0.1, payload_bytes=1000)
        assert src.bit_rate == pytest.approx(80_000.0)

    def test_invalid_interval(self):
        net, a, b = host_pair()
        with pytest.raises(ValueError):
            CbrSource(a, GROUP, packet_interval=0.0)

    def test_unique_flow_names(self):
        net, a, b = host_pair()
        s1 = CbrSource(a, GROUP)
        s2 = CbrSource(a, GROUP)
        assert s1.flow != s2.flow

    def test_start_idempotent(self):
        net, a, b = host_pair()
        src = CbrSource(a, GROUP, packet_interval=1.0)
        src.start()
        src.start()
        net.sim.run(until=3.5)
        assert src.sent == 4  # not doubled


class TestOnOffSource:
    def test_sends_less_than_cbr(self):
        net, a, b = host_pair()
        src = OnOffSource(a, GROUP, packet_interval=0.1, mean_on=5.0, mean_off=5.0)
        src.start()
        net.sim.run(until=100.0)
        cbr_equiv = 1001
        assert 0 < src.sent < cbr_equiv

    def test_phases_alternate(self):
        net, a, b = host_pair()
        got = []
        b.on_app_data(lambda p, m: got.append(net.sim.now))
        src = OnOffSource(a, GROUP, packet_interval=0.1, mean_on=2.0, mean_off=2.0)
        src.start()
        net.sim.run(until=60.0)
        gaps = [y - x for x, y in zip(got, got[1:])]
        assert any(g > 0.5 for g in gaps), "no off-phase observed"

    def test_invalid_phases(self):
        net, a, b = host_pair()
        with pytest.raises(ValueError):
            OnOffSource(a, GROUP, mean_on=0.0)
