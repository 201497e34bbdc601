"""Unit tests for traffic classification and byte accounting."""

from repro.mipv6 import BindingUpdateOption
from repro.mld import MldReport
from repro.net import (
    Address,
    ApplicationData,
    ControlPayload,
    Ipv6Packet,
    NetworkStats,
    classify_packet,
)
from repro.pimdm import PimHello

SRC = Address("2001:db8:1::10")
GROUP = Address("ff1e::1")
UNI = Address("2001:db8:2::10")


class TestClassification:
    def test_multicast_app_data(self):
        p = Ipv6Packet(SRC, GROUP, ApplicationData(seqno=0))
        assert classify_packet(p) == "mcast_data"

    def test_unicast_app_data(self):
        p = Ipv6Packet(SRC, UNI, ApplicationData(seqno=0))
        assert classify_packet(p) == "unicast_data"

    def test_mld(self):
        p = Ipv6Packet(SRC, GROUP, MldReport(GROUP))
        assert classify_packet(p) == "mld"

    def test_pim(self):
        p = Ipv6Packet(SRC, Address("ff02::d"), PimHello())
        assert classify_packet(p) == "pim"

    def test_mipv6_control(self):
        p = Ipv6Packet(SRC, UNI, ControlPayload("mipv6"))
        assert classify_packet(p) == "mipv6"

    def test_tunneled_classifies_as_inner(self):
        inner = Ipv6Packet(SRC, GROUP, ApplicationData(seqno=0))
        outer = inner.encapsulate(UNI, SRC)
        assert classify_packet(outer) == "mcast_data"


class TestAccounting:
    def test_plain_bytes(self):
        stats = NetworkStats()
        p = Ipv6Packet(SRC, GROUP, ApplicationData(seqno=0, payload_bytes=100))
        stats.stats_for("L1").account(p)
        assert stats.link_bytes("L1", "mcast_data") == 140
        assert stats.link_packets("L1", "mcast_data") == 1

    def test_tunnel_overhead_split(self):
        stats = NetworkStats()
        inner = Ipv6Packet(SRC, GROUP, ApplicationData(seqno=0, payload_bytes=100))
        outer = inner.encapsulate(UNI, SRC)
        stats.stats_for("L1").account(outer)
        assert stats.link_bytes("L1", "mcast_data") == 140
        assert stats.link_bytes("L1", "tunnel_overhead") == 40
        assert stats.link_bytes("L1") == 180

    def test_totals_across_links(self):
        stats = NetworkStats()
        p = Ipv6Packet(SRC, GROUP, ApplicationData(seqno=0, payload_bytes=60))
        stats.stats_for("L1").account(p)
        stats.stats_for("L2").account(p)
        assert stats.total_bytes("mcast_data") == 200
        assert stats.total_bytes("mcast_data", links=["L1"]) == 100

    def test_signaling_bytes(self):
        stats = NetworkStats()
        stats.stats_for("L1").account(Ipv6Packet(SRC, GROUP, MldReport(GROUP)))
        stats.stats_for("L1").account(Ipv6Packet(SRC, Address("ff02::d"), PimHello()))
        stats.stats_for("L1").account(Ipv6Packet(SRC, UNI, ControlPayload("mipv6", 0)))
        assert stats.signaling_bytes() == (40 + 24) + (40 + 30) + 40

    def test_snapshot_is_a_copy(self):
        stats = NetworkStats()
        p = Ipv6Packet(SRC, GROUP, ApplicationData(seqno=0))
        stats.stats_for("L1").account(p)
        snap = stats.snapshot()
        stats.stats_for("L1").account(p)
        assert snap["L1"]["mcast_data"] == 1040
        assert stats.link_bytes("L1", "mcast_data") == 2080

    def test_unknown_link_zero(self):
        stats = NetworkStats()
        assert stats.link_bytes("nope") == 0
        assert stats.link_packets("nope") == 0

    def test_read_of_unknown_link_adds_no_entry(self):
        stats = NetworkStats()
        stats.stats_for("L1").account(Ipv6Packet(SRC, GROUP, ApplicationData(seqno=0)))
        stats.account_drop("L2", "link-loss")
        assert stats.link_bytes("typo") == 0
        assert stats.link_packets("typo") == 0
        assert stats.link_drops("typo") == 0
        assert stats.total_bytes(links=["typo"]) == 0
        assert stats.total_packets(links=["typo"]) == 0
        assert stats.total_drops(links=["typo"]) == 0
        assert sorted(stats.snapshot()) == ["L1", "L2"]
        assert sorted(stats.drops_snapshot()) == ["L2"]
        assert "typo" not in stats.render()

    def test_render_contains_links(self):
        stats = NetworkStats()
        stats.stats_for("L9").account(Ipv6Packet(SRC, GROUP, ApplicationData(seqno=0)))
        assert "L9" in stats.render()
