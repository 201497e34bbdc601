"""Unit + property tests for IPv6 packets and encapsulation."""

import pytest
from hypothesis import given, strategies as st

from repro.mipv6 import HomeAddressOption
from repro.net import Address, ApplicationData, IPV6_HEADER_BYTES, Ipv6Packet
from repro.net.stats import classify_packet

SRC = Address("2001:db8:1::10")
DST = Address("ff1e::1")
HA = Address("2001:db8:1::1")
COA = Address("2001:db8:6::10")


def data_packet(payload_bytes=1000, **kw):
    return Ipv6Packet(SRC, DST, ApplicationData(seqno=0, payload_bytes=payload_bytes), **kw)


class TestBasics:
    def test_size_is_header_plus_payload(self):
        assert data_packet(500).size_bytes == IPV6_HEADER_BYTES + 500

    def test_default_hop_limit(self):
        assert data_packet().hop_limit == 64

    def test_unique_uids(self):
        assert data_packet().uid != data_packet().uid

    def test_decrement_hop_limit_copies(self):
        p = data_packet()
        q = p.with_decremented_hop_limit()
        assert q.hop_limit == p.hop_limit - 1
        assert q.uid == p.uid  # same datagram identity
        assert q.payload is p.payload

    @pytest.mark.parametrize("memoized", [False, True])
    def test_clone_equals_original_but_hop_limit(self, memoized):
        """The forwarding clone copies slots instead of re-running
        ``__init__``: every slot is the original's object except
        ``hop_limit``, and exactly one uid is drawn."""
        inner = data_packet(dest_options=(HomeAddressOption(COA),))
        p = inner.encapsulate(HA, COA, hop_limit=9)
        if memoized:
            p.size_bytes, p.describe(), classify_packet(p)
        q = p.with_decremented_hop_limit()
        after = data_packet()
        assert after.uid == p.uid + 2  # p, then the clone's draw
        for slot in Ipv6Packet.__slots__:
            if slot == "hop_limit":
                assert q.hop_limit == p.hop_limit - 1 == 8
            else:
                assert getattr(q, slot) is getattr(p, slot), slot
        assert q.inner is inner and q.size_bytes == p.size_bytes

    def test_describe_mentions_endpoints(self):
        text = data_packet().describe()
        assert str(SRC) in text and str(DST) in text


class TestOptionsHeader:
    def test_no_options_no_overhead(self):
        assert data_packet().size_bytes == 1040

    def test_options_header_padded_to_8(self):
        p = Ipv6Packet(
            SRC, DST, ApplicationData(seqno=0, payload_bytes=0),
            dest_options=(HomeAddressOption(SRC),),
        )
        # 2 bytes ext header + 18 bytes option = 20 -> padded to 24
        assert p.size_bytes == IPV6_HEADER_BYTES + 24

    def test_find_option(self):
        opt = HomeAddressOption(SRC)
        p = Ipv6Packet(SRC, DST, ApplicationData(seqno=0), dest_options=(opt,))
        assert p.find_option(HomeAddressOption) is opt
        assert data_packet().find_option(HomeAddressOption) is None


class TestEncapsulation:
    def test_encapsulate_adds_header(self):
        inner = data_packet()
        outer = inner.encapsulate(COA, HA)
        assert outer.size_bytes == inner.size_bytes + IPV6_HEADER_BYTES
        assert outer.overhead_bytes == IPV6_HEADER_BYTES

    def test_decapsulate_returns_inner(self):
        inner = data_packet()
        assert inner.encapsulate(COA, HA).decapsulate() is inner

    def test_decapsulate_plain_raises(self):
        with pytest.raises(ValueError):
            data_packet().decapsulate()

    def test_is_tunneled(self):
        inner = data_packet()
        assert not inner.is_tunneled
        assert inner.encapsulate(COA, HA).is_tunneled

    def test_inner_of_plain_is_self(self):
        p = data_packet()
        assert p.inner is p
        assert p.overhead_bytes == 0

    def test_double_encapsulation(self):
        inner = data_packet()
        outer2 = inner.encapsulate(COA, HA).encapsulate(HA, COA)
        assert outer2.inner is inner
        assert outer2.overhead_bytes == 2 * IPV6_HEADER_BYTES

    def test_innermost_message(self):
        inner = data_packet()
        outer = inner.encapsulate(COA, HA)
        assert outer.innermost_message() is inner.payload

    def test_outer_addresses(self):
        outer = data_packet().encapsulate(COA, HA)
        assert outer.src == COA and outer.dst == HA

    @given(
        st.integers(min_value=0, max_value=9000),
        st.integers(min_value=1, max_value=4),
    )
    def test_nested_overhead_property(self, payload, depth):
        """k levels of encapsulation cost exactly k extra base headers."""
        p = data_packet(payload)
        base = p.size_bytes
        for _ in range(depth):
            p = p.encapsulate(COA, HA)
        assert p.size_bytes == base + depth * IPV6_HEADER_BYTES
        assert p.overhead_bytes == depth * IPV6_HEADER_BYTES
