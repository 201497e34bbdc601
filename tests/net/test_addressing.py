"""Unit + property tests for IPv6 addressing."""

import copy
import ipaddress
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.net import (
    ALL_NODES,
    ALL_PIM_ROUTERS,
    ALL_ROUTERS,
    Address,
    Prefix,
    is_multicast,
    make_multicast_group,
)


class TestAddress:
    def test_from_string(self):
        assert str(Address("2001:db8::1")) == "2001:db8::1"

    def test_from_int_roundtrip(self):
        a = Address("2001:db8::42")
        assert Address(a.as_int()) == a

    def test_copy_constructor(self):
        a = Address("::1")
        assert Address(a) is a

    def test_from_ipv6address(self):
        assert Address(ipaddress.IPv6Address("ff1e::9")) == Address("ff1e::9")

    @pytest.mark.parametrize("bad", ["A", "2001:db8::/64", "1.2.3.4", -1, 2**128])
    def test_bad_input_raises(self, bad):
        with pytest.raises(ipaddress.AddressValueError):
            Address(bad)

    def test_equality_across_notations(self):
        assert Address("ff02::1") == Address("ff02:0:0:0:0:0:0:1")

    def test_equality_with_string(self):
        assert Address("ff02::1") == "ff02::1"

    def test_equality_with_non_address_is_false(self):
        a = Address("::1")
        assert (a == "A") is False
        assert ("A" == a) is False
        assert (a == 2**128) is False
        assert (a == None) is False  # noqa: E711

    def test_inequality_with_non_address_is_true(self):
        a = Address("::1")
        assert a != "A"
        assert "A" != a

    def test_membership_in_mixed_list(self):
        a = Address("::1")
        assert a not in ["A", "router-1", -1, None]
        assert a in ["A", "::1"]

    def test_ordering_with_non_address_raises(self):
        with pytest.raises(ipaddress.AddressValueError):
            Address("::1") < "A"

    def test_hashable(self):
        assert len({Address("::1"), Address("0::1")}) == 1

    def test_ordering_numeric(self):
        assert Address("2001:db8::1") < Address("2001:db8::2")

    def test_multicast_detection(self):
        assert Address("ff1e::5").is_multicast
        assert not Address("2001:db8::5").is_multicast

    def test_link_local(self):
        assert Address("fe80::1").is_link_local
        assert not Address("2001:db8::1").is_link_local

    def test_link_scope_multicast(self):
        assert ALL_NODES.is_link_scope_multicast
        assert ALL_ROUTERS.is_link_scope_multicast
        assert ALL_PIM_ROUTERS.is_link_scope_multicast
        assert not Address("ff1e::1").is_link_scope_multicast
        assert not Address("2001:db8::1").is_link_scope_multicast

    def test_packed_roundtrip(self):
        a = Address("2001:db8:1:2:3:4:5:6")
        assert Address.from_packed(a.packed()) == a

    def test_packed_length(self):
        assert len(Address("::1").packed()) == 16

    def test_from_packed_wrong_length(self):
        with pytest.raises(ValueError):
            Address.from_packed(b"\x00" * 8)

    def test_unspecified(self):
        assert Address("::").is_unspecified
        assert not Address("::1").is_unspecified

    @given(st.integers(min_value=1, max_value=2**128 - 1))
    def test_int_roundtrip_property(self, value):
        assert Address(value).as_int() == value

    @given(st.integers(min_value=0, max_value=2**128 - 1))
    def test_packed_roundtrip_property(self, value):
        a = Address(value)
        assert Address.from_packed(a.packed()) == a

    def test_formatted_once(self):
        a = Address((0x2001_0DB8 << 96) | 5)
        assert str(a) is str(a)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_roundtrip(self, protocol):
        a = Address("ff1e::7")
        str(a)
        b = pickle.loads(pickle.dumps(a, protocol))
        assert b == a and hash(b) == hash(a) and str(b) == "ff1e::7"

    def test_copy_and_deepcopy_roundtrip(self):
        a = Address("2001:db8:1::10")
        for b in (copy.copy(a), copy.deepcopy(a), copy.deepcopy([a])[0]):
            assert b == a and hash(b) == hash(a) and str(b) == str(a)


_MAX = 2**128 - 1

#: Top 16 bits on both sides of the fe80::/10 and ff00::/8 edges, plus
#: link-scope multicast (ff02, ff12) beside other scopes.
_EDGE_TOPS = (
    0x0000, 0xFE7F, 0xFE80, 0xFEBF, 0xFEC0, 0xFEFF,
    0xFF00, 0xFF01, 0xFF02, 0xFF05, 0xFF12, 0xFFFF,
)

#: Exact boundary values; each is also tried one above and one below.
_EDGE_POINTS = (
    0, 0xFE7F_FFFF << 96, 0xFE80 << 112, 0xFEBF_FFFF << 96, 0xFEC0 << 112, 0xFF00 << 112, _MAX,
)

ints_128 = st.one_of(
    st.integers(min_value=0, max_value=_MAX),
    st.builds(
        lambda top, low: (top << 112) | low,
        st.sampled_from(_EDGE_TOPS),
        st.integers(min_value=0, max_value=2**112 - 1),
    ),
    st.builds(
        lambda point, step: min(max(point + step, 0), _MAX),
        st.sampled_from(_EDGE_POINTS),
        st.integers(min_value=-1, max_value=1),
    ),
)


class TestAgainstIpaddress:
    """``ipaddress.IPv6Address`` is the reference for every 128-bit value."""

    @given(ints_128)
    def test_text_and_wire_forms(self, value):
        a, ref = Address(value), ipaddress.IPv6Address(value)
        assert str(a) == str(ref)
        assert repr(a) == f"Address({str(ref)!r})"
        assert a.packed() == ref.packed

    @given(ints_128)
    def test_predicates(self, value):
        a, ref = Address(value), ipaddress.IPv6Address(value)
        assert a.is_multicast == ref.is_multicast
        assert a.is_link_local == ref.is_link_local
        assert a.is_unspecified == ref.is_unspecified
        # Link scope is scope field 2, the low nibble of byte 1 (RFC 4291).
        assert a.is_link_scope_multicast == (ref.is_multicast and ref.packed[1] & 0x0F == 0x2)

    @given(ints_128, ints_128)
    def test_order_follows_the_int(self, x, y):
        a, b = Address(x), Address(y)
        assert (a < b) == (x < y)
        assert (a > b) == (x > y)
        assert (a == b) == (x == y)

    @given(ints_128)
    def test_equal_values_hash_equal(self, value):
        a = Address(value)
        b = Address(ipaddress.IPv6Address(value).exploded)
        assert a is not b
        assert a == b and hash(a) == hash(b)


class TestPrefix:
    def test_contains(self):
        p = Prefix("2001:db8:5::/64")
        assert p.contains(Address("2001:db8:5::99"))
        assert not p.contains(Address("2001:db8:6::99"))

    def test_address_for_host(self):
        p = Prefix("2001:db8:1::/64")
        assert str(p.address_for_host(1)) == "2001:db8:1::1"
        assert str(p.address_for_host(0x64)) == "2001:db8:1::64"

    def test_address_for_host_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Prefix("2001:db8::/64").address_for_host(0)

    def test_address_for_host_in_prefix(self):
        p = Prefix("2001:db8:2::/64")
        assert p.contains(p.address_for_host(12345))

    def test_prefix_len(self):
        assert Prefix("2001:db8::/48").prefix_len == 48

    def test_hash_eq(self):
        assert Prefix("2001:db8::/64") == Prefix("2001:db8::/64")
        assert len({Prefix("2001:db8::/64"), Prefix("2001:db8::/64")}) == 1

    @given(st.integers(min_value=1, max_value=2**16))
    def test_host_addresses_distinct(self, host_id):
        p = Prefix("2001:db8:7::/64")
        assert p.address_for_host(host_id) != p.address_for_host(host_id + 1)


class TestWellKnown:
    def test_constants(self):
        assert str(ALL_NODES) == "ff02::1"
        assert str(ALL_ROUTERS) == "ff02::2"
        assert str(ALL_PIM_ROUTERS) == "ff02::d"

    def test_is_multicast_helper(self):
        assert is_multicast("ff02::1")
        assert not is_multicast("2001::1")

    def test_make_multicast_group(self):
        g1, g2 = make_multicast_group(1), make_multicast_group(2)
        assert g1.is_multicast and g2.is_multicast and g1 != g2
        assert not g1.is_link_scope_multicast

    def test_make_multicast_group_bounds(self):
        with pytest.raises(ValueError):
            make_multicast_group(0)
        with pytest.raises(ValueError):
            make_multicast_group(2**32)
