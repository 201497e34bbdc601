"""IPv6 addressing for the simulated network.

Thin, hashable wrappers over :mod:`ipaddress` plus the well-known
constants the protocols need (all-nodes / all-routers link-scope
multicast, the all-PIM-routers group) and helpers for stateless
autoconfiguration, which Mobile IPv6 uses to form care-of addresses on
foreign links (RFC 2462 — reference [14] of the paper).
"""

from __future__ import annotations

import ipaddress
from functools import total_ordering
from typing import Union

__all__ = [
    "Address",
    "Prefix",
    "ALL_NODES",
    "ALL_ROUTERS",
    "ALL_PIM_ROUTERS",
    "UNSPECIFIED",
    "is_multicast",
    "make_multicast_group",
]

_AddressLike = Union[str, int, "Address", ipaddress.IPv6Address]


@total_ordering
class Address:
    """An IPv6 address.

    Immutable, hashable, ordered (MLD querier election and PIM-DM assert
    tie-breaks compare addresses numerically).

    >>> Address("2001:db8:1::10").is_multicast
    False
    >>> Address("ff02::1").is_multicast
    True
    >>> Address("ff02::1") == Address("ff02:0:0:0:0:0:0:1")
    True
    """

    __slots__ = ("_addr",)

    def __init__(self, value: _AddressLike) -> None:
        if isinstance(value, Address):
            self._addr = value._addr
        elif isinstance(value, ipaddress.IPv6Address):
            self._addr = value
        else:
            self._addr = ipaddress.IPv6Address(value)

    # ------------------------------------------------------------------
    @property
    def is_multicast(self) -> bool:
        return self._addr.is_multicast

    @property
    def is_link_local(self) -> bool:
        return self._addr.is_link_local

    @property
    def is_link_scope_multicast(self) -> bool:
        """True for ff02::/16 — packets that must never be forwarded."""
        return self.is_multicast and (int(self._addr) >> 112) & 0xF == 0x2

    @property
    def is_unspecified(self) -> bool:
        return self._addr == ipaddress.IPv6Address("::")

    def as_int(self) -> int:
        return int(self._addr)

    def packed(self) -> bytes:
        """16-byte network-order representation (wire format)."""
        return self._addr.packed

    @classmethod
    def from_packed(cls, data: bytes) -> "Address":
        if len(data) != 16:
            raise ValueError(f"IPv6 address needs 16 bytes, got {len(data)}")
        return cls(ipaddress.IPv6Address(data))

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Address):
            return self._addr == other._addr
        if isinstance(other, (str, int, ipaddress.IPv6Address)):
            return self._addr == Address(other)._addr
        return NotImplemented

    def __lt__(self, other: "Address") -> bool:
        return self._addr < Address(other)._addr

    def __hash__(self) -> int:
        return hash(self._addr)

    def __str__(self) -> str:
        return str(self._addr)

    def __repr__(self) -> str:
        return f"Address({str(self._addr)!r})"


class Prefix:
    """An IPv6 network prefix (one per simulated link).

    >>> p = Prefix("2001:db8:1::/64")
    >>> p.contains(Address("2001:db8:1::42"))
    True
    >>> str(p.address_for_host(5))
    '2001:db8:1::5'

    ``key`` is the network part as an int (the address shifted right by
    ``128 - prefix_len``): an address ``a`` is in the prefix exactly when
    ``a >> (128 - prefix_len) == key``.  FIB lookups probe on it.
    """

    __slots__ = ("_net", "_shift", "key")

    def __init__(self, value: Union[str, "Prefix", ipaddress.IPv6Network]) -> None:
        if isinstance(value, Prefix):
            self._net = value._net
            self._shift = value._shift
            self.key = value.key
            return
        if isinstance(value, ipaddress.IPv6Network):
            self._net = value
        else:
            self._net = ipaddress.IPv6Network(value)
        self._shift = 128 - self._net.prefixlen
        self.key = int(self._net.network_address) >> self._shift

    @property
    def prefix_len(self) -> int:
        return self._net.prefixlen

    def contains(self, address: Address) -> bool:
        if not isinstance(address, Address):
            address = Address(address)
        return int(address._addr) >> self._shift == self.key

    def address_for_host(self, host_id: int) -> Address:
        """Form an address on this prefix with the given interface id.

        Models stateless address autoconfiguration: prefix (from Router
        Advertisement) + interface identifier.
        """
        if host_id <= 0:
            raise ValueError("host_id must be positive")
        base = int(self._net.network_address)
        addr = base + host_id
        if not self.contains(Address(addr)):
            raise ValueError(f"host_id {host_id} exceeds prefix {self}")
        return Address(addr)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Prefix):
            return self._net == other._net
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._net)

    def __str__(self) -> str:
        return str(self._net)

    def __repr__(self) -> str:
        return f"Prefix({str(self._net)!r})"


#: All-nodes link-scope multicast (ff02::1) — MLD General Queries go here.
ALL_NODES = Address("ff02::1")

#: All-routers link-scope multicast (ff02::2) — MLD Done messages go here.
ALL_ROUTERS = Address("ff02::2")

#: All-PIM-routers link-scope multicast (ff02::d) — PIM control messages.
ALL_PIM_ROUTERS = Address("ff02::d")

#: The unspecified address.
UNSPECIFIED = Address("::")


def is_multicast(address: _AddressLike) -> bool:
    """True when ``address`` is an IPv6 multicast address."""
    return Address(address).is_multicast


def make_multicast_group(group_id: int) -> Address:
    """Allocate a global-scope multicast group address (ff1e::/112 pool).

    >>> str(make_multicast_group(1))
    'ff1e::1'
    """
    if not 0 < group_id < 2**32:
        raise ValueError(f"group_id out of range: {group_id}")
    return Address(int(Address("ff1e::").as_int()) + group_id)
