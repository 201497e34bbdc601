"""IPv6 addressing for the simulated network.

:class:`Address` is an immutable value holding one 128-bit int.  Every
per-packet question the protocols ask of it (equality, hashing,
ordering, multicast / link-local scope) is a comparison or bit test on
that int.  :mod:`ipaddress` is used only at the edges: to parse input
and to format an address, once, the first time its text is needed.
The module also has :class:`Prefix`, the well-known constants the
protocols need (all-nodes / all-routers link-scope multicast, the
all-PIM-routers group) and helpers for stateless autoconfiguration,
which Mobile IPv6 uses to form care-of addresses on foreign links
(RFC 2462 — reference [14] of the paper).
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
    tie-breaks compare addresses numerically).  ``Address(a)`` of an
    ``Address`` returns ``a`` itself, so an address keeps its formatted
    text through packet clones, tunnels and trace records.  A zone index
    (``fe80::1%eth0``) is accepted but not kept.

    >>> Address("2001:db8:1::10").is_multicast
    False
    >>> Address("ff02::1").is_multicast
    True
    >>> Address("ff02::1") == Address("ff02:0:0:0:0:0:0:1")
    True
    """

    __slots__ = ("_int", "_text")

    def __new__(cls, value: _AddressLike) -> "Address":
        if type(value) is Address:
            return value
        self = object.__new__(cls)
        self._int = int(ipaddress.IPv6Address(value))
        self._text = None
        return self

    def __reduce__(self):
        return (Address, (self._int,))

    # ------------------------------------------------------------------
    @property
    def is_multicast(self) -> bool:
        """True for ff00::/8."""
        return self._int >> 120 == 0xFF

    @property
    def is_link_local(self) -> bool:
        """True for fe80::/10."""
        return self._int >> 118 == 0x3FA

    @property
    def is_link_scope_multicast(self) -> bool:
        """True for link-scope multicast (scope field 2: ff02::/16, ff12::/16,
        ...) — packets that must never be forwarded."""
        return (self._int >> 112) & 0xFF0F == 0xFF02

    @property
    def is_unspecified(self) -> bool:
        return self._int == 0

    def as_int(self) -> int:
        return self._int

    def packed(self) -> bytes:
        """16-byte network-order representation (wire format)."""
        return self._int.to_bytes(16, "big")

    @classmethod
    def from_packed(cls, data: bytes) -> "Address":
        if len(data) != 16:
            raise ValueError(f"IPv6 address needs 16 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if type(other) is not Address:
            if not isinstance(other, (str, int, ipaddress.IPv6Address)):
                return NotImplemented
            try:
                other = Address(other)
            except ipaddress.AddressValueError:
                return False
        return self._int == other._int

    def __lt__(self, other: "Address") -> bool:
        return self._int < Address(other)._int

    def __hash__(self) -> int:
        return hash(self._int)

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = str(ipaddress.IPv6Address(self._int))
        return text

    def __repr__(self) -> str:
        return f"Address({str(self)!r})"


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
        return Address(address)._int >> self._shift == self.key

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
    return Address(Address("ff1e::").as_int() + group_id)
