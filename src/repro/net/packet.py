"""IPv6 packets, destination options, and IPv6-in-IPv6 encapsulation.

The paper's mechanisms are carried in exactly these structures:

* Binding Updates / Acknowledgements / Home Address are IPv6
  **destination options** (Mobile IPv6 draft §4; paper §2),
* home-agent and mobile-host tunnels use **IPv6 encapsulation**
  (RFC 2473; paper §2) — an entire IPv6 packet as the payload of an
  outer IPv6 packet, costing one extra 40-byte header per datagram,
* multicast data are plain packets with a multicast destination.

Sizes are modelled faithfully: 40-byte base header, destination-options
extension header padded to a multiple of 8 bytes, encapsulation charges
the full inner packet plus the outer headers.  These sizes drive the
bandwidth-consumption comparison of Section 4.3.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Tuple, Union

from .addressing import Address
from .messages import Message

__all__ = [
    "DestinationOption",
    "Ipv6Packet",
    "IPV6_HEADER_BYTES",
    "reset_packet_uids",
]

#: Fixed IPv6 base header size (RFC 2460).
IPV6_HEADER_BYTES = 40

_packet_uid = itertools.count(1)
#: allocates an uninitialised packet (see ``with_decremented_hop_limit``)
_new_packet = object.__new__


def reset_packet_uids() -> None:
    """Restart the packet uid counter at 1.

    Called by :class:`repro.net.topology.Network` at construction so
    packet uids — which appear in trace details — are a function of the
    run, not of how many packets the process created before.  Uids are
    only ever compared within one network's trace stream, so the
    cross-network reuse this causes is harmless.
    """
    global _packet_uid
    _packet_uid = itertools.count(1)


class DestinationOption:
    """Base class for IPv6 destination options.

    Concrete options (Binding Update, Binding Acknowledgement, Binding
    Request, Home Address — the four options Mobile IPv6 defines, paper
    §2 footnote 3) are implemented in :mod:`repro.mipv6.options`
    together with byte-exact serialization.
    """

    #: Option type code (8 bits on the wire).
    option_type: int = 0

    @property
    def size_bytes(self) -> int:
        """Wire size of the option (type + len + data bytes)."""
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


def _options_header_bytes(options: Tuple[DestinationOption, ...]) -> int:
    """Size of a Destination Options extension header carrying ``options``.

    Two bytes of Next Header / Hdr Ext Len plus the options, padded up to
    a multiple of 8 (RFC 2460 §4.6).
    """
    if not options:
        return 0
    raw = 2 + sum(opt.size_bytes for opt in options)
    return (raw + 7) // 8 * 8


class Ipv6Packet:
    """A simulated IPv6 packet.

    ``payload`` is either a :class:`~repro.net.messages.Message` or
    another :class:`Ipv6Packet` (IPv6-in-IPv6 tunnel).

    >>> from repro.net.messages import ApplicationData
    >>> p = Ipv6Packet(Address("2001:db8:1::10"), Address("ff1e::1"),
    ...                ApplicationData(seqno=0, payload_bytes=1000))
    >>> p.size_bytes
    1040
    >>> outer = p.encapsulate(Address("2001:db8:6::10"), Address("2001:db8:1::1"))
    >>> outer.size_bytes
    1080
    >>> outer.decapsulate() is p
    True
    """

    __slots__ = (
        "src",
        "dst",
        "payload",
        "hop_limit",
        "dest_options",
        "uid",
        "_inner",
        "_size_bytes",
        "_described",
        "_category",
    )

    def __init__(
        self,
        src: Address,
        dst: Address,
        payload: Union[Message, "Ipv6Packet"],
        hop_limit: int = 64,
        dest_options: Iterable[DestinationOption] = (),
    ) -> None:
        self.src = Address(src)
        self.dst = Address(dst)
        self.payload = payload
        self.hop_limit = hop_limit
        self.dest_options: Tuple[DestinationOption, ...] = tuple(dest_options)
        self.uid = next(_packet_uid)
        #: innermost encapsulated packet; None when not tunneled (a
        #: plain packet does not reference itself)
        self._inner: Optional[Ipv6Packet] = None
        if isinstance(payload, Ipv6Packet):
            self._inner = payload.inner
        # Packets are immutable after construction (forwarding clones
        # instead of mutating), so the wire size, trace label and stats
        # category (:func:`repro.net.stats.classify_packet`) are
        # computed once and memoized — each is needed per hop on the
        # Link.transmit hot path otherwise.
        self._size_bytes: Optional[int] = None
        self._described: Optional[str] = None
        self._category: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Total wire size: base header + dest-options header + payload."""
        size = self._size_bytes
        if size is None:
            size = self._size_bytes = (
                IPV6_HEADER_BYTES
                + _options_header_bytes(self.dest_options)
                + self.payload.size_bytes
            )
        return size

    @property
    def is_tunneled(self) -> bool:
        """True when this packet encapsulates another IPv6 packet."""
        return self._inner is not None

    @property
    def inner(self) -> "Ipv6Packet":
        """Innermost encapsulated packet (self when not tunneled)."""
        inner = self._inner
        return self if inner is None else inner

    @property
    def overhead_bytes(self) -> int:
        """Bytes of this packet that are tunnel overhead (0 if plain)."""
        return self.size_bytes - self.inner.size_bytes

    def innermost_message(self) -> Message:
        """The application/protocol message at the bottom of any tunnel."""
        payload = self.inner.payload
        assert isinstance(payload, Message)
        return payload

    # ------------------------------------------------------------------
    def encapsulate(
        self,
        outer_src: Address,
        outer_dst: Address,
        hop_limit: int = 64,
        dest_options: Iterable[DestinationOption] = (),
    ) -> "Ipv6Packet":
        """Wrap this packet in an outer IPv6 header (RFC 2473 tunneling)."""
        return Ipv6Packet(
            outer_src, outer_dst, self, hop_limit=hop_limit, dest_options=dest_options
        )

    def decapsulate(self) -> "Ipv6Packet":
        """Remove one level of encapsulation."""
        if not isinstance(self.payload, Ipv6Packet):
            raise ValueError("packet is not tunneled")
        return self.payload

    def find_option(self, option_type: type) -> Optional[DestinationOption]:
        """First destination option of the given class, or None."""
        for opt in self.dest_options:
            if isinstance(opt, option_type):
                return opt
        return None

    def with_decremented_hop_limit(self) -> "Ipv6Packet":
        """Copy with hop limit reduced by one (router forwarding).

        The copy keeps the original's uid (it is the same datagram one
        hop on) but still draws one from the counter, which keeps every
        later uid in a trace unchanged.  Every other slot, the memoized
        size, label and category included, is copied as it is: the hop
        limit enters none of them, and the addresses and options are
        immutable, so ``__init__``'s normalising would change nothing.
        """
        clone = _new_packet(Ipv6Packet)
        clone.src = self.src
        clone.dst = self.dst
        clone.payload = self.payload
        clone.hop_limit = self.hop_limit - 1
        clone.dest_options = self.dest_options
        next(_packet_uid)
        clone.uid = self.uid
        clone._inner = self._inner
        clone._size_bytes = self._size_bytes
        clone._described = self._described
        clone._category = self._category
        return clone

    def describe(self) -> str:
        """Short label for traces (memoized; packets are immutable)."""
        described = self._described
        if described is None:
            body = (
                f"[{self.payload.describe()}]"
                if isinstance(self.payload, Ipv6Packet)
                else self.payload.describe()
            )
            described = self._described = f"{self.src}->{self.dst} {body}"
        return described

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Ipv6Packet #{self.uid} {self.describe()}>"
