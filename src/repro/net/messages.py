"""Base classes for protocol messages carried inside IPv6 packets.

Every upper-layer payload in the simulation is a :class:`Message`.
Concrete messages live with their protocol packages (:mod:`repro.mld`,
:mod:`repro.pimdm`, :mod:`repro.mipv6`, :mod:`repro.traffic`); this
module defines the common interface the packet / link / statistics
layers rely on:

* ``protocol`` — a short tag used for bandwidth accounting
  (``"mld"``, ``"pim"``, ``"mipv6"``, ``"app"``),
* ``size_bytes`` — the wire size charged against link bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Message", "ApplicationData", "ControlPayload"]


class Message:
    """Base class for simulated upper-layer messages."""

    #: Accounting tag; overridden by protocol message families.
    protocol: str = "app"

    @property
    def size_bytes(self) -> int:
        """Payload wire size in bytes (excluding the IPv6 header)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable label used in traces."""
        return type(self).__name__


@dataclass(frozen=True)
class ApplicationData(Message):
    """Opaque application payload (multicast media data, etc.).

    ``seqno`` identifies the datagram so receivers can measure loss and
    join delay; ``payload_bytes`` is the simulated size.
    """

    seqno: int
    payload_bytes: int = 1000
    flow: str = "default"
    #: simulation time the datagram was handed to the network (stamped by
    #: traffic sources; lets receivers measure end-to-end latency).
    sent_at: float = 0.0
    #: fluid-mode probe datagram: real on the wire (keeps PIM-DM's
    #: data-driven state machinery alive) but charged to the separate
    #: ``fluid_probe`` stats category so the analytic byte accounting is
    #: exact (``repro.traffic.fluid``).
    probe: bool = False

    protocol = "app"

    @property
    def size_bytes(self) -> int:
        return self.payload_bytes

    def describe(self) -> str:
        return f"Data(flow={self.flow} seq={self.seqno})"


class ControlPayload(Message):
    """A (possibly empty) payload for packets whose semantics live in
    their destination options.

    Mobile IPv6 Binding Updates / Acknowledgements / Requests are IPv6
    destination *options*; the carrying packet may have no upper-layer
    payload at all.  ``ControlPayload`` lets such packets exist and be
    charged to the right accounting category.
    """

    def __init__(self, protocol: str = "mipv6", size: int = 0, label: str = "Control"):
        self._protocol = protocol
        self._size = size
        self._label = label

    @property
    def protocol(self) -> str:  # type: ignore[override]
        return self._protocol

    @property
    def size_bytes(self) -> int:
        return self._size

    def describe(self) -> str:
        return self._label
