"""Traffic-model interface.

A *traffic model* decides how application data flows become bytes on
links.  Two implementations exist:

``packet`` (:class:`~repro.traffic.packet.PacketModel`)
    The historical mode: every datagram is a discrete simulator event
    travelling through ``Link.transmit``.  Exact, but a 10⁴-receiver
    cell costs ~10⁷ events per simulated minute.

``fluid`` (:class:`~repro.traffic.fluid.FluidModel`)
    Each (S,G) flow is a piecewise-constant rate.  Per-link byte
    counts, tunnel overhead, waste and delivery are integrated
    analytically between protocol events; only sparse *probe* packets
    are simulated to keep PIM-DM's data-driven control plane alive.

Both emit the same :class:`~repro.net.stats.NetworkStats` §4.3 metrics
so scenarios, campaigns and analysis code are model-agnostic.  See
``docs/TRAFFIC.md`` for the tolerance contract between the two modes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mipv6.mobile_node import MobileNode
    from ..net.addressing import Address
    from ..net.node import Host
    from ..net.topology import Network
    from .sources import CbrSource

TRAFFIC_MODELS = ("packet", "fluid")


class TrafficModel(ABC):
    """How application flows turn into per-link byte accounting."""

    #: registry name ("packet" / "fluid")
    name: str = "?"

    @abstractmethod
    def attach(self, net: "Network") -> None:
        """Bind the model to a network before any flow is created."""

    @abstractmethod
    def add_cbr(
        self,
        node: "Union[Host, MobileNode]",
        group: "Address",
        packet_interval: float = 0.1,
        payload_bytes: int = 1000,
        flow: Optional[str] = None,
    ):
        """Create a constant-bit-rate flow; returns a source with the
        ``CbrSource`` surface (``start``/``stop``/``bit_rate``/``flow``)."""

    @abstractmethod
    def add_onoff(
        self,
        node: "Union[Host, MobileNode]",
        group: "Address",
        packet_interval: float = 0.1,
        payload_bytes: int = 1000,
        mean_on: float = 10.0,
        mean_off: float = 10.0,
        flow: Optional[str] = None,
    ):
        """Create an ON/OFF flow; returns an ``OnOffSource``-like source."""

    def sync(self) -> None:
        """Bring byte accounting up to ``sim.now``.

        Call before reading node load counters; every byte and packet
        read of :class:`~repro.net.stats.NetworkStats` calls it through
        ``NetworkStats.sync_hook``.
        A no-op for the packet model, which accounts on every
        transmission anyway.
        """

    def finish(self) -> None:
        """Final sync at end of scenario (stops nothing by itself)."""
        self.sync()

    def describe(self) -> Dict[str, object]:
        """Small JSON-able summary for experiment result rows."""
        return {"traffic_model": self.name}


_FACTORIES: Dict[str, Callable[..., TrafficModel]] = {}


def register_traffic_model(name: str):
    def deco(factory: Callable[..., TrafficModel]):
        _FACTORIES[name] = factory
        return factory

    return deco


def make_traffic_model(name: str = "packet", **kwargs) -> TrafficModel:
    """Instantiate a traffic model by registry name.

    ``kwargs`` are model-specific (e.g. ``probe_interval`` for the
    fluid model) and silently ignored by models that don't take them.
    """
    # Import for the registration side effect.
    from . import fluid as _fluid  # noqa: F401
    from . import packet as _packet  # noqa: F401

    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown traffic model {name!r}; expected one of {TRAFFIC_MODELS}"
        ) from None
    return factory(**kwargs)
