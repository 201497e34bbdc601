"""Traffic models: per-packet and flow-level (fluid) engines.

* :mod:`repro.traffic.sources` — the CBR / ON-OFF generators.
* :mod:`repro.traffic.apps` — :class:`ReceiverApp`, the receiver-side
  delivery record.
* :mod:`repro.traffic.base` — the :class:`TrafficModel` interface and
  the ``make_traffic_model`` registry.
* :mod:`repro.traffic.packet` — exact per-packet mode (default).
* :mod:`repro.traffic.fluid` — analytic flow-level mode for
  million-receiver scenarios (see ``docs/TRAFFIC.md``).
"""

from .apps import Delivery, ReceiverApp
from .base import TRAFFIC_MODELS, TrafficModel, make_traffic_model
from .fluid import FluidModel, FluidOnOffSource, FluidSource
from .packet import PacketModel
from .sources import CbrSource, OnOffSource, reset_flow_counter

__all__ = [
    "CbrSource",
    "Delivery",
    "FluidModel",
    "FluidOnOffSource",
    "FluidSource",
    "OnOffSource",
    "PacketModel",
    "ReceiverApp",
    "TRAFFIC_MODELS",
    "TrafficModel",
    "make_traffic_model",
    "reset_flow_counter",
]
