"""Protocol Independent Multicast — Dense Mode (draft-ietf-pim-v2-dm-03)."""

from .config import PimDmConfig
from .messages import (
    PimAssert,
    PimGraft,
    PimGraftAck,
    PimHello,
    PimJoin,
    PimMessage,
    PimPrune,
    PimStateRefresh,
)
from .router import MulticastRouter, PimDmEngine
from .state import DownstreamState, OifSet, SgEntry, sg_key

__all__ = [
    "DownstreamState",
    "OifSet",
    "MulticastRouter",
    "PimAssert",
    "PimDmConfig",
    "PimDmEngine",
    "PimGraft",
    "PimGraftAck",
    "PimHello",
    "PimJoin",
    "PimMessage",
    "PimPrune",
    "PimStateRefresh",
    "SgEntry",
    "sg_key",
]
