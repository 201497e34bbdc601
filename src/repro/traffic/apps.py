"""Receiver-side application instrumentation.

:class:`ReceiverApp` records every multicast datagram delivered to a
host (including duplicates — tunnel delivery plus an on-link copy, the
redundancy the paper points out for the bi-directional tunnel when
several mobile members share a foreign link, §4.3.2) and computes the
receiver-side metrics the experiments report: join delay after a move,
loss gaps, end-to-end latency.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from ..net.messages import ApplicationData
from ..net.node import Host
from ..net.packet import Ipv6Packet

__all__ = ["Delivery", "ReceiverApp"]


@dataclass(slots=True)
class Delivery:
    """One datagram delivery at the application (never mutated)."""

    time: float
    flow: str
    seqno: int
    latency: float
    duplicate: bool


_delivery_time = attrgetter("time")


class ReceiverApp:
    """Records multicast deliveries at one host."""

    def __init__(self, node: Host) -> None:
        self.node = node
        self.deliveries: List[Delivery] = []
        self._seen: Set[Tuple[str, int]] = set()
        node.on_app_data(self._on_data)

    def _on_data(self, packet: Ipv6Packet, message: ApplicationData) -> None:
        key = (message.flow, message.seqno)
        duplicate = key in self._seen
        self._seen.add(key)
        self.deliveries.append(
            Delivery(
                time=self.node.sim.now,
                flow=message.flow,
                seqno=message.seqno,
                latency=self.node.sim.now - message.sent_at,
                duplicate=duplicate,
            )
        )

    # ------------------------------------------------------------------
    @property
    def unique_count(self) -> int:
        return len(self._seen)

    @property
    def duplicate_count(self) -> int:
        return sum(1 for d in self.deliveries if d.duplicate)

    def delivered_seqnos(self, flow: Optional[str] = None) -> List[int]:
        return sorted(
            {
                d.seqno
                for d in self.deliveries
                if flow is None or d.flow == flow
            }
        )

    def first_delivery_after(self, time: float) -> Optional[Delivery]:
        """Earliest delivery at or after ``time`` (join-delay probe).

        Deliveries are appended in time order, so this bisects them in
        place: O(log n), with no list of their times built per call.
        """
        idx = bisect.bisect_left(self.deliveries, time, key=_delivery_time)
        return self.deliveries[idx] if idx < len(self.deliveries) else None

    def join_delay(self, move_time: float) -> Optional[float]:
        """Time from a handoff start to the first subsequent delivery."""
        delivery = self.first_delivery_after(move_time)
        return None if delivery is None else delivery.time - move_time

    def mean_latency(self, since: float = 0.0) -> Optional[float]:
        lats = [d.latency for d in self.deliveries if d.time >= since and not d.duplicate]
        return sum(lats) / len(lats) if lats else None

    def loss_count(self, flow: str, first_seq: int, last_seq: int) -> int:
        """Datagrams of ``flow`` in [first_seq, last_seq] never delivered."""
        got = set(self.delivered_seqnos(flow))
        return sum(1 for s in range(first_seq, last_seq + 1) if s not in got)

    def deliveries_between(self, start: float, end: float) -> List[Delivery]:
        return [d for d in self.deliveries if start <= d.time <= end]
