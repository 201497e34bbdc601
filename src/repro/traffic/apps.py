"""Receiver-side application instrumentation.

:class:`ReceiverApp` records every multicast datagram delivered to a
host (including duplicates — tunnel delivery plus an on-link copy, the
redundancy the paper points out for the bi-directional tunnel when
several mobile members share a foreign link, §4.3.2) and computes the
receiver-side metrics the experiments report: join delay after a move,
loss gaps, end-to-end latency.

A delivery is one row of typed columns (time and latency as doubles,
the seqno as a 64-bit int, a duplicate flag as a byte and a flow index
as a 32-bit int: about 29 B), not an object:
:attr:`ReceiverApp.deliveries` builds a :class:`Delivery` when one is
read.  Duplicates are found per flow in a paged seqno bitmap, and the
unique and duplicate counts are kept as they go.
"""

from __future__ import annotations

import bisect
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

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


#: a flow's seqno bitmap is kept in pages of 2**_PAGE_SHIFT seqnos
_PAGE_SHIFT = 12
_PAGE_BYTES = 1 << (_PAGE_SHIFT - 3)


class _SeqnoSet:
    """The seqnos seen on one flow, as a bitmap in 512-byte pages.

    A page covers 4,096 consecutive seqnos and is allocated when the
    first of them arrives, so a receiver that joins late, a jump after
    an outage, a negative seqno or a stray one of 10**12 each cost one
    page, never a bitmap that reaches back to seqno 0.
    """

    __slots__ = ("pages",)

    def __init__(self) -> None:
        self.pages: Dict[int, bytearray] = {}

    def add(self, seqno: int) -> bool:
        """Mark ``seqno`` seen; True when it was not seen before."""
        page = self.pages.get(seqno >> _PAGE_SHIFT)
        if page is None:
            page = self.pages[seqno >> _PAGE_SHIFT] = bytearray(_PAGE_BYTES)
        byte = (seqno >> 3) & (_PAGE_BYTES - 1)
        mask = 1 << (seqno & 7)
        if page[byte] & mask:
            return False
        page[byte] |= mask
        return True


class _DeliveryLog(Sequence):
    """The deliveries as columns, one row each, oldest first.

    A read-only sequence of :class:`Delivery`: indexing (negative too)
    and iteration build each one on access, and a slice is a list.
    """

    __slots__ = ("times", "latencies", "seqnos", "duplicate", "flow_ix", "flows")

    def __init__(self) -> None:
        self.times = array("d")
        self.latencies = array("d")
        self.seqnos = array("q")
        self.duplicate = bytearray()
        #: index into ``flows``
        self.flow_ix = array("I")
        self.flows: List[str] = []

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(len(self.times)))]
        return self._row(range(len(self.times))[index])

    def _row(self, i: int) -> Delivery:
        return Delivery(
            self.times[i],
            self.flows[self.flow_ix[i]],
            self.seqnos[i],
            self.latencies[i],
            bool(self.duplicate[i]),
        )

    def __iter__(self) -> Iterator[Delivery]:
        flows = self.flows
        for time, ix, seqno, latency, duplicate in zip(
            self.times, self.flow_ix, self.seqnos, self.latencies, self.duplicate
        ):
            yield Delivery(time, flows[ix], seqno, latency, bool(duplicate))


class ReceiverApp:
    """Records multicast deliveries at one host."""

    def __init__(self, node: Host) -> None:
        self.node = node
        self._log = _DeliveryLog()
        self._flow_index: Dict[str, int] = {}
        self._seen: List[_SeqnoSet] = []
        self._unique = 0
        self._duplicates = 0
        node.on_app_data(self._on_data)

    def _on_data(self, packet: Ipv6Packet, message: ApplicationData) -> None:
        now = self.node.sim.now
        log = self._log
        ix = self._flow_index.get(message.flow)
        if ix is None:
            ix = self._add_flow(message.flow)
        log.seqnos.append(message.seqno)
        if self._seen[ix].add(message.seqno):
            self._unique += 1
            log.duplicate.append(0)
        else:
            self._duplicates += 1
            log.duplicate.append(1)
        log.times.append(now)
        log.latencies.append(now - message.sent_at)
        log.flow_ix.append(ix)

    def _add_flow(self, flow: str) -> int:
        log = self._log
        ix = self._flow_index[flow] = len(log.flows)
        log.flows.append(flow)
        self._seen.append(_SeqnoSet())
        return ix

    # ------------------------------------------------------------------
    @property
    def deliveries(self) -> Sequence[Delivery]:
        """Every delivery, oldest first (a read-only sequence)."""
        return self._log

    @property
    def unique_count(self) -> int:
        return self._unique

    @property
    def duplicate_count(self) -> int:
        return self._duplicates

    def delivered_seqnos(self, flow: Optional[str] = None) -> List[int]:
        log = self._log
        if flow is None:
            return sorted(set(log.seqnos))
        ix = self._flow_index.get(flow)
        return sorted({s for s, f in zip(log.seqnos, log.flow_ix) if f == ix})

    def first_delivery_after(self, time: float) -> Optional[Delivery]:
        """Earliest delivery at or after ``time`` (join-delay probe).

        Delivery times never decrease (the simulator clock does not go
        back), so this bisects the time column: O(log n).
        """
        log = self._log
        idx = bisect.bisect_left(log.times, time)
        return log[idx] if idx < len(log) else None

    def join_delay(self, move_time: float) -> Optional[float]:
        """Time from a handoff start to the first subsequent delivery."""
        delivery = self.first_delivery_after(move_time)
        return None if delivery is None else delivery.time - move_time

    def mean_latency(self, since: float = 0.0) -> Optional[float]:
        log = self._log
        start = bisect.bisect_left(log.times, since)
        lats = [
            latency
            for latency, duplicate in zip(log.latencies[start:], log.duplicate[start:])
            if not duplicate
        ]
        return sum(lats) / len(lats) if lats else None

    def loss_count(self, flow: str, first_seq: int, last_seq: int) -> int:
        """Datagrams of ``flow`` in [first_seq, last_seq] never delivered."""
        got = set(self.delivered_seqnos(flow))
        return sum(1 for s in range(first_seq, last_seq + 1) if s not in got)

    def deliveries_between(self, start: float, end: float) -> List[Delivery]:
        times = self._log.times
        return self._log[
            bisect.bisect_left(times, start) : bisect.bisect_right(times, end)
        ]
