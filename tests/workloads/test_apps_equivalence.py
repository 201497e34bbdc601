"""The column-backed ReceiverApp against the object-per-delivery one.

``ReferenceReceiverApp`` is the earlier implementation, kept verbatim
(a ``Delivery`` per delivery and a ``(flow, seqno)`` set): every reader
of the current :class:`~repro.traffic.ReceiverApp` must return what it
returns, float for float, on any delivery sequence — several flows,
duplicates, gaps, reordering, negative and far-out seqnos, equal times.
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from types import SimpleNamespace
from typing import List, Optional, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.net import ApplicationData
from repro.traffic import Delivery, ReceiverApp

_delivery_time = attrgetter("time")


class ReferenceReceiverApp:
    """Records multicast deliveries at one host."""

    def __init__(self, node) -> None:
        self.node = node
        self.deliveries: List[Delivery] = []
        self._seen: Set[Tuple[str, int]] = set()
        node.on_app_data(self._on_data)

    def _on_data(self, packet, message: ApplicationData) -> None:
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


class FakeHost:
    """Just what a receiver app touches: a clock and app callbacks."""

    def __init__(self) -> None:
        self.sim = SimpleNamespace(now=0.0)
        self._callbacks = []

    def on_app_data(self, callback) -> None:
        self._callbacks.append(callback)

    def deliver(self, time: float, flow: str, seqno: int, sent_at: float) -> None:
        self.sim.now = time
        message = ApplicationData(seqno=seqno, flow=flow, sent_at=sent_at)
        for callback in self._callbacks:
            callback(None, message)


FLOWS = ("a", "b", "c")

seqnos = st.one_of(
    st.integers(0, 40),  # dense: duplicates, gaps, reordering
    st.integers(0, 9000),  # across the bitmap's 4,096-seqno pages
    st.integers(-5, -1),
    st.integers(2**40, 2**40 + 3),
    st.integers(2**62, 2**62 + 1),
)
deliveries = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.001, 0.25, 1.0]),  # time step (0: equal times)
        st.integers(0, 2),  # flow
        seqnos,
        st.floats(0.0, 0.5, allow_nan=False),  # latency
    ),
    max_size=60,
)


def replay(rows, n_flows):
    host = FakeHost()
    app, ref = ReceiverApp(host), ReferenceReceiverApp(host)
    time = 10.0
    for step, flow, seqno, latency in rows:
        time += step
        host.deliver(time, FLOWS[flow % n_flows], seqno, time - latency)
    return app, ref


def bits(value: Optional[float]) -> Optional[str]:
    return None if value is None else value.hex()


def probe_times(ref: ReferenceReceiverApp) -> List[float]:
    """Every delivery time, the midpoints between, and both outsides."""
    times = sorted({d.time for d in ref.deliveries})
    mids = [(a + b) / 2 for a, b in zip(times, times[1:])]
    return [0.0, 5.0, *times, *mids, 1e9]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), deliveries)
def test_every_reader_equals_the_reference(n_flows, rows):
    app, ref = replay(rows, n_flows)
    log = app.deliveries
    assert list(log) == ref.deliveries
    assert len(log) == len(ref.deliveries)
    n = len(ref.deliveries)
    for i in range(-n, n):
        assert log[i] == ref.deliveries[i]
    for piece in (slice(None), slice(1, -1), slice(None, None, 2), slice(-3, None),
                  slice(5, 2), slice(None, None, -1)):
        assert log[piece] == ref.deliveries[piece]
    assert app.unique_count == ref.unique_count
    assert app.duplicate_count == ref.duplicate_count
    assert app.delivered_seqnos() == ref.delivered_seqnos()
    for flow in (*FLOWS, "absent"):
        assert app.delivered_seqnos(flow) == ref.delivered_seqnos(flow)
        assert app.loss_count(flow, -3, 45) == ref.loss_count(flow, -3, 45)
    probes = probe_times(ref)
    for t in probes:
        assert app.first_delivery_after(t) == ref.first_delivery_after(t)
        assert bits(app.join_delay(t)) == bits(ref.join_delay(t))
        assert bits(app.mean_latency(t)) == bits(ref.mean_latency(t))
    assert bits(app.mean_latency()) == bits(ref.mean_latency())
    for start in probes[::3]:
        for end in probes[1::3]:
            assert app.deliveries_between(start, end) == ref.deliveries_between(start, end)


def test_seqnos_across_page_boundaries():
    seqs = (4095, 4096, -1, 0, -4096, -4097, 4096, 4095, -1, -4097)
    app, ref = replay([(1.0, 0, s, 0.1) for s in seqs], 1)
    assert [d.duplicate for d in app.deliveries] == [False] * 6 + [True] * 4
    assert list(app.deliveries) == ref.deliveries


def test_late_joiner_and_outage_allocate_only_the_pages_they_reach():
    # first seqno 10,000 (a receiver joining ~500 s into a 20 pkt/s
    # stream), then an outage that skips 40,000 seqnos
    seqs = [*range(10_000, 20_000), *range(60_000, 61_000), 10_000, 60_999]
    app, ref = replay([(0.05, 0, s, 0.01) for s in seqs], 1)
    assert list(app.deliveries) == ref.deliveries
    assert app.duplicate_count == 2
    (seen,) = app._seen
    assert sorted(seen.pages) == [2, 3, 4, 14]
    assert sum(len(page) for page in seen.pages.values()) == 4 * 512


def test_far_seqno_allocates_one_page():
    app, _ = replay([(1.0, 0, 10**12, 0.1), (1.0, 0, 10**12, 0.1)], 1)
    (seen,) = app._seen
    assert [len(page) for page in seen.pages.values()] == [512]
    assert app.duplicate_count == 1


def test_more_than_256_flows():
    host = FakeHost()
    app, ref = ReceiverApp(host), ReferenceReceiverApp(host)
    for k in range(300):
        host.deliver(1.0 + k, f"flow{k}", 0, 0.5 + k)
    host.deliver(400.0, "flow299", 0, 399.0)
    assert list(app.deliveries) == ref.deliveries
    assert app.duplicate_count == 1
