"""Indexed trace storage.

The seed tracer kept every event in a flat list and answered every
query — ``query``/``first``/``last``/``count`` — by scanning the whole
list.  That scan is the hottest analysis path (every §4.3 metric is a
trace query) and an unbounded memory ceiling for long runs.

:class:`TraceStore` replaces the flat list with

* an append-only, time-ordered event array,
* per-**category** and per-**node** secondary indexes (sorted sequence
  numbers),
* **time bisection** inside any candidate index, so time-windowed
  queries touch only the matching span, and
* an optional **ring-buffer mode** (``capacity=N``): only the newest N
  events are retained, with amortized O(1) eviction, so multi-hour
  runs hold bounded memory.

The indexes are built on the first query, not on append: a run that
never reads its trace back (every Figure run until its analysis) pays
one list slot per event, and a query extends them over only the events
appended since the last one.

Events are duck-typed: anything with ``time``/``category``/``node``
attributes (and a ``matches(**criteria)`` helper for detail filters)
can be stored.  This module deliberately has no ``repro.sim`` import
— the sim-side :class:`~repro.sim.trace.Tracer` layers on top of it.

Complexities (n = live events, k = events matching the used index,
a = events appended since the previous query):

===============================  ================================
operation                        cost
===============================  ================================
``append``                       amortized O(1)
first query after n appends      O(n) (builds the indexes)
any later query                  O(a) more, to extend them
``count(category=...)``          O(log k)
``count(category, since/until)`` O(log k)
``select`` iteration             O(log k + matches)
``count`` with detail criteria   O(k), not O(n)
===============================  ================================
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["TraceStore", "TraceQueryMixin"]

_EMPTY: Tuple[int, ...] = ()


class TraceStore:
    """Append-only event store with category/node/time indexes.

    ``capacity=None`` (default) retains every event — the indexed
    equivalent of the seed's flat list.  ``capacity=N`` keeps only the
    newest N events (ring-buffer mode); evicted events silently fall
    out of every index.
    """

    __slots__ = (
        "capacity",
        "_events",
        "_base",
        "_min_live",
        "_last_time",
        "_indexed",
        "_times",
        "_by_category",
        "_by_node",
    )

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        # Events live at _events[seq - _base]; sequence numbers are
        # global and monotone, which keeps index lists sorted and makes
        # ring eviction a pointer bump (_min_live) + lazy compaction.
        self._events: List[Any] = []
        self._base = 0  # seq of _events[0]
        self._min_live = 0  # seq of the oldest retained event
        self._last_time: Any = -math.inf
        # The indexes cover seqs [_base, _indexed): _times[seq - _base]
        # and, per category and node, the ascending seqs.
        self._indexed = 0
        self._times: List[Any] = []
        self._by_category: Dict[str, array] = {}
        self._by_node: Dict[str, array] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def append(self, event: Any) -> None:
        """Append one event.  Times must be non-decreasing (they come
        from a monotone simulation clock)."""
        time = event.time
        if time < self._last_time:
            raise ValueError(
                f"out-of-order event: t={time!r} after t={self._last_time!r}"
            )
        self._last_time = time
        events = self._events
        events.append(event)
        if self.capacity is not None:
            end = self._base + len(events)
            if end - self._min_live > self.capacity:
                self._min_live = end - self.capacity
                # Compact once the dead prefix outweighs the live window
                # so eviction stays amortized O(1) and memory <= 2N.
                if self._min_live - self._base > self.capacity:
                    self._compact()

    def _compact(self) -> None:
        # Rebind to fresh slices rather than delete in place: a
        # suspended select() keeps reading the lists it started with.
        drop = self._min_live - self._base
        if drop <= 0:
            return
        self._events = self._events[drop:]
        self._times = self._times[drop:]
        self._base = self._min_live
        self._indexed = max(self._indexed, self._base)
        for index in (self._by_category, self._by_node):
            for key in list(index):
                seqs = index[key]
                cut = bisect.bisect_left(seqs, self._base)
                if cut == len(seqs):
                    del index[key]
                elif cut:
                    index[key] = seqs[cut:]

    def _index(self) -> None:
        """Extend the indexes over the events appended since the last
        query (all of them on the first)."""
        events = self._events
        end = self._base + len(events)
        if self._indexed == end:
            return
        base = self._base
        times = self._times
        by_category = self._by_category
        by_node = self._by_node
        for seq in range(self._indexed, end):
            event = events[seq - base]
            times.append(event.time)
            seqs = by_category.get(event.category)
            if seqs is None:
                seqs = by_category[event.category] = array("q")
            seqs.append(seq)
            seqs = by_node.get(event.node)
            if seqs is None:
                seqs = by_node[event.node] = array("q")
            seqs.append(seq)
        self._indexed = end

    def clear(self) -> None:
        self._events.clear()
        self._base = 0
        self._min_live = 0
        self._last_time = -math.inf
        self._indexed = 0
        self._times.clear()
        self._by_category.clear()
        self._by_node.clear()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._base + len(self._events) - self._min_live

    @property
    def total_recorded(self) -> int:
        """Events ever appended, including ring-evicted ones."""
        return self._base + len(self._events)

    @property
    def evicted(self) -> int:
        """Events dropped by ring-buffer eviction."""
        return self._min_live

    @property
    def events(self) -> List[Any]:
        """The live events, oldest first.

        In unbounded mode this is the internal list (cheap, and
        source-compatible with the seed's ``tracer.events``); do not
        mutate it.  In ring mode it is a fresh copy of the live window.
        """
        start = self._min_live - self._base
        if start == 0:
            return self._events
        return self._events[start:]

    def categories(self) -> List[str]:
        return self._live_keys(self._by_category)

    def nodes(self) -> List[str]:
        return self._live_keys(self._by_node)

    def _live_keys(self, index: Dict[str, array]) -> List[str]:
        self._index()
        # an index's newest seq is live unless the ring evicted all of it
        return sorted(key for key, seqs in index.items() if seqs[-1] >= self._min_live)

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def _candidates(
        self, category: Optional[str], node: Optional[str]
    ) -> Tuple[Sequence[int], Optional[Tuple[str, str]]]:
        """Pick the smallest applicable index; return (seqs, residual)
        where residual is an attribute filter the index can't cover."""
        self._index()
        if category is not None and node is not None:
            by_cat = self._by_category.get(category, _EMPTY)
            by_node = self._by_node.get(node, _EMPTY)
            if len(by_cat) <= len(by_node):
                return by_cat, ("node", node)
            return by_node, ("category", category)
        if category is not None:
            return self._by_category.get(category, _EMPTY), None
        if node is not None:
            return self._by_node.get(node, _EMPTY), None
        return range(self._min_live, self._base + len(self._events)), None

    def _time_of(self, seq: int) -> float:
        return self._times[seq - self._base]

    def _bisect_time(
        self, seqs: Sequence[int], lo: int, hi: int, t: float, right: bool
    ) -> int:
        """First index in seqs[lo:hi] whose event time is >= t (or > t
        when ``right``), by binary search through the times array."""
        while lo < hi:
            mid = (lo + hi) // 2
            tm = self._time_of(seqs[mid])
            if tm < t or (right and tm == t):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _window(
        self, seqs: Sequence[int], since: Optional[float], until: Optional[float]
    ) -> Tuple[int, int]:
        lo = bisect.bisect_left(seqs, self._min_live)
        hi = len(seqs)
        if since is not None:
            lo = self._bisect_time(seqs, lo, hi, since, right=False)
        if until is not None:
            hi = self._bisect_time(seqs, lo, hi, until, right=True)
        return lo, hi

    def select(
        self,
        category: Optional[str] = None,
        node: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        reverse: bool = False,
    ) -> Iterator[Any]:
        """Iterate matching events in time order (or reversed)."""
        seqs, residual = self._candidates(category, node)
        lo, hi = self._window(seqs, since, until)
        indices = range(hi - 1, lo - 1, -1) if reverse else range(lo, hi)
        events = self._events
        base = self._base
        if residual is None:
            for i in indices:
                yield events[seqs[i] - base]
        else:
            attr, wanted = residual
            for i in indices:
                event = events[seqs[i] - base]
                if getattr(event, attr) == wanted:
                    yield event

    def count(
        self,
        category: Optional[str] = None,
        node: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> int:
        """Matching-event count; O(log k) unless both category and node
        are constrained (then the smaller index is walked)."""
        seqs, residual = self._candidates(category, node)
        lo, hi = self._window(seqs, since, until)
        if residual is None:
            return hi - lo
        attr, wanted = residual
        events = self._events
        base = self._base
        return sum(
            1 for i in range(lo, hi) if getattr(events[seqs[i] - base], attr) == wanted
        )


class TraceQueryMixin:
    """The tracer query API over an underlying :class:`TraceStore`.

    Shared by the live :class:`~repro.sim.trace.Tracer` and the offline
    :class:`~repro.obs.export.TraceArchive`, so analysis code written
    against one runs unchanged against the other.  Subclasses provide
    ``self._store``.
    """

    _store: TraceStore

    @property
    def events(self) -> List[Any]:
        return self._store.events

    def query(
        self,
        category: Optional[str] = None,
        node: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        **criteria: Any,
    ) -> Iterator[Any]:
        """Iterate events filtered by category / node / time / detail."""
        selected = self._store.select(category, node, since, until)
        if not criteria:
            yield from selected
        else:
            for event in selected:
                if event.matches(**criteria):
                    yield event

    def first(self, category: Optional[str] = None, **kw: Any) -> Optional[Any]:
        """First matching event, or None."""
        return next(self.query(category, **kw), None)

    def last(
        self,
        category: Optional[str] = None,
        node: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        **criteria: Any,
    ) -> Optional[Any]:
        """Last matching event, or None (reverse index walk, not a full
        forward scan like the seed)."""
        for event in self._store.select(category, node, since, until, reverse=True):
            if not criteria or event.matches(**criteria):
                return event
        return None

    def count(
        self,
        category: Optional[str] = None,
        node: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        **criteria: Any,
    ) -> int:
        """Number of matching events."""
        if not criteria:
            return self._store.count(category, node, since, until)
        return sum(
            1
            for event in self._store.select(category, node, since, until)
            if event.matches(**criteria)
        )

    def clear(self) -> None:
        self._store.clear()
