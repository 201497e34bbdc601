"""Structured event tracing.

Metrics in the reproduction (join delay, leave delay, assert counts,
flood extents, tunnel overhead) are computed from a structured trace
rather than by instrumenting protocol code with ad-hoc counters.  Every
protocol entity emits :class:`TraceEvent` records through a shared
:class:`Tracer`; analysis code queries the trace afterwards.

Storage and querying are backed by the indexed
:class:`~repro.obs.store.TraceStore` (per-category and per-node
indexes, time bisection, optional bounded ring-buffer mode), so
``query``/``first``/``last``/``count`` no longer scan every event.
The query API itself lives in
:class:`~repro.obs.store.TraceQueryMixin`, shared with the offline
:class:`~repro.obs.export.TraceArchive`.

Categories in use across the reproduction:

=================  =====================================================
category           meaning
=================  =====================================================
``mld``            Query / Report / Done sent or processed
``pim``            Prune / Join / Graft / GraftAck / Assert / Hello
``pim.state``      (S,G) entry created / pruned / grafted / expired
``mipv6``          Binding Update / Ack, tunnel encap / decap
``mcast.deliver``  application-level multicast delivery at a receiver
``mcast.forward``  a router forwarded a multicast datagram onto a link
``mobility``       a mobile node detached / attached / configured a CoA
``fault``          an injected fault fired (:mod:`repro.faults`)
``drop``           a link dropped a frame (reason: ``nd-failure``,
                   ``link-loss``, ``link-down``, ``node-crashed``,
                   ``sender-detached``)
``link``           transmission records (optional, high volume)
=================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..obs.store import TraceQueryMixin, TraceStore
from .kernel import Simulator

__all__ = ["TraceEvent", "Tracer"]


@dataclass(slots=True)
class TraceEvent:
    """One trace record (never mutated after it is recorded)."""

    time: float
    category: str
    node: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def matches(self, **criteria: Any) -> bool:
        """True if every ``detail`` criterion matches this event."""
        return all(self.detail.get(k) == v for k, v in criteria.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kv = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:10.3f}] {self.category:<14} {self.node:<10} {kv}"


class _Wanted(dict):
    """A tracer's category -> wanted? answers, each computed on first
    ask (a plain dict hit after that)."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        super().__init__()
        self._tracer = tracer

    def __missing__(self, category: str) -> bool:
        wanted = self[category] = self._tracer._wanted(category)
        return wanted


class Tracer(TraceQueryMixin):
    """Collects :class:`TraceEvent` records and serves indexed queries.

    Recording of high-volume categories (``link``) can be disabled for
    long benchmark runs; all protocol-level categories are always cheap
    enough to keep.  For very long runs, ``capacity=N`` keeps only the
    newest N events (ring-buffer mode) so memory stays bounded.  A run
    that never reads its trace back sets :attr:`retain` to False: the
    store then keeps nothing, listeners still hear their categories,
    and an event no listener takes is not even built.
    """

    def __init__(
        self,
        sim: Simulator,
        enabled_categories: Optional[Iterable[str]] = None,
        disabled_categories: Optional[Iterable[str]] = None,
        capacity: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self._enabled = set(enabled_categories) if enabled_categories else None
        self._disabled = set(disabled_categories or ())
        if self._enabled is not None:
            overlap = self._enabled & self._disabled
            if overlap:
                raise ValueError(
                    "categories both enabled and disabled: "
                    f"{sorted(overlap)}"
                )
        self._store = TraceStore(capacity=capacity)
        self._retain = True
        self._listeners: List[Callable[[TraceEvent], None]] = []
        #: categories some filtered listener takes; None once an
        #: unfiltered listener takes every category
        self._listened: Optional[set] = set()
        #: category -> :meth:`wants` answer, read directly by the
        #: per-frame producers (``tracer.wanted["link"]``: no call);
        #: filled on first ask and emptied by enable/disable, retention
        #: and listener changes.  Do not write to it.
        self.wanted: Dict[str, bool] = _Wanted(self)

    # ------------------------------------------------------------------
    def record(
        self,
        category: str,
        node: str,
        detail: Optional[Dict[str, Any]] = None,
        /,
        **fields: Any,
    ) -> None:
        """Record one event at the current simulation time.

        The detail is ``fields``, or a caller's own fresh ``detail``
        dict passed positionally (``Node.trace`` hands over its kwargs
        without unpacking them again); the event keeps that dict.
        """
        if not self.wanted[category]:
            return
        if detail is None:
            detail = fields
        ev = TraceEvent(self.sim.now, category, node, detail)
        if self._retain:
            self._store.append(ev)
        for listener in self._listeners:
            listener(ev)

    def wants(self, category: str) -> bool:
        """Would an event in ``category`` be stored or heard right now?

        High-volume producers (``Link.transmit``'s ``link`` records,
        the PIM-DM data path's ``mcast.forward``, host delivery's
        ``mcast.deliver``) read the same answer from :attr:`wanted`
        *before* building the event detail — an unwanted category then
        costs one dict lookup instead of a kwargs dict per frame.  An
        enabled category is unwanted only when the store keeps nothing
        and no listener takes it.
        """
        return self.wanted[category]

    def _wanted(self, category: str) -> bool:
        if not self.is_enabled(category):
            return False
        listened = self._listened
        return self._retain or listened is None or category in listened

    @property
    def retain(self) -> bool:
        """Does the store keep recorded events?  (Default True.)"""
        return self._retain

    @retain.setter
    def retain(self, value: bool) -> None:
        self._retain = bool(value)
        self.wanted.clear()

    def add_listener(
        self,
        fn: Callable[[TraceEvent], None],
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        """Register a live listener (used by online metric collectors).

        With ``categories``, the listener only sees events whose
        category is in the set — a span recorder subscribed to the
        control-plane categories then costs one membership probe per
        data-plane event instead of a full callback.
        """
        self.wanted.clear()
        if categories is not None:
            cats = frozenset(categories)
            if self._listened is not None:
                self._listened.update(cats)

            def filtered(ev: TraceEvent, _fn=fn, _cats=cats) -> None:
                if ev.category in _cats:
                    _fn(ev)

            self._listeners.append(filtered)
            return
        self._listened = None
        self._listeners.append(fn)

    def disable(self, category: str) -> None:
        """Stop recording ``category`` (existing events are kept)."""
        self._disabled.add(category)
        self.wanted.clear()

    def enable(self, category: str) -> None:
        """(Re-)enable recording of ``category``.

        Complements :meth:`disable`: removes the category from the
        disabled set and, when a whitelist is active, adds it there.
        """
        self._disabled.discard(category)
        if self._enabled is not None:
            self._enabled.add(category)
        self.wanted.clear()

    def is_enabled(self, category: str) -> bool:
        """Would an event in ``category`` be recorded right now?"""
        if category in self._disabled:
            return False
        return self._enabled is None or category in self._enabled

    # ------------------------------------------------------------------
    # storage control
    # ------------------------------------------------------------------
    @property
    def store(self) -> TraceStore:
        """The backing :class:`~repro.obs.store.TraceStore`."""
        return self._store

    @property
    def capacity(self) -> Optional[int]:
        return self._store.capacity

    def set_capacity(self, capacity: Optional[int]) -> None:
        """Switch to ring-buffer mode (or back to unbounded).

        Existing events are re-indexed into the new store; when the new
        capacity is smaller than the current trace, only the newest
        events survive — exactly as if the run had recorded into the
        ring from the start.
        """
        store = TraceStore(capacity=capacity)
        for ev in self._store.events:
            store.append(ev)
        self._store = store

    # ``query``/``first``/``last``/``count``/``clear`` and the
    # ``events`` view come from TraceQueryMixin.

    def dump(self, limit: Optional[int] = None) -> str:  # pragma: no cover
        """Human-readable trace listing (debugging aid)."""
        rows = self.events if limit is None else self.events[:limit]
        return "\n".join(repr(ev) for ev in rows)
