"""Discrete-event simulation kernel.

The kernel is a deterministic event-driven scheduler.  Every protocol
entity in the reproduction (links, MLD hosts and routers, PIM-DM
routers, mobile nodes, home agents, traffic sources) schedules callbacks
on a single :class:`Simulator` instance.  Determinism is guaranteed by

* a monotonically increasing sequence number that breaks ties between
  events scheduled for the same instant (FIFO within an instant), and
* a single seeded random number stream (see :mod:`repro.sim.rng`).

Time is a float in **seconds**, matching the units the paper uses for
every protocol timer (T_Query = 125 s, T_MLI = 260 s, data timeout =
210 s, T_PruneDel = 3 s, ...).

Performance notes (see docs/PERFORMANCE.md)
-------------------------------------------
Heap entries are plain ``(time, seq, event)`` tuples so the ``heapq``
sift comparisons run entirely in C — the previous ``@dataclass
(order=True)`` entry paid a Python-level ``__lt__`` (plus two tuple
allocations) per comparison, dominating dispatch cost at scale.

Restart-heavy protocol patterns (PIM-DM restarts the 210 s (S,G)
data timeout on *every* forwarded packet; MLD restarts T_MLI on every
Report) do not touch the heap: a :class:`~repro.sim.timers.Timer`
restart to a deadline no earlier than the pending one takes a fresh
sequence number — exactly as :meth:`Simulator.schedule_at` would — and
stores the new ``(time, seq)`` key on the event, whose heap entry
stays where it is.  The stale entry always surfaces before the new key
would, and is then re-pushed under that key (not a dispatch), so the
dispatch order is that of a cancel plus a new event, without the
tombstone.

Every event enters the heap through :meth:`Simulator._push`, which
takes the callback's arguments already packed.  ``schedule`` and
``schedule_at`` check their time and end there.  ``Link`` deliveries
(never due before now: the link validates its delay and bandwidth) and
``Timer`` starts (which check their delay) call it directly, so no
frame packs ``*args``, ``label=`` or ``**kwargs``.  All of them draw
from one sequence counter, so FIFO order within an instant does not
depend on the entry point.

Cancellation (``stop()``, ``cancel()``, a restart to an earlier
deadline) is O(1) lazy deletion.  The kernel tracks the number of
cancelled entries still in the heap and **compacts** (filters +
re-heapifies) once the cancelled fraction passes a threshold
(:meth:`Simulator.set_compaction`).  Compaction preserves the
``(time, seq)`` keys, so FIFO tie-breaking — and hence every golden
trace — is unaffected.
"""

from __future__ import annotations

import heapq
from itertools import count
from time import perf_counter
from typing import Any, Callable, Optional, Tuple

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid kernel operations (e.g. scheduling in the past)."""


#: A scheduled heap entry.  Plain tuples compare in C; ``seq`` is unique
#: per simulator, so ``event`` is never reached by a comparison.
_HeapEntry = Tuple[float, int, "Event"]


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`.  They may be cancelled; cancellation
    is O(1) (lazy deletion from the heap, amortized by compaction).
    """

    __slots__ = (
        "time",
        "seq",
        "fn",
        "args",
        "kwargs",
        "cancelled",
        "dispatched",
        "label",
        "_sim",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: Optional[dict],
        label: str = "",
    ) -> None:
        #: ``(time, seq)`` is the dispatch key; a heap entry whose seq
        #: differs was moved by :meth:`Simulator._postpone`
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        #: None when the callback takes no keyword arguments
        self.kwargs = kwargs
        self.cancelled = False
        self.dispatched = False
        self.label = label
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Cancel the event.  Cancelling a dispatched event is a no-op."""
        if self.cancelled or self.dispatched:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancel()

    @property
    def pending(self) -> bool:
        """True while the event is still queued and will fire."""
        return not self.cancelled and not self.dispatched

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "cancelled"
            if self.cancelled
            else ("dispatched" if self.dispatched else "pending")
        )
        name = self.label or getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} {name} {state}>"


class Simulator:
    """Deterministic discrete-event scheduler.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    #: Default compaction trigger: rebuild the heap once more than
    #: COMPACT_MIN_ENTRIES cancelled tombstones accumulate *and* they
    #: make up more than COMPACT_RATIO of the heap.
    COMPACT_MIN_ENTRIES = 1024
    COMPACT_RATIO = 0.5

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: list[_HeapEntry] = []
        self._seq = count()
        self._running = False
        self._dispatched_count = 0
        self._pending_count = 0
        self._cancelled_in_heap = 0
        self._compactions = 0
        self._compact_min = self.COMPACT_MIN_ENTRIES
        self._compact_ratio = self.COMPACT_RATIO
        self._profiler: Optional[Any] = None
        self._dispatch_hook: Optional[Callable[["Event"], None]] = None

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_dispatched(self) -> int:
        """Total number of callbacks executed so far (kernel statistic)."""
        return self._dispatched_count

    @property
    def events_pending(self) -> int:
        """Number of queued, not-yet-cancelled events.

        O(1): a live counter maintained on schedule / cancel /
        dispatch, instead of summing over the whole heap.
        """
        return self._pending_count

    # ------------------------------------------------------------------
    # heap health (cancelled-entry compaction)
    # ------------------------------------------------------------------
    @property
    def heap_size(self) -> int:
        """Entries physically in the heap (pending + cancelled tombstones).

        Every pending event has exactly one entry: a restarted timer's
        event keeps its entry (see :meth:`_postpone`)."""
        return len(self._heap)

    @property
    def heap_cancelled(self) -> int:
        """Cancelled tombstones still occupying heap slots."""
        return self._cancelled_in_heap

    @property
    def compactions(self) -> int:
        """How many times the heap has been compacted (kernel statistic)."""
        return self._compactions

    def set_compaction(self, min_entries: int, ratio: float) -> None:
        """Tune the cancelled-entry compaction trigger.

        The heap is rebuilt (cancelled tombstones filtered out, then
        re-heapified) whenever more than ``min_entries`` cancelled
        entries are queued *and* they exceed ``ratio`` of the heap.
        ``min_entries=0, ratio=0.0`` compacts on every cancellation —
        useful in tests; the defaults amortize the O(n) rebuild over at
        least ``min_entries`` O(1) cancellations.
        """
        if min_entries < 0:
            raise ValueError(f"min_entries must be >= 0, got {min_entries!r}")
        if not 0.0 <= ratio < 1.0:
            raise ValueError(f"ratio must be in [0, 1), got {ratio!r}")
        self._compact_min = min_entries
        self._compact_ratio = ratio

    def _note_cancel(self) -> None:
        """Account one cancellation; compact when tombstones dominate."""
        self._pending_count -= 1
        cancelled = self._cancelled_in_heap + 1
        self._cancelled_in_heap = cancelled
        if cancelled >= self._compact_min and cancelled > len(self._heap) * self._compact_ratio:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled tombstones and re-heapify.

        ``(time, seq)`` keys are untouched, so event ordering — including
        FIFO tie-breaking within an instant — is exactly preserved.
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # profiling
    # ------------------------------------------------------------------
    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Install (or remove, with None) a dispatch profiler.

        The profiler's ``account(label, elapsed_seconds)`` is called
        after every dispatched callback; see
        :class:`repro.obs.profiler.KernelProfiler`.  With no profiler
        installed the dispatch loop pays one ``is None`` check per
        event.
        """
        self._profiler = profiler

    @property
    def profiler(self) -> Optional[Any]:
        return self._profiler

    def set_dispatch_hook(self, hook: Optional[Callable[["Event"], None]]) -> None:
        """Install (or remove, with None) a pre-dispatch inspection hook.

        The hook is called with each :class:`Event` immediately before
        its callback executes — before the clock advances — so it can
        audit kernel legality (monotonic event time, no dispatch of a
        cancelled event); see
        :class:`repro.invariants.kernel.KernelSanityOracle`.  With no
        hook installed the dispatch loop pays one ``is None`` check per
        event.
        """
        self._dispatch_hook = hook

    @property
    def dispatch_hook(self) -> Optional[Callable[["Event"], None]]:
        return self._dispatch_hook

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative (NaN is rejected, ``inf`` is
        allowed).  A zero delay schedules the callback at the current
        instant, after all callbacks already queued for this instant
        (FIFO ordering).
        """
        # written so that NaN fails the test: a NaN key breaks the heap order
        if not delay >= 0:
            raise SimulationError(f"invalid delay: {delay!r}")
        return self._push(self._now + delay, fn, args, kwargs or None, label)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``fn`` at an absolute simulation time (not NaN)."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, now is t={self._now!r}"
            )
        return self._push(time, fn, args, kwargs or None, label)

    def _push(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: Optional[dict],
        label: str,
    ) -> Event:
        """Queue ``fn(*args, **kwargs)`` at ``time`` under the next
        sequence number: :meth:`schedule_at` after its time check, with
        the arguments already packed (``kwargs`` None when there are
        none).  The caller guarantees ``now <= time`` and that ``time``
        is not NaN, which would break the heap order.
        """
        seq = next(self._seq)
        event = Event(time, seq, fn, args, kwargs, label)
        event._sim = self
        heapq.heappush(self._heap, (time, seq, event))
        self._pending_count += 1
        return event

    def _postpone(self, event: Event, time: float) -> None:
        """Move pending ``event`` to ``time`` (not earlier than
        ``event.time``) without touching the heap.

        The event takes the sequence number a new event scheduled now
        would take, so it dispatches exactly where cancel-and-reschedule
        would put it.  Its heap entry keeps the old, smaller key; when
        that entry surfaces, :meth:`_pop_next` / :meth:`peek_next_time`
        re-push it under the new one.
        """
        event.time = time
        event.seq = next(self._seq)

    def call_now(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn`` at the current instant (after queued same-time events)."""
        return self.schedule(0.0, fn, *args, **kwargs)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _pop_next(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the next live event, discarding cancelled tombstones.

        Returns None when the queue is exhausted or the next live event
        lies strictly beyond ``until``.  Re-reads ``self._heap`` on
        entry so it composes with compaction triggered by callbacks.
        """
        heap = self._heap
        while heap:
            time, seq, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            # a moved entry's real key is later still, so this test
            # holds for it too
            if until is not None and time > until:
                return None
            if seq != event.seq:
                heapq.heapreplace(heap, (event.time, event.seq, event))
                continue
            heapq.heappop(heap)
            return event
        return None

    def _dispatch(self, event: Event) -> None:
        """The single dispatch core shared by :meth:`step` and :meth:`run`:

        inspection hook, clock advance, accounting, callback, profiler.
        Having exactly one copy keeps ``step()``- and ``run()``-driven
        executions behaviourally identical (same hooks, same counters,
        same trace streams) — they had drifted apart when each carried
        its own loop body.
        """
        if self._dispatch_hook is not None:
            self._dispatch_hook(event)
        self._now = event.time
        event.dispatched = True
        self._dispatched_count += 1
        self._pending_count -= 1
        profiler = self._profiler
        if profiler is not None:
            started = perf_counter()
        kwargs = event.kwargs
        if kwargs is None:
            event.fn(*event.args)
        else:
            event.fn(*event.args, **kwargs)
        if profiler is not None:
            profiler.account(
                event.label or getattr(event.fn, "__qualname__", "?"),
                perf_counter() - started,
            )

    def step(self) -> bool:
        """Dispatch the single next pending event.

        Returns False when the queue is exhausted.
        """
        event = self._pop_next()
        if event is None:
            return False
        self._dispatch(event)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly beyond this time, and
            advance the clock to ``until``.  ``None`` runs to queue
            exhaustion.
        max_events:
            Safety valve; raise :class:`SimulationError` if more than
            this many events are dispatched in this call.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        dispatched = 0
        try:
            while True:
                event = self._pop_next(until)
                if event is None:
                    break
                self._dispatch(event)
                dispatched += 1
                if max_events is not None and dispatched > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} (runaway simulation?)"
                    )
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def peek_next_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        heap = self._heap
        while heap:
            time, seq, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
            elif seq != event.seq:
                heapq.heapreplace(heap, (event.time, event.seq, event))
            else:
                return time
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.6f} pending={self.events_pending}>"
