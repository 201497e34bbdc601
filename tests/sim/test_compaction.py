"""Cancelled-entry heap-compaction suite.

Restart-heavy protocol patterns (PIM-DM's per-packet 210 s data
timeout, MLD's per-Report T_MLI) move the queued timer event and leave
no tombstone; ``stop()``, ``cancel()`` and a restart to an earlier
deadline still cancel one kernel event each.  The kernel amortizes
those tombstones away by compacting the heap once they dominate (see
``Simulator.set_compaction``).  These tests pin the contract: bounded
heap under restart and cancel pressure, and *zero* behavioural impact —
compaction preserves FIFO tie-breaking, ``peek_next_time``, and the
pending counters, even when forced on every cancellation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, Timer


def _heap_scan(sim):
    """(pending, cancelled) recomputed from the raw heap."""
    pending = sum(1 for _, _, ev in sim._heap if ev.pending)
    cancelled = sum(1 for _, _, ev in sim._heap if ev.cancelled)
    return pending, cancelled


class TestCompactionTrigger:
    def test_no_compaction_below_min_entries(self, sim):
        events = [sim.schedule(1.0 + i, lambda: None) for i in range(100)]
        for ev in events[:80]:
            ev.cancel()
        # 80 tombstones dominate, but stay below the 1024-entry floor.
        assert sim.compactions == 0
        assert sim.heap_size == 100
        assert sim.heap_cancelled == 80

    def test_no_compaction_below_ratio(self, sim):
        sim.set_compaction(4, 0.5)
        events = [sim.schedule(1.0 + i, lambda: None) for i in range(100)]
        for ev in events[:20]:
            ev.cancel()
        # 20 tombstones pass the floor but are only 20% of the heap.
        assert sim.compactions == 0
        assert sim.heap_size == 100

    def test_compaction_fires_when_tombstones_dominate(self, sim):
        sim.set_compaction(4, 0.5)
        events = [sim.schedule(1.0 + i, lambda: None) for i in range(100)]
        for ev in events[:60]:
            ev.cancel()
        # The 51st cancellation tips past 50% of the 100-entry heap.
        assert sim.compactions == 1
        assert sim.events_pending == 40
        assert sim.heap_size == sim.events_pending + sim.heap_cancelled
        assert sim.heap_size < 60

    def test_forced_compaction_keeps_heap_exact(self, sim):
        sim.set_compaction(0, 0.0)
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(50)]
        for ev in events[::2]:
            ev.cancel()
            assert sim.heap_size == sim.events_pending
            assert sim.heap_cancelled == 0

    def test_restart_heavy_timer_keeps_heap_bounded(self, sim):
        """Restarts move the queued event: no tombstone, no compaction."""
        sim.set_compaction(64, 0.5)
        timer = Timer(sim, lambda: None, name="t_mli")
        for _ in range(5_000):
            timer.restart(260.0)
            assert sim.heap_size <= sim.events_pending + 1
        assert sim.heap_cancelled == 0
        assert sim.compactions == 0

    def test_stop_start_timer_compacts(self, sim):
        """``stop()`` + ``start()`` still cancels; compaction bounds it."""
        sim.set_compaction(64, 0.5)
        timer = Timer(sim, lambda: None, name="t_mli")
        for _ in range(5_000):
            timer.stop()
            timer.start(260.0)
            assert sim.heap_size <= 2 * max(sim.events_pending, 64) + 2
        assert sim.compactions > 10

    def test_set_compaction_validation(self, sim):
        with pytest.raises(ValueError):
            sim.set_compaction(-1, 0.5)
        with pytest.raises(ValueError):
            sim.set_compaction(0, 1.0)
        with pytest.raises(ValueError):
            sim.set_compaction(0, -0.1)


class TestCompactionTransparency:
    def test_preserves_fifo_tie_breaking(self, sim):
        sim.set_compaction(0, 0.0)  # compact on every cancellation
        fired = []
        events = [
            sim.schedule(5.0, fired.append, i, label=f"e{i}") for i in range(30)
        ]
        for i in (3, 7, 11, 19, 23):
            events[i].cancel()
        sim.run()
        survivors = [i for i in range(30) if i not in (3, 7, 11, 19, 23)]
        assert fired == survivors

    def test_preserves_peek_next_time(self, sim):
        sim.set_compaction(0, 0.0)
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        third = sim.schedule(3.0, lambda: None)
        assert sim.peek_next_time() == 1.0
        first.cancel()  # forces a compaction
        assert sim.peek_next_time() == 2.0
        third.cancel()
        assert sim.peek_next_time() == 2.0

    def test_preserves_pending_counts_and_dispatch(self, sim):
        sim.set_compaction(0, 0.0)
        fired = []
        events = [sim.schedule(float(i + 1), fired.append, i) for i in range(20)]
        for ev in events[10:]:
            ev.cancel()
        assert sim.events_pending == 10
        sim.run()
        assert fired == list(range(10))
        assert sim.events_dispatched == 10
        assert sim.events_pending == 0
        assert sim.heap_size == 0

    def test_cancel_inside_callback_compacts_safely(self, sim):
        """Compaction triggered mid-dispatch must not disturb the loop."""
        sim.set_compaction(0, 0.0)
        fired = []
        later = [sim.schedule(10.0 + i, fired.append, f"late{i}") for i in range(5)]

        def killer():
            fired.append("killer")
            for ev in later[1:]:
                ev.cancel()  # each cancel rebuilds the heap mid-run

        sim.schedule(1.0, killer)
        sim.run()
        assert fired == ["killer", "late0"]
        assert sim.heap_size == 0


class TestCompactionProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("schedule"), st.floats(0.0, 10.0)),
                st.tuples(st.just("cancel"), st.integers(0, 10_000)),
                st.tuples(st.just("step"), st.just(0)),
            ),
            max_size=200,
        )
    )
    def test_heap_within_constant_factor_of_pending(self, ops):
        """Arbitrary schedule/cancel/step interleavings: the physical
        heap stays within a constant factor of the live event count."""
        sim = Simulator()
        sim.set_compaction(8, 0.5)
        live = []
        for op, value in ops:
            if op == "schedule":
                live.append(sim.schedule(value, lambda: None))
            elif op == "cancel" and live:
                live.pop(value % len(live)).cancel()
            elif op == "step":
                sim.step()
            pending, cancelled = _heap_scan(sim)
            assert pending == sim.events_pending
            assert cancelled == sim.heap_cancelled
            # cancelled <= max(8, heap/2)  =>  heap <= 2*pending + 18
            assert sim.heap_size <= 2 * sim.events_pending + 18

    @settings(max_examples=25, deadline=None)
    @given(
        restarts=st.integers(1, 400),
        n_timers=st.integers(1, 8),
        duration=st.floats(1.0, 260.0),
    )
    def test_restart_workload_bounded(self, restarts, n_timers, duration):
        """The PIM/MLD restart pattern specifically (ISSUE criterion)."""
        sim = Simulator()
        sim.set_compaction(16, 0.5)
        timers = [Timer(sim, lambda: None, name=f"t{i}") for i in range(n_timers)]
        for i in range(restarts):
            timers[i % n_timers].restart(duration)
            assert sim.heap_size <= 2 * max(sim.events_pending, 16) + 2
        sim.run()
        assert sim.heap_size == 0
        assert sim.events_pending == 0
