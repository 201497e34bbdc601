"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import SimulationError, Simulator


class TestScheduling:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_and_run(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 1.0

    def test_events_run_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, 3)
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [1, 2, 3]

    def test_same_time_events_fifo(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_zero_delay_runs_after_queued_same_instant(self, sim):
        fired = []
        sim.schedule(0.0, fired.append, "first")
        sim.schedule(0.0, fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute(self, sim):
        fired = []
        sim.schedule_at(5.0, fired.append, "x")
        sim.run()
        assert sim.now == 5.0 and fired == ["x"]

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_delay_rejected(self, sim):
        """NaN compares False both ways, so a ``delay < 0`` guard lets it
        into the heap, where it breaks the time order of later events."""
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule(float("nan"), lambda: None)
        assert sim.events_pending == 0

    def test_nan_time_rejected(self, sim):
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.events_pending == 0

    def test_infinite_delay_allowed(self, sim):
        event = sim.schedule(float("inf"), lambda: None)
        assert event.pending
        sim.run(until=10.0)
        assert sim.now == 10.0 and event.pending

    def test_kwargs_passed(self, sim):
        got = {}
        sim.schedule(1.0, lambda **kw: got.update(kw), a=1, b=2)
        sim.run()
        assert got == {"a": 1, "b": 2}

    def test_call_now(self, sim):
        fired = []
        sim.call_now(fired.append, 1)
        sim.run()
        assert fired == [1] and sim.now == 0.0

    def test_push_interleaves_with_schedule_at_in_seq_order(self, sim):
        """``_push`` is ``schedule_at`` after its time check: at one
        instant its events take sequence numbers in call order with the
        others, and hook and profiler see each under its own label."""
        from repro.obs import KernelProfiler
        from repro.sim import Timer

        fired, hooked = [], []
        profiler = KernelProfiler()
        sim.set_profiler(profiler)
        sim.set_dispatch_hook(lambda event: hooked.append(event.label))
        events = [
            sim.schedule_at(1.0, fired.append, "a", label="sched"),
            sim._push(1.0, fired.append, ("b",), None, "push"),
            sim.schedule(1.0, fired.append, "c", label="sched"),
            sim._push(1.0, lambda x: fired.append(x), (), {"x": "d"}, "push-kw"),
        ]
        Timer(sim, lambda: fired.append("e"), name="timer").start(1.0)
        sim.run()
        first = events[0].seq
        assert [event.seq for event in events] == list(range(first, first + 4))
        assert fired == ["a", "b", "c", "d", "e"]
        assert hooked == ["sched", "push", "sched", "push-kw", "timer"]
        counts = {entry.label: entry.count for entry in profiler.entries()}
        assert counts == {"sched": 2, "push": 1, "push-kw": 1, "timer": 1}
        assert sim.events_pending == 0 and sim.events_dispatched == 5

    def test_events_scheduled_during_dispatch(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestCancellation:
    def test_cancel_prevents_dispatch(self, sim):
        fired = []
        ev = sim.schedule(1.0, fired.append, "x")
        ev.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        sim.run()

    def test_pending_flag(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        assert ev.pending
        sim.run()
        assert not ev.pending

    def test_cancelled_not_pending(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        assert not ev.pending

    def test_cancel_one_of_many(self, sim):
        fired = []
        keep = sim.schedule(1.0, fired.append, "keep")
        drop = sim.schedule(1.0, fired.append, "drop")
        drop.cancel()
        sim.run()
        assert fired == ["keep"]
        assert keep.dispatched


class TestRunControl:
    def test_run_until_stops_clock(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 10)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_run_until_resumes(self, sim):
        fired = []
        sim.schedule(10.0, fired.append, 10)
        sim.run(until=5.0)
        sim.run(until=20.0)
        assert fired == [10]
        assert sim.now == 20.0

    def test_run_until_inclusive_boundary(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_step_returns_false_on_empty(self, sim):
        assert sim.step() is False

    def test_step_single_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.step() is True
        assert fired == [1]

    def test_max_events_guard(self, sim):
        def loop():
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_not_reentrant(self, sim):
        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_dispatched_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_dispatched == 5

    def test_events_pending_counter(self, sim):
        a = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.events_pending == 2
        a.cancel()
        assert sim.events_pending == 1

    def test_events_pending_tracks_dispatch(self, sim):
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.step()
        assert sim.events_pending == 3
        sim.run()
        assert sim.events_pending == 0

    def test_double_cancel_counts_once(self, sim):
        a = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        a.cancel()
        a.cancel()
        assert sim.events_pending == 1
        sim.run()
        assert sim.events_pending == 0

    def test_cancel_after_dispatch_is_noop_for_counter(self, sim):
        a = sim.schedule(1.0, lambda: None)
        sim.run()
        a.cancel()
        assert sim.events_pending == 0

    def test_pending_counter_matches_heap_scan(self, sim):
        import random

        rng = random.Random(7)
        events = []
        for _ in range(200):
            if events and rng.random() < 0.3:
                events.pop(rng.randrange(len(events))).cancel()
            else:
                events.append(sim.schedule(rng.uniform(0.0, 10.0), lambda: None))
            assert sim.events_pending == sum(
                1 for _, _, event in sim._heap if event.pending
            )

    def test_peek_next_time(self, sim):
        assert sim.peek_next_time() is None
        ev = sim.schedule(3.0, lambda: None)
        sim.schedule(7.0, lambda: None)
        assert sim.peek_next_time() == 3.0
        ev.cancel()
        assert sim.peek_next_time() == 7.0

    def test_clock_advances_to_until_with_empty_queue(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0
