"""Unit tests for restartable and periodic timers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import PeriodicTimer, SimulationError, Simulator, Timer


class TestTimer:
    def test_fires_after_duration(self, sim):
        fired = []
        t = Timer(sim, lambda: fired.append(sim.now))
        t.start(10.0)
        sim.run()
        assert fired == [10.0]

    def test_restart_extends_deadline(self, sim):
        """The MLD membership-timer pattern: each Report restarts T_MLI."""
        fired = []
        t = Timer(sim, lambda: fired.append(sim.now))
        t.start(10.0)
        sim.run(until=6.0)
        t.restart()
        sim.run()
        assert fired == [16.0]

    def test_restart_with_new_duration(self, sim):
        fired = []
        t = Timer(sim, lambda: fired.append(sim.now))
        t.start(10.0)
        sim.run(until=1.0)
        t.restart(2.0)
        sim.run()
        assert fired == [3.0]

    def test_restart_never_started_raises(self, sim):
        t = Timer(sim, lambda: None)
        with pytest.raises(ValueError):
            t.restart()

    def test_stop_prevents_firing(self, sim):
        fired = []
        t = Timer(sim, lambda: fired.append(1))
        t.start(5.0)
        sim.run(until=2.0)
        t.stop()
        sim.run()
        assert fired == []

    def test_stop_idle_is_noop(self, sim):
        Timer(sim, lambda: None).stop()

    def test_running_property(self, sim):
        t = Timer(sim, lambda: None)
        assert not t.running
        t.start(5.0)
        assert t.running
        sim.run()
        assert not t.running

    def test_remaining(self, sim):
        t = Timer(sim, lambda: None)
        t.start(10.0)
        sim.run(until=4.0)
        assert t.remaining == pytest.approx(6.0)

    def test_remaining_none_when_idle(self, sim):
        assert Timer(sim, lambda: None).remaining is None

    def test_expires_at(self, sim):
        t = Timer(sim, lambda: None)
        sim.run(until=3.0)
        t.start(7.0)
        assert t.expires_at == pytest.approx(10.0)

    @pytest.mark.parametrize("duration", [-1.0, float("nan")])
    def test_invalid_duration_leaves_timer_unchanged(self, sim, duration):
        fired = []
        t = Timer(sim, lambda: fired.append(sim.now))
        t.start(5.0)
        with pytest.raises(SimulationError):
            t.start(duration)
        assert t.expires_at == 5.0 and t.duration == 5.0
        sim.run()
        assert fired == [5.0]

    def test_start_while_running_restarts(self, sim):
        fired = []
        t = Timer(sim, lambda: fired.append(sim.now))
        t.start(10.0)
        sim.run(until=5.0)
        t.start(10.0)
        sim.run()
        assert fired == [15.0]

    def test_restart_inside_callback(self, sim):
        fired = []

        def cb():
            fired.append(sim.now)
            if len(fired) < 3:
                t.restart(5.0)

        t = Timer(sim, cb)
        t.start(5.0)
        sim.run()
        assert fired == [5.0, 10.0, 15.0]


class TestPeriodicTimer:
    def test_ticks_at_period(self, sim):
        ticks = []
        p = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=5.0)
        p.start()
        sim.run(until=16.0)
        assert ticks == [5.0, 10.0, 15.0]

    def test_fire_immediately(self, sim):
        """The MLD querier pattern: first Query on assuming the role."""
        ticks = []
        p = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=5.0)
        p.start(fire_immediately=True)
        sim.run(until=11.0)
        assert ticks == [0.0, 5.0, 10.0]

    def test_stop(self, sim):
        ticks = []
        p = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=5.0)
        p.start()
        sim.run(until=7.0)
        p.stop()
        sim.run(until=30.0)
        assert ticks == [5.0]

    def test_set_period_reschedules(self, sim):
        """Section 4.4: a querier switching from startup to steady rate."""
        ticks = []
        p = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=10.0)
        p.start()
        sim.run(until=10.0)
        p.set_period(2.0)
        sim.run(until=15.0)
        assert ticks == [10.0, 12.0, 14.0]

    def test_set_period_shrink_preserves_elapsed_phase(self, sim):
        """Shrinking mid-cycle keeps the phase already elapsed: started
        at t=0 with period 10, shrinking to 6 at t=4 means the cycle is
        4 s in, so the next tick lands at t=6 — not a full 6 s later."""
        ticks = []
        p = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=10.0)
        p.start()
        sim.run(until=4.0)
        p.set_period(6.0)
        sim.run(until=19.0)
        assert ticks == [6.0, 12.0, 18.0]

    def test_set_period_shrink_below_elapsed_fires_now(self, sim):
        """If the elapsed phase already exceeds the new period, the tick
        is overdue: it fires at once (clamped to now), not after
        another full period."""
        ticks = []
        p = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=100.0)
        p.start()
        sim.run(until=80.0)
        p.set_period(50.0)
        sim.run(until=140.0)
        assert ticks == [80.0, 130.0]

    def test_set_period_grow_preserves_elapsed_phase(self, sim):
        """Growing mid-cycle credits the elapsed phase: 4 s into a 10 s
        cycle, switching to 25 s leaves 21 s to go — next tick at 25."""
        ticks = []
        p = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=10.0)
        p.start()
        sim.run(until=4.0)
        p.set_period(25.0)
        sim.run(until=51.0)
        assert ticks == [25.0, 50.0]

    def test_set_period_without_reschedule_keeps_next_tick(self, sim):
        ticks = []
        p = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=10.0)
        p.start()
        sim.run(until=4.0)
        p.set_period(3.0, reschedule=False)
        sim.run(until=14.0)
        assert ticks == [10.0, 13.0]

    def test_set_period_at_tick_instant_is_a_full_new_period(self, sim):
        """The MLD startup->steady transition calls set_period from the
        tick callback, where the elapsed phase is zero: the next tick is
        exactly one new period away (unchanged behaviour)."""
        ticks = []
        p = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=5.0)

        def cb():
            ticks.append(sim.now)
            if len(ticks) == 1:
                p.set_period(20.0)

        p.callback = cb
        p.start()
        sim.run(until=46.0)
        assert ticks == [5.0, 25.0, 45.0]

    def test_invalid_period_rejected(self, sim):
        with pytest.raises(ValueError):
            PeriodicTimer(sim, lambda: None, period=0.0)
        p = PeriodicTimer(sim, lambda: None, period=1.0)
        with pytest.raises(ValueError):
            p.set_period(-1.0)

    def test_restart_resets_phase(self, sim):
        ticks = []
        p = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=10.0)
        p.start()
        sim.run(until=4.0)
        p.start()  # re-arm at t=4
        sim.run(until=25.0)
        assert ticks == [14.0, 24.0]

    def test_running_property(self, sim):
        p = PeriodicTimer(sim, lambda: None, period=1.0)
        assert not p.running
        p.start()
        assert p.running
        p.stop()
        assert not p.running


class ReferenceTimer:
    """``Timer`` with the cancel-and-reschedule ``start`` it had before
    restarts moved the queued event; the reference for the suite below."""

    def __init__(self, sim, callback, name):
        self.sim = sim
        self.callback = callback
        self.name = name
        self._event = None

    @property
    def running(self):
        return self._event is not None and self._event.pending

    @property
    def expires_at(self):
        return self._event.time if self.running else None

    def start(self, duration):
        self.stop()
        self._event = self.sim.schedule(duration, self._fire, label=self.name)

    def stop(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self):
        self._event = None
        self.callback()


#: binary-exact offsets, so deadlines, raw events and run bounds tie often
_OFFSETS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
_N_TIMERS = 3
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("start"), st.integers(0, _N_TIMERS - 1), _OFFSETS),
        st.tuples(st.just("stop"), st.integers(0, _N_TIMERS - 1), st.just(0.0)),
        st.tuples(st.just("raw"), st.integers(0, 9), _OFFSETS),
        st.tuples(st.just("run"), st.just(0), _OFFSETS),
        st.tuples(st.just("peek"), st.just(0), st.just(0.0)),
    ),
    max_size=60,
)


class _Side:
    """One simulator driven by the op stream, with ``make`` timers.

    Timer ``i``'s callback logs its firing and (re)starts timer
    ``i+1``, if any, with a 1 s duration, so restarts also happen
    mid-dispatch."""

    def __init__(self, make, compact):
        self.sim = Simulator()
        if compact:
            self.sim.set_compaction(0, 0.0)
        self.log = []
        self.timers = [
            make(self.sim, self._callback(i), f"t{i}") for i in range(_N_TIMERS)
        ]

    def _callback(self, i):
        def fire():
            self.log.append((f"t{i}", self.sim.now))
            if i + 1 < _N_TIMERS:
                self.timers[i + 1].start(1.0)

        return fire

    def apply(self, op, index, offset):
        sim = self.sim
        if op == "start":
            self.timers[index].start(offset)
        elif op == "stop":
            self.timers[index].stop()
        elif op == "raw":
            sim.schedule_at(sim.now + offset, self.log.append, (f"raw{index}", offset))
        elif op == "run":
            sim.run(until=sim.now + offset)
        else:
            return sim.peek_next_time()
        return None

    def state(self):
        sim = self.sim
        return (
            list(self.log),
            sim.now,
            sim.events_dispatched,
            sim.events_pending,
            [t.expires_at for t in self.timers],
        )


class TestRestartMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS, compact=st.booleans())
    def test_same_dispatch_as_cancel_and_reschedule(self, ops, compact):
        """Moving the queued event on a later restart dispatches exactly
        what cancel-and-reschedule dispatches, in the same order, with
        the same counters, deadlines and ``peek_next_time``."""
        moved = _Side(Timer, compact)
        reference = _Side(ReferenceTimer, compact)
        for op in ops:
            assert moved.apply(*op) == reference.apply(*op)
            assert moved.state() == reference.state()
        moved.sim.run()
        reference.sim.run()
        assert moved.state() == reference.state()
        assert moved.sim.heap_size == 0

    def test_later_restart_leaves_no_tombstone(self, sim):
        t = Timer(sim, lambda: None)
        t.start(5.0)
        sim.run(until=1.0)
        t.start(5.0)
        t.start(7.0)
        assert (sim.heap_size, sim.heap_cancelled) == (1, 0)
        assert t.expires_at == 8.0
        t.start(1.0)  # earlier deadline: cancel and reschedule
        assert (sim.heap_size, sim.heap_cancelled) == (2, 1)
        assert sim.peek_next_time() == 2.0
