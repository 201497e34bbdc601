"""Restartable protocol timers.

Every timer the paper discusses maps onto a :class:`Timer`:

* MLD group membership timer (T_MLI, default 260 s) — restarted by each
  Report (RFC 2710 §4).
* MLD query interval timer (T_Query, default 125 s) — periodic.
* PIM-DM (S,G) entry data timeout (210 s) — restarted by forwarded data.
* PIM-DM prune-pending timer (T_PruneDel, default 3 s) — cancelled by a
  Join override.
* Mobile IPv6 binding lifetime (default 256 s) — restarted by Binding
  Updates.

A Timer wraps kernel events so that protocol code never has to manage
Event handles or worry about stale callbacks after a restart.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .kernel import Event, SimulationError, Simulator

__all__ = ["Timer", "PeriodicTimer"]


class Timer:
    """One-shot restartable timer.

    >>> sim = Simulator()
    >>> fired = []
    >>> t = Timer(sim, lambda: fired.append(sim.now), name="demo")
    >>> t.start(10.0)
    >>> sim.run(until=5.0)
    >>> t.restart(10.0)        # e.g. a Report refreshed the membership
    >>> sim.run()
    >>> fired
    [15.0]
    """

    __slots__ = ("sim", "callback", "name", "_event", "duration")

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], Any],
        name: str = "timer",
    ) -> None:
        self.sim = sim
        self.callback = callback
        self.name = name
        self._event: Optional[Event] = None
        self.duration: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """True while the timer is armed and has not yet expired."""
        return self._event is not None and self._event.pending

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute expiry time, or None when not running."""
        return self._event.time if self.running else None

    @property
    def remaining(self) -> Optional[float]:
        """Seconds until expiry, or None when not running."""
        return None if not self.running else self._event.time - self.sim.now

    # ------------------------------------------------------------------
    def start(self, duration: float) -> None:
        """Arm the timer.  Restarts (reschedules) if already running.

        A restart to a deadline no earlier than the pending one moves
        the queued event (:meth:`Simulator._postpone`) and leaves no
        cancelled entry in the heap; an earlier deadline cancels it and
        schedules a new one.  Either way the timer fires exactly where
        a cancel plus a new event would.  An invalid ``duration``
        (negative or NaN) raises before the timer changes.
        """
        # written so that NaN fails the test, as in Simulator.schedule
        if not duration >= 0:
            raise SimulationError(f"invalid delay: {duration!r}")
        self.duration = duration
        sim = self.sim
        expiry = sim._now + duration
        event = self._event
        if event is not None and event.pending:
            if expiry >= event.time:
                sim._postpone(event, expiry)
                return
            event.cancel()
        self._event = sim._push(expiry, self._fire, (), None, self.name)

    def restart(self, duration: Optional[float] = None) -> None:
        """Re-arm with a new duration (or the previous one)."""
        if duration is None:
            if self.duration is None:
                raise ValueError(f"timer {self.name!r} was never started")
            duration = self.duration
        self.start(duration)

    def stop(self) -> None:
        """Disarm the timer.  Safe to call when not running."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self.callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.running:
            return f"<Timer {self.name} expires_at={self.expires_at:.3f}>"
        return f"<Timer {self.name} idle>"


class PeriodicTimer:
    """Fixed-period repeating timer (e.g. the MLD Query interval).

    The callback runs every ``period`` seconds after :meth:`start`.
    The first tick may optionally fire immediately (MLD queriers send a
    Query as soon as they assume the querier role).
    """

    __slots__ = ("sim", "callback", "name", "period", "_event")

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], Any],
        period: float,
        name: str = "periodic",
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self.sim = sim
        self.callback = callback
        self.name = name
        self.period = period
        self._event: Optional[Event] = None

    @property
    def running(self) -> bool:
        return self._event is not None and self._event.pending

    def start(self, fire_immediately: bool = False) -> None:
        self.stop()
        delay = 0.0 if fire_immediately else self.period
        self._event = self.sim.schedule(delay, self._tick, label=self.name)

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def set_period(self, period: float, reschedule: bool = True) -> None:
        """Change the period; optionally re-arm the next tick with it.

        Rescheduling preserves the phase already elapsed in the current
        cycle: the next tick moves to ``previous_expiry - old_period +
        new_period`` (clamped to now).  Arming a full new period from
        ``now`` instead would overstate the first interval after every
        mid-cycle change — e.g. the first optimized Query delay in the
        §4.4 timer sweep.
        """
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        old_period = self.period
        self.period = period
        if reschedule and self.running:
            cycle_start = self._event.time - old_period
            self._event.cancel()
            self._event = self.sim.schedule_at(
                max(self.sim.now, cycle_start + period), self._tick, label=self.name
            )

    def _tick(self) -> None:
        self._event = self.sim.schedule(self.period, self._tick, label=self.name)
        self.callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "idle"
        return f"<PeriodicTimer {self.name} period={self.period} {state}>"
