"""``step()``- vs ``run()``-driven execution must be indistinguishable.

The two dispatch loops had drifted apart (each carried its own copy of
the hook/profiler/accounting block); they now share one ``_dispatch``
core.  These tests pin the unification: the same workload driven event
by event through ``step()`` produces the identical trace digest,
``events_dispatched`` count, clock, profiler totals, and dispatch-hook
stream as one ``run()`` call.
"""

from repro.obs import KernelProfiler, digest_events
from repro.sim import PeriodicTimer, Simulator, Timer, Tracer


def _build_workload():
    """A deterministic mix of the kernel features protocol code uses:
    chained callbacks, same-instant FIFO bursts, restarts/cancellations,
    and a periodic timer — all recorded through a Tracer."""
    sim = Simulator()
    tracer = Tracer(sim)

    def chain(n):
        tracer.record("chain", "w", n=n)
        if n < 25:
            sim.schedule(0.7, chain, n + 1, label="chain")

    sim.schedule(0.5, chain, 0, label="chain")

    for i in range(10):  # FIFO burst at one instant
        sim.schedule(3.0, tracer.record, "burst", "w", i=i, label=f"burst{i}")

    mli = Timer(sim, lambda: tracer.record("expire", "w"), name="t_mli")
    mli.start(6.0)

    def report():  # restart the membership timer on every "Report"
        mli.restart(6.0)
        tracer.record("report", "w")

    query = PeriodicTimer(sim, report, period=2.5, name="t_query")
    query.start()
    sim.schedule(14.0, query.stop, label="stop-query")

    doomed = [
        sim.schedule(9.0 + i * 0.1, tracer.record, "never", "w", label="doomed")
        for i in range(5)
    ]
    sim.schedule(8.0, lambda: [ev.cancel() for ev in doomed], label="cancel-batch")
    return sim, tracer


def _drain_by_step(sim):
    while sim.step():
        pass


class TestStepRunParity:
    def test_identical_trace_digest_and_counters(self):
        sim_run, tr_run = _build_workload()
        sim_run.run()
        sim_step, tr_step = _build_workload()
        _drain_by_step(sim_step)

        assert digest_events(tr_run.events) == digest_events(tr_step.events)
        assert sim_run.events_dispatched == sim_step.events_dispatched
        assert sim_run.now == sim_step.now
        assert sim_run.events_pending == sim_step.events_pending == 0

    def test_identical_profiler_accounting(self):
        totals = []
        for drive in (lambda s: s.run(), _drain_by_step):
            sim, _ = _build_workload()
            profiler = KernelProfiler().install(sim)
            drive(sim)
            totals.append(
                (profiler.total_events,
                 sorted((e.label, e.count) for e in profiler.entries()))
            )
        assert totals[0] == totals[1]

    def test_identical_dispatch_hook_stream(self):
        streams = []
        for drive in (lambda s: s.run(), _drain_by_step):
            sim, _ = _build_workload()
            seen = []
            sim.set_dispatch_hook(
                lambda ev: seen.append((ev.time, ev.label or "?"))
            )
            drive(sim)
            streams.append(seen)
        assert streams[0] == streams[1]

    def test_step_until_boundary_matches_run_until(self):
        """Driving with step() up to a horizon equals run(until=...)."""
        horizon = 10.0
        sim_run, tr_run = _build_workload()
        sim_run.run(until=horizon)

        sim_step, tr_step = _build_workload()
        while True:
            nxt = sim_step.peek_next_time()
            if nxt is None or nxt > horizon:
                break
            sim_step.step()

        assert digest_events(tr_run.events) == digest_events(tr_step.events)
        assert sim_run.events_dispatched == sim_step.events_dispatched

