"""Simulator micro-benchmarks: kernel throughput and scenario cost.

Not a paper artifact — engineering benchmarks that keep the DES fast
enough for the sweeps (run_timer_sweep executes ~10 simulated hours).

The restart-heavy checks pin the heap contract (docs/PERFORMANCE.md)
over a million-event run of the PIM-DM per-packet timer-restart
pattern: restarts move their queued event, so the heap holds only live
events and never compacts; the same run with ``stop()`` + ``start()``
leaves one tombstone per tick, and compaction keeps that heap bounded
— no monotone growth.  Dispatch throughput itself is tracked by the
``timer_restart`` phase of ``repro bench`` (``BENCH_KERNEL.json``).
"""

from repro.core import LOCAL_MEMBERSHIP, PaperScenario, ScenarioConfig
from repro.net import Address, ApplicationData, Ipv6Packet
from repro.sim import Simulator, Timer


def _restart_workload(
    sim, n, timers=64, sample_every=None, samples=None, stop_first=False
):
    """The PIM-DM per-packet (S,G) data-timeout pattern.

    Every dispatched tick restarts one of ``timers`` 210 s timers.  A
    restart moves the queued event; with ``stop_first`` the tick calls
    ``stop()`` before ``start()`` instead (one ``Event.cancel`` + two
    ``heappush``), the pattern that leaks cancelled entries in a
    kernel without compaction.  With ``sample_every`` (simulated
    seconds), ``(heap_size, events_pending)`` pairs are appended to
    ``samples`` as the run progresses.
    """
    pool = [Timer(sim, _noop, name=f"sg{i}") for i in range(timers)]
    for t in pool:
        t.start(210.0)
    remaining = [n]

    def tick(i):
        timer = pool[i % timers]
        if stop_first:
            timer.stop()
        timer.start(210.0)
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.schedule(0.05, tick, i + 1)

    sim.schedule(0.0, tick, 0)
    if sample_every is not None:
        def sample():
            samples.append((sim.heap_size, sim.events_pending))
            if sim.events_pending > len(pool):  # ticks still flowing
                sim.schedule(sample_every, sample)

        sim.schedule(sample_every, sample)
    sim.run()


def _noop():
    return None


def test_heap_stays_bounded_over_million_events():
    """10^6-event restart run: the heap holds only live events.

    Each restart moves its timer's queued event instead of cancelling
    it, so no tombstone is ever left and the heap never compacts.
    """
    sim = Simulator()
    samples = []
    # ticks every 0.05 s -> 10^6 ticks span 50_000 simulated seconds;
    # sample the physical heap size every 250 s (~200 samples).
    _restart_workload(sim, 1_000_000, sample_every=250.0, samples=samples)
    assert sim.events_dispatched > 1_000_000
    assert len(samples) > 50
    over = [(heap, live) for heap, live in samples if heap > live + 1]
    assert not over, over[:8]
    assert sim.heap_cancelled == 0
    assert sim.compactions == 0


def test_heap_stays_bounded_over_million_events_with_stop_start():
    """The same run with ``stop()`` + ``start()``: compaction bounds it.

    A kernel without compaction accumulates ~one cancelled tombstone
    per tick (the heap ends ~10^6 entries deep); with compaction the
    physical heap stays within a small constant of the ~66 live events.
    """
    sim = Simulator()
    samples = []
    _restart_workload(
        sim, 1_000_000, sample_every=250.0, samples=samples, stop_first=True
    )
    assert sim.events_dispatched > 1_000_000
    assert len(samples) > 50
    samples = [heap for heap, _ in samples]
    peak = max(samples)
    # Default compaction trigger is 1024 tombstones; live events are
    # ~66.  Anything monotone would blow straight past this bound.
    assert peak <= 4096, f"heap peaked at {peak} entries (expected bounded)"
    # No monotone growth: the tail of the run must not sit above the
    # level the heap reached early on.
    early, late = max(samples[: len(samples) // 4]), max(samples[-len(samples) // 4 :])
    assert late <= 2 * early, (samples[:8], samples[-8:])
    assert sim.compactions > 100


# ----------------------------------------------------------------------
# micro-benchmarks (pytest-benchmark)
# ----------------------------------------------------------------------

def test_bench_kernel_schedule_dispatch(benchmark):
    def run():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(float(i % 100), lambda: None)
        sim.run()
        return sim.events_dispatched

    assert benchmark(run) == 10_000


def test_bench_kernel_timer_restart(benchmark):
    """The MLD membership-timer pattern: frequent restarts."""

    def run():
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        for _ in range(5_000):
            timer.start(100.0)
        sim.run(until=1.0)
        return True

    assert benchmark(run)


def test_bench_packet_encapsulation(benchmark):
    inner = Ipv6Packet(
        Address("2001:db8:1::10"), Address("ff1e::1"),
        ApplicationData(seqno=0, payload_bytes=1000),
    )
    coa = Address("2001:db8:6::10")
    ha = Address("2001:db8:1::1")

    def run():
        outer = inner.encapsulate(coa, ha)
        return outer.size_bytes + outer.decapsulate().size_bytes

    assert benchmark(run) == 1080 + 1040


def test_bench_paper_scenario_convergence(benchmark):
    """Wall time to build + converge the full Figure 1 scenario."""

    def run():
        sc = PaperScenario(ScenarioConfig(seed=40, approach=LOCAL_MEMBERSHIP))
        sc.converge()
        return sc.net.sim.events_dispatched

    events = benchmark.pedantic(run, rounds=3, iterations=1)
    assert events > 1_000
