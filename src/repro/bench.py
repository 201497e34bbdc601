"""Kernel/campaign macro-benchmarks with machine-readable baselines.

``python -m repro bench`` (or ``python benchmarks/bench_runner.py``)
executes a fixed set of macro-benchmark phases against the current tree
and writes ``BENCH_KERNEL.json`` — events/sec, peak heap size,
per-phase wall time, and an environment fingerprint — so the
performance trajectory of the kernel is recorded and diffable across
PRs (see docs/PERFORMANCE.md).

Phases
------
``dispatch``
    Plain schedule + dispatch throughput: N one-shot events through
    :meth:`Simulator.run`.  The classic DES "hold model" cost.
``timer_restart``
    The restart-heavy protocol pattern: PIM-DM restarts the 210 s (S,G)
    data timeout on every forwarded packet, MLD restarts T_MLI on every
    Report.  Each restart moves the queued timer event, so the heap
    holds only live events.  Driven via :meth:`Simulator.step` so heap
    size can be sampled; reports peak heap size, peak pending events,
    and compaction count.
``scenario``
    The full Figure 2 receiver-move scenario (converge + move +
    T_MLI horizon) — the macro-benchmark behind every golden trace.
``campaign`` (skipped with ``--quick``)
    A one-cell §4.4 timer sweep through the parallel campaign engine,
    exercising the worker/serialization path end to end.
``topogen`` (skipped with ``--quick``)
    An EXP-S1 scale cell on a generated 155-router hierarchy —
    topology generation, compact per-(S,G) state and receiver mobility
    in one macro-run (see docs/TOPOLOGIES.md).
``traffic_fluid``
    An EXP-S2 fluid-engine cell: analytic rate integration over a
    30-router hierarchy with receiver mobility.  Throughput here is
    dominated by the recompute path (tree walk per protocol event),
    the cost the fluid engine trades the per-packet event storm for
    (see docs/TRAFFIC.md).

Schema (``BENCH_KERNEL.json``, ``bench-kernel/v1``)
---------------------------------------------------
``schema``/``schema_version``
    Format identifier; bump on breaking layout changes.
``quick``, ``scale``
    The knobs the run was produced with (baselines are only comparable
    between runs with identical knobs).
``env``
    Environment fingerprint: python version/implementation, platform,
    machine, CPU count.
``phases.<name>``
    ``events`` dispatched, ``wall_time_s``, ``events_per_sec`` and —
    for ``timer_restart`` — ``peak_heap``, ``peak_pending``,
    ``final_heap``, ``compactions``.
``events_per_sec``
    Top-level gate scalar (the ``dispatch`` phase throughput).

The CI ``bench-smoke`` job re-runs ``repro bench --quick`` and fails
when any phase's events/sec regresses more than the tolerance (default
20%) against the committed baseline in
``benchmarks/results/bench_kernel_baseline.json``
(:func:`check_regression`).
"""

from __future__ import annotations

import json
import os
import platform
import sys
from datetime import datetime, timezone
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from .sim import Simulator, Timer

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "check_regression",
    "run_benchmarks",
    "render_summary",
    "write_report",
]

SCHEMA = "bench-kernel/v1"
SCHEMA_VERSION = 1

#: Baseline event counts per phase (full mode); ``--quick`` quarters
#: them, ``scale`` multiplies them (testing aid).
_DISPATCH_EVENTS = 200_000
_RESTART_EVENTS = 200_000
_QUICK_FACTOR = 0.25


def _env_fingerprint() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------

def _phase_dispatch(n: int) -> Dict[str, Any]:
    """Schedule + run ``n`` one-shot events; throughput includes both."""
    sim = Simulator()
    noop = _noop
    started = perf_counter()
    schedule = sim.schedule
    for i in range(n):
        schedule((i % 97) * 0.01, noop)
    sim.run()
    wall = perf_counter() - started
    events = sim.events_dispatched
    return {
        "events": events,
        "wall_time_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }


def _noop() -> None:
    return None


def _phase_timer_restart(n: int, timers: int = 64) -> Dict[str, Any]:
    """The PIM-DM per-packet data-timeout pattern: one restart per tick.

    Every dispatched tick moves a pending 210 s timer event to its new
    deadline (no heap operation: the entry is re-pushed once, when its
    old key surfaces) and pushes the next tick, so the heap stays at
    the ~65 live events and never compacts.
    """
    sim = Simulator()
    pool = [Timer(sim, _noop, name=f"sg{i}") for i in range(timers)]
    for t in pool:
        t.start(210.0)
    remaining = [n]

    def tick(i: int) -> None:
        pool[i % timers].restart(210.0)
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.schedule(0.05, tick, i + 1)

    sim.schedule(0.0, tick, 0)

    peak_heap = peak_pending = steps = 0
    started = perf_counter()
    step = sim.step
    while step():
        steps += 1
        if steps % 512 == 0:
            heap_size = sim.heap_size
            if heap_size > peak_heap:
                peak_heap = heap_size
            pending = sim.events_pending
            if pending > peak_pending:
                peak_pending = pending
    wall = perf_counter() - started
    events = sim.events_dispatched
    return {
        "events": events,
        "wall_time_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "peak_heap": max(peak_heap, sim.heap_size),
        "peak_pending": max(peak_pending, sim.events_pending),
        "final_heap": sim.heap_size,
        "compactions": sim.compactions,
    }


def _phase_scenario() -> Dict[str, Any]:
    """The canned Figure 2 receiver move (the golden-trace macro-run)."""
    from .core.goldens import run_canned

    started = perf_counter()
    sc = run_canned("fig2", seed=0)
    wall = perf_counter() - started
    sim = sc.net.sim
    return {
        "events": sim.events_dispatched,
        "wall_time_s": wall,
        "events_per_sec": sim.events_dispatched / wall if wall > 0 else 0.0,
        "peak_heap": sim.heap_size,
        "compactions": sim.compactions,
    }


def _phase_campaign() -> Dict[str, Any]:
    """One §4.4 timer-sweep cell through the parallel campaign engine."""
    from .campaign import CampaignRunner
    from .core import run_timer_sweep
    from .obs import MetricsRegistry

    runner = CampaignRunner(jobs=1, registry=MetricsRegistry())
    started = perf_counter()
    points = run_timer_sweep(query_intervals=(25.0,), seeds=(0,), runner=runner)
    wall = perf_counter() - started
    stats = runner.stats()
    return {
        "events": len(points),
        "cells": stats["cells"],
        "wall_time_s": wall,
        "events_per_sec": None,
    }


def _phase_topogen() -> Dict[str, Any]:
    """One EXP-S1 scale cell on a generated 155-router hierarchy.

    Exercises the topology generator, the (S,G) state tables
    and the mobility scheduler together — the macro-path behind the
    ``repro sweep scale`` study (see docs/TOPOLOGIES.md).
    """
    from .core.scalestudy import scale_cell

    started = perf_counter()
    row = scale_cell(
        model_params={"depth": 3, "fanout": 5},
        receivers=500,
        groups=1,
        mobility=0.05,
        warmup=8.0,
        duration=20.0,
    )
    wall = perf_counter() - started
    events = row["events"]
    return {
        "events": events,
        "wall_time_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "routers": row["routers"],
        "state_entries": row["state"]["total_entries"],
        "aggregation_gain": row["aggregation_gain"],
    }


def _phase_traffic_fluid() -> Dict[str, Any]:
    """One EXP-S2 fluid cell: rate integration + probe decimation.

    ``events_per_sec`` counts dispatched simulator events as usual, but
    the interesting per-phase extras are the recompute count (one tree
    walk per protocol-event timestamp — the fluid engine's hot path)
    and the data-plane decimation vs. what packet mode would transmit.
    """
    from .core.fluidstudy import fluid_cell

    started = perf_counter()
    row = fluid_cell(
        model_params={"depth": 2, "fanout": 5},
        receivers=200,
        mobility=0.05,
        warmup=8.0,
        duration=20.0,
        packet_interval=0.05,
        probe_interval=10.0,
    )
    wall = perf_counter() - started
    events = row["events"]
    return {
        "events": events,
        "wall_time_s": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "routers": row["routers"],
        "recomputes": row["traffic"]["recomputes"],
        "probes": row["probe_transmissions"],
    }


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def run_benchmarks(quick: bool = False, scale: float = 1.0) -> Dict[str, Any]:
    """Execute all phases; return the ``bench-kernel/v1`` payload.

    ``quick`` quarters the event counts and skips the ``campaign``
    phase (the CI smoke profile); ``scale`` further multiplies the
    counts and exists so tests can exercise the full pipeline in
    milliseconds.  Baselines are only comparable at equal knobs.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    factor = scale * (_QUICK_FACTOR if quick else 1.0)
    n_dispatch = max(1_000, int(_DISPATCH_EVENTS * factor))
    n_restart = max(1_000, int(_RESTART_EVENTS * factor))

    phases: Dict[str, Dict[str, Any]] = {}
    phases["dispatch"] = _phase_dispatch(n_dispatch)
    phases["timer_restart"] = _phase_timer_restart(n_restart)
    phases["scenario"] = _phase_scenario()
    phases["traffic_fluid"] = _phase_traffic_fluid()
    if not quick:
        phases["campaign"] = _phase_campaign()
        phases["topogen"] = _phase_topogen()

    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
        "scale": scale,
        "env": _env_fingerprint(),
        "phases": phases,
        "events_per_sec": phases["dispatch"]["events_per_sec"],
    }


def write_report(payload: Dict[str, Any], path: str) -> None:
    """Persist a benchmark payload as deterministic, diffable JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.2,
) -> List[str]:
    """Compare two payloads; return human-readable failures (empty = ok).

    Every phase present in both payloads with a numeric
    ``events_per_sec`` must not fall more than ``tolerance`` (a
    fraction) below the baseline.  Phases only one side has are
    ignored, so baselines survive adding new phases.

    Payloads from different profiles (``quick``/``scale``) are not
    comparable — per-event cost depends on workload size — so a
    mismatch is itself reported as a failure rather than producing a
    meaningless verdict.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance!r}")
    for key in ("quick", "scale"):
        if current.get(key) != baseline.get(key):
            return [
                f"profile mismatch: current {key}={current.get(key)!r} vs "
                f"baseline {key}={baseline.get(key)!r}; rerun with matching "
                "flags or regenerate the baseline"
            ]
    failures: List[str] = []
    base_phases = baseline.get("phases", {})
    cur_phases = current.get("phases", {})
    for name in sorted(base_phases.keys() & cur_phases.keys()):
        base_rate = base_phases[name].get("events_per_sec")
        cur_rate = cur_phases[name].get("events_per_sec")
        if not base_rate or cur_rate is None:
            continue
        floor = base_rate * (1.0 - tolerance)
        if cur_rate < floor:
            failures.append(
                f"{name}: {cur_rate:,.0f} events/s is "
                f"{(1.0 - cur_rate / base_rate) * 100:.1f}% below the "
                f"baseline {base_rate:,.0f} (tolerance {tolerance:.0%})"
            )
    return failures


def render_summary(payload: Dict[str, Any]) -> str:
    """Aligned human-readable phase table."""
    lines = [
        f"kernel benchmarks ({'quick' if payload['quick'] else 'full'} "
        f"profile, scale {payload['scale']:g}) — "
        f"{payload['env']['implementation']} {payload['env']['python']}",
        f"{'phase':<16} {'events':>10} {'wall':>9} {'events/s':>12} "
        f"{'peak heap':>10} {'compactions':>12}",
    ]
    for name, phase in payload["phases"].items():
        rate = phase.get("events_per_sec")
        lines.append(
            f"{name:<16} {phase['events']:>10,} "
            f"{phase['wall_time_s']:>8.3f}s "
            f"{(f'{rate:,.0f}' if rate else '-'):>12} "
            f"{phase.get('peak_heap', '-'):>10} "
            f"{phase.get('compactions', '-'):>12}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI entry (wired up by repro.cli; also used by benchmarks/bench_runner.py)
# ----------------------------------------------------------------------

def main_bench(
    quick: bool = False,
    scale: float = 1.0,
    output: str = "BENCH_KERNEL.json",
    baseline: Optional[str] = None,
    tolerance: float = 0.2,
    as_json: bool = False,
    print_fn: Callable[[str], None] = print,
) -> int:
    """Run, persist, optionally gate against a baseline.  Returns exit code."""
    payload = run_benchmarks(quick=quick, scale=scale)
    write_report(payload, output)
    if as_json:
        print_fn(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print_fn(render_summary(payload))
        print_fn(f"wrote {output}")
    if baseline is None:
        return 0
    try:
        with open(baseline) as fh:
            base = json.load(fh)
    except OSError as exc:
        print_fn(f"error: cannot read baseline: {exc}")
        return 1
    except ValueError as exc:
        print_fn(f"error: invalid baseline JSON: {exc}")
        return 1
    failures = check_regression(payload, base, tolerance=tolerance)
    if failures:
        for failure in failures:
            print_fn(f"PERF REGRESSION — {failure}")
        return 1
    print_fn(
        f"baseline check ok against {baseline} (tolerance {tolerance:.0%})"
    )
    return 0
