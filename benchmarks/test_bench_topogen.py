"""EXP-S1 scaling regression guard — 1,000+ routers, 10^4 receivers.

Runs the headline scale cell of the EXP-S1 study (docs/TOPOLOGIES.md,
EXPERIMENTS.md §EXP-S1) on a generated depth-3 / fanout-10 ISP
hierarchy — 1,110 routers, 10,000 mobile receivers, 5% per-interval
mobility — and gates it against committed budgets:

* peak per-(S,G)/membership/binding state entries (deterministic —
  the (S,G) state tables must keep the footprint bounded),
* simulated events dispatched (deterministic — guards against
  control-message blowups in the protocol stack),
* events/sec throughput (wall-clock dependent; the floor is set far
  below the ~15k ev/s measured at calibration time so CI jitter
  cannot trip it, while a 3x kernel regression still does).

Calibration (reference machine): 720,743 events in ~47 s (~15,400
events/s), 14,731 state entries, modelled aggregation gain 1.062 (dict
layout over compact), 457 handovers.
"""

from time import perf_counter

from repro.analysis import render_table
from repro.core.scalestudy import scale_cell

from bench_utils import once, save_report

# committed budgets — deterministic unless noted
ROUTERS_FLOOR = 1_000
RECEIVERS = 10_000
STATE_ENTRY_BUDGET = 20_000
EVENTS_BUDGET = 900_000
EVENTS_PER_SEC_FLOOR = 3_000  # wall-clock dependent; generous CI margin


def run():
    started = perf_counter()
    row = scale_cell(
        model_params={"depth": 3, "fanout": 10},
        receivers=RECEIVERS,
        groups=1,
        mobility=0.05,
        seed=0,
        warmup=10.0,
        duration=30.0,
    )
    wall = perf_counter() - started
    return row, wall


def test_bench_topogen_scale(benchmark):
    row, wall = once(benchmark, run)
    rate = row["events"] / wall if wall > 0 else 0.0

    snap = row["state"]
    rows = [
        {"kind": kind, "entries": count}
        for kind, count in sorted(snap["entries"].items())
    ]
    report = [
        f"EXP-S1 headline cell: {row['routers']} routers, "
        f"{RECEIVERS:,} receivers, mobility 0.05 (graph {row['graph_digest'][:12]})",
        f"events dispatched: {row['events']:,} in {wall:.1f}s "
        f"({rate:,.0f} events/s)",
        f"handovers completed: {row['moves']}",
        "",
        render_table(rows, [("kind", "state kind"), ("entries", "entries")],
                     title="Peak state entries by kind"),
        "",
        f"total state entries: {snap['total_entries']:,} "
        f"(budget {STATE_ENTRY_BUDGET:,})",
        f"state bytes: dict {snap['bytes']['dict']:,} vs compact "
        f"{snap['bytes']['compact']:,} — aggregation gain "
        f"{row['aggregation_gain']:.4f}",
    ]
    save_report("topogen_scale", "\n".join(report))

    assert row["routers"] >= ROUTERS_FLOOR
    assert row["moves"] > 0  # mobility actually exercised handovers
    assert snap["total_entries"] <= STATE_ENTRY_BUDGET
    assert row["events"] <= EVENTS_BUDGET
    assert row["aggregation_gain"] >= 1.0
    assert rate >= EVENTS_PER_SEC_FLOOR
