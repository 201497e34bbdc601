"""MLD timer optimization study (paper §4.4).

The paper proposes decreasing the MLD Query Interval T_Query (never
below the Maximum Response Delay T_RespDel, footnote 5) to cut the join
and leave delays of mobile receivers, arguing that "the bandwidth cost
for this tuning step is small, compared with the bandwidth saving due
to a lower leave delay".

:func:`run_timer_sweep` measures, per candidate T_Query:

* the join delay of a receiver that *waits for the next Query* (the
  slow path the optimization targets — unsolicited Reports disabled),
* the leave delay (membership expiry after the receiver left),
* the wasted multicast bytes forwarded onto the abandoned link during
  the leave delay (the saving),
* the MLD signaling bytes per second network-wide (the cost),

together with the closed-form expectations from
:mod:`repro.analysis.delays`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

from ..analysis.delays import (
    expected_join_delay_wait_for_query,
    expected_leave_delay,
)
from ..analysis.tables import fmt_bytes, fmt_float, fmt_seconds, render_table
from ..campaign import CampaignGrid, CampaignRunner, run_cells
from ..mld import MldConfig
from ..sim import RngRegistry
from .scenario import PaperScenario, ScenarioConfig
from .strategies import LOCAL_MEMBERSHIP

__all__ = [
    "TimerSweepPoint",
    "run_timer_sweep",
    "render_sweep",
    "timer_point_run",
]


@dataclass
class TimerSweepPoint:
    """Aggregated measurements for one Query Interval setting."""

    query_interval: float
    t_mli: float
    join_delays: List[float]
    leave_delays: List[float]
    wasted_bytes: List[int]
    mld_bytes_per_s: List[float]
    analytic_join: float
    analytic_leave: float

    @property
    def mean_join_delay(self) -> Optional[float]:
        return _mean(self.join_delays)

    @property
    def mean_leave_delay(self) -> Optional[float]:
        return _mean(self.leave_delays)

    @property
    def mean_wasted_bytes(self) -> Optional[float]:
        return _mean(self.wasted_bytes)

    @property
    def mean_mld_bytes_per_s(self) -> Optional[float]:
        return _mean(self.mld_bytes_per_s)

    def as_row(self) -> Dict[str, Any]:
        return {
            "query_interval": self.query_interval,
            "t_mli": self.t_mli,
            "join_delay": self.mean_join_delay,
            "analytic_join": self.analytic_join,
            "leave_delay": self.mean_leave_delay,
            "analytic_leave": self.analytic_leave,
            "wasted_bytes": self.mean_wasted_bytes,
            "mld_rate": self.mean_mld_bytes_per_s,
        }


def _mean(values: Sequence) -> Optional[float]:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def run_timer_sweep(
    query_intervals: Sequence[float] = (10.0, 25.0, 60.0, 125.0),
    seeds: Sequence[int] = (0, 1, 2),
    base_mld: Optional[MldConfig] = None,
    runner: Optional[CampaignRunner] = None,
    **cell: Any,
) -> List[TimerSweepPoint]:
    """Sweep T_Query and measure join/leave delay and bandwidth trade-off.

    Per (interval, seed): Receiver 3 moves from Link 4 to ``move_link``
    at a seed-randomized phase within the query cycle (so attachment is
    uniform within the cycle, matching the analytic model); unsolicited
    Reports are disabled to expose the wait-for-query path.

    Each (interval, seed) pair is one ``timers.point`` cell carrying
    ``base_mld`` and ``cell`` (any other :func:`timer_point_run`
    parameter, such as ``move_link``); ``base_mld`` also feeds the
    analytic columns.  The cells run through
    :func:`repro.campaign.run_cells`, so a ``runner`` built as
    ``CampaignRunner(jobs=…, cache_dir=…)`` shards and caches them.
    """
    grid = CampaignGrid(
        "timers.point",
        axes={"query_interval": list(query_intervals), "seed": list(seeds)},
        base={"base_mld": asdict(base_mld) if base_mld is not None else None, **cell},
    )
    rows = iter(run_cells(grid.cells(), runner))

    base = base_mld or MldConfig()
    points: List[TimerSweepPoint] = []
    for qi in query_intervals:
        mld = replace(
            base.with_query_interval(qi), unsolicited_reports_on_move=False
        )
        point = TimerSweepPoint(
            query_interval=qi,
            t_mli=mld.multicast_listener_interval,
            join_delays=[],
            leave_delays=[],
            wasted_bytes=[],
            mld_bytes_per_s=[],
            analytic_join=expected_join_delay_wait_for_query(mld),
            analytic_leave=expected_leave_delay(mld),
        )
        for _seed in seeds:
            # the grid's qi x seed nesting is the same as this loop's
            row = next(rows)
            point.join_delays.append(row["join_delay"])
            point.leave_delays.append(row["leave_delay"])
            if row["wasted_bytes"] is not None:
                point.wasted_bytes.append(row["wasted_bytes"])
            point.mld_bytes_per_s.append(row["mld_bytes_per_s"])
        points.append(point)
    return points


def timer_point_run(
    query_interval: float,
    seed: int = 0,
    move_link: str = "L6",
    packet_interval: float = 0.1,
    base_mld: Optional[MldConfig] = None,
) -> Dict[str, Any]:
    """One (T_Query, seed) measurement — the ``timers.point`` task body."""
    base = base_mld or MldConfig()
    mld = replace(
        base.with_query_interval(query_interval), unsolicited_reports_on_move=False
    )
    t_mli = mld.multicast_listener_interval
    sc = PaperScenario(
        ScenarioConfig(
            approach=LOCAL_MEMBERSHIP,
            seed=seed,
            mld=mld,
            packet_interval=packet_interval,
        )
    )
    sc.converge()
    # Uniform phase within the query cycle so E[wait] = T_Query / 2.
    phase = RngRegistry(seed).uniform("sweep-phase", 0.0, query_interval)
    move_at = sc.config.converge_until + 5.0 + phase
    before = sc.metrics.snapshot()
    sc.move("R3", move_link, at=move_at)
    horizon = move_at + t_mli + query_interval + 30.0
    sc.run_until(horizon)

    leave = sc.leave_delay("L4", move_at)
    after = sc.metrics.snapshot()
    delta = after.delta(before)
    duration = after.time - before.time
    sc.finish()
    return {
        "query_interval": query_interval,
        "seed": seed,
        "t_mli": t_mli,
        "join_delay": sc.join_delay("R3", move_at),
        "leave_delay": leave,
        "wasted_bytes": delta.bytes_on("L4", "mcast_data") if leave is not None else None,
        "mld_bytes_per_s": delta.total("mld") / duration if duration else 0.0,
    }


def render_sweep(points: Sequence[TimerSweepPoint]) -> str:
    """Table of the sweep, simulated vs analytic."""
    return render_table(
        [p.as_row() for p in points],
        [
            ("query_interval", "T_Query", fmt_float(0)),
            ("t_mli", "T_MLI", fmt_float(0)),
            ("join_delay", "join (sim)", fmt_seconds),
            ("analytic_join", "join (model)", fmt_seconds),
            ("leave_delay", "leave (sim)", fmt_seconds),
            ("analytic_leave", "leave (model)", fmt_seconds),
            ("wasted_bytes", "wasted on L4", fmt_bytes),
            ("mld_rate", "MLD B/s", fmt_float(1)),
        ],
        title="MLD timer optimization (paper §4.4): T_Query sweep",
    )
