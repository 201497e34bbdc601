"""Full evaluation report generator.

Runs the complete experiment battery (Figures 1–4, Table 1 wiring, the
§4.3 comparison with claim checks, the §4.4 timer sweep, and the
§4.3.2 scaling sweeps) and emits one Markdown report — the programmatic
equivalent of EXPERIMENTS.md for arbitrary seeds/configurations.

Used by ``python -m repro report`` and by downstream users who want a
one-call reproduction artifact::

    from repro.core.report import generate_report
    text = generate_report(seed=7)
"""

from __future__ import annotations

import io
from typing import Optional, Sequence

from ..analysis import fmt_seconds, render_figure
from ..mld import MldConfig
from ..net.topogen import ROUTER_LINKS
from .comparison import run_full_comparison
from .goldens import run_canned
from .scaling import render_scaling, run_ha_load_vs_groups, run_ha_load_vs_mobiles
from .scenario import PaperScenario, ScenarioConfig
from .strategies import BIDIRECTIONAL_TUNNEL, render_table1
from .timer_optimization import render_sweep, run_timer_sweep

__all__ = ["generate_report"]


def _section(out: io.StringIO, title: str) -> None:
    out.write(f"\n## {title}\n\n")


def _code(out: io.StringIO, text: str) -> None:
    out.write("```\n")
    out.write(text.rstrip("\n"))
    out.write("\n```\n")


def generate_report(
    seed: int = 0,
    mld: Optional[MldConfig] = None,
    timer_intervals: Sequence[float] = (10.0, 25.0, 60.0, 125.0),
    timer_seeds: Sequence[int] = (0, 1, 2),
    include_scaling: bool = True,
) -> str:
    """Run every experiment and return the Markdown report."""
    out = io.StringIO()
    out.write(
        "# Reproduction report — Mobile IPv6 / PIM-DM interoperation "
        f"(seed {seed})\n"
    )

    # -- figures ---------------------------------------------------------
    _section(out, "Figure 1 — initial distribution tree")
    fig1 = run_canned("fig1", seed=seed)
    _code(out, render_figure(fig1.current_tree(), "L1", ROUTER_LINKS,
                             title="tree for (S on Link 1, G)"))
    out.write(
        f"\nasserts during convergence: {fig1.metrics.assert_count()}; "
        f"bytes on off-tree links L5/L6: "
        f"{fig1.net.stats.link_bytes('L5', 'mcast_data')}/"
        f"{fig1.net.stats.link_bytes('L6', 'mcast_data')}\n"
    )

    _section(out, "Figure 2 — mobile receiver, local membership")
    fig2 = run_canned("fig2", seed=seed)
    out.write(
        f"join delay {fmt_seconds(fig2.join_delay('R3', 40.0))}; "
        f"leave delay {fmt_seconds(fig2.leave_delay('L4', 40.0))} "
        f"(bound: T_MLI = 260 s)\n"
    )

    _section(out, "Figures 3 & 4 — tunnels")
    fig3 = PaperScenario(ScenarioConfig(seed=seed, approach=BIDIRECTIONAL_TUNNEL))
    fig3.converge()
    fig3.move("R3", "L1", at=40.0)
    fig3.move("S", "L6", at=40.0)
    fig3.run_until(100.0)
    d, a = fig3.paper.router("D"), fig3.paper.router("A")
    coa = fig3.paper.host("S").care_of_address
    out.write(
        f"Router D tunneled {d.tunneled_to_mobiles} datagrams to R3; "
        f"Router A reverse-tunneled {a.reverse_tunneled} from S; "
        f"new (CoA,G) entries after the sender move: "
        f"{fig3.metrics.entries_created(source=coa, since=40.0)}\n"
    )

    # -- table 1 ---------------------------------------------------------
    _section(out, "Table 1 — the four approaches")
    _code(out, render_table1())

    # -- §4.3 comparison --------------------------------------------------
    _section(out, "§4.3 comparison (quantified)")
    report = run_full_comparison(seed=seed, mld=mld)
    _code(out, report.render())
    out.write(
        f"\n**All paper claims hold: {report.all_claims_hold}**\n"
    )

    # -- §4.4 timers -------------------------------------------------------
    _section(out, "§4.4 MLD timer optimization")
    points = run_timer_sweep(
        query_intervals=tuple(timer_intervals), seeds=tuple(timer_seeds)
    )
    _code(out, render_sweep(points))

    # -- scaling -----------------------------------------------------------
    if include_scaling:
        _section(out, "§4.3.2 home-agent load scaling")
        _code(out, render_scaling(run_ha_load_vs_mobiles(seed=seed), "mobiles"))
        _code(out, render_scaling(run_ha_load_vs_groups(seed=seed), "groups"))

    return out.getvalue()
