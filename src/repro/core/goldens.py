"""Canned Figure 1-4 runs: the repository's reference scenarios.

One place defines how each paper figure's scenario is executed, so the
figure, profiler and trace CLI commands, the Markdown report, the
golden-trace regression suite (``tests/goldens/``), and ad-hoc scripts
all replay *exactly* the same simulation for a given (figure, seed)
pair.  :meth:`CannedRun.play` drives a scenario the caller built, so a
caller can configure it (traffic engine, profiler, generated topology)
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .scenario import PaperScenario, ScenarioConfig
from .strategies import BIDIRECTIONAL_TUNNEL, LOCAL_MEMBERSHIP, Approach

__all__ = ["CANNED_RUNS", "CannedRun", "run_canned"]


@dataclass(frozen=True)
class CannedRun:
    """Recipe for one figure: approach, optional move, and horizon."""

    approach: Approach
    #: (host, destination link) of the single mobility event, if any.
    move: Optional[Tuple[str, str]] = None
    move_at: Optional[float] = None
    run_until: Optional[float] = None

    def play(self, sc: PaperScenario) -> PaperScenario:
        """Drive a built scenario through this recipe: converge, then
        the move and the run to the horizon, if any."""
        sc.converge()
        if self.move is not None:
            host, link = self.move
            sc.move(host, link, at=self.move_at)
            sc.run_until(self.run_until)
        return sc


CANNED_RUNS: Dict[str, CannedRun] = {
    "fig1": CannedRun(LOCAL_MEMBERSHIP),
    # Figure 2 horizon covers the full leave delay (T_MLI = 260 s).
    "fig2": CannedRun(LOCAL_MEMBERSHIP, ("R3", "L6"), 40.0, 40.0 + 260.0 + 30.0),
    "fig3": CannedRun(BIDIRECTIONAL_TUNNEL, ("R3", "L1"), 40.0, 90.0),
    "fig4": CannedRun(BIDIRECTIONAL_TUNNEL, ("S", "L6"), 40.0, 100.0),
}


def run_canned(name: str, seed: int = 0) -> PaperScenario:
    """Execute one canned figure scenario to completion."""
    recipe = CANNED_RUNS[name]
    return recipe.play(
        PaperScenario(ScenarioConfig(seed=seed, approach=recipe.approach))
    )
