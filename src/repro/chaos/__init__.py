"""repro.chaos — seeded nemesis campaigns with a convergence oracle.

Adversarial robustness testing for the PIM-DM/MIPv6 interoperation:
:mod:`~repro.chaos.nemesis` composes seeded
:class:`~repro.faults.FaultPlan`\\ s from five archetypes (rolling link
flaps, regional partitions, correlated Gilbert–Elliott loss bursts,
home-agent crash storms, mass-handover mobility storms),
:mod:`~repro.chaos.convergence` proves the multicast tree
re-converges to the healed-topology reference RPF state, and
:mod:`~repro.chaos.study` runs the EXP-R3 campaign (``repro sweep
chaos``, task ``chaos.cell``).  See ``docs/FAULTS.md``.
"""

from .convergence import (
    STATE_MUTATION_EVENTS,
    ConvergenceOracle,
    evaluate_convergence,
)
from .nemesis import ARCHETYPES, nemesis_plan
from .study import (
    DEFAULT_INTENSITIES,
    DEFAULT_TOPOS,
    chaos_cell,
    chaos_mipv6_config,
    chaos_mld_config,
    chaos_pim_config,
    render_chaos_report,
    run_chaos_sweep,
)

__all__ = [
    "ARCHETYPES",
    "ConvergenceOracle",
    "DEFAULT_INTENSITIES",
    "DEFAULT_TOPOS",
    "STATE_MUTATION_EVENTS",
    "chaos_cell",
    "chaos_mipv6_config",
    "chaos_mld_config",
    "chaos_pim_config",
    "evaluate_convergence",
    "nemesis_plan",
    "render_chaos_report",
    "run_chaos_sweep",
]
