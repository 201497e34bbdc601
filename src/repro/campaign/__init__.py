"""Parallel scenario campaigns with on-disk result caching.

The batch execution layer over the Figure 1 experiments: declare a
grid of scenario variations, shard it across worker processes with
deterministic per-cell seeds, and cache completed cells so re-runs
only execute what changed::

    from repro.campaign import CampaignGrid, CampaignRunner

    grid = CampaignGrid(
        "comparison.receiver",
        axes={"approach": ["local", "bidir"], "seed": [0, 1]},
    )
    runner = CampaignRunner(jobs=4, cache_dir=".repro-cache")
    campaign = runner.run(grid.cells())
    rows = campaign.results()          # in grid order, JSON-able

Every study runner (:func:`repro.core.run_full_comparison`,
``run_ha_load_vs_*``, :func:`repro.core.run_timer_sweep`, the EXP-S1,
EXP-S2, fault, span and chaos sweeps) builds its cells and hands them
to :func:`run_cells` with the ``runner`` it was given, and
``python -m repro sweep`` exposes them on the command line.  See
``docs/CAMPAIGNS.md``.
"""

from .cache import CACHE_SCHEMA_VERSION, ResultCache, cache_key, code_version
from .grid import CampaignCell, CampaignGrid, canonical_params
from .runner import (
    CampaignError,
    CampaignResult,
    CampaignRunner,
    CellOutcome,
    CheckpointJournal,
    resolve_cell,
    run_cells,
)
from .tasks import get_task, task_names

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CampaignCell",
    "CampaignError",
    "CampaignGrid",
    "CampaignResult",
    "CampaignRunner",
    "CellOutcome",
    "CheckpointJournal",
    "ResultCache",
    "cache_key",
    "canonical_params",
    "code_version",
    "get_task",
    "resolve_cell",
    "run_cells",
    "task_names",
]
