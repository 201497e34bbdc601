"""Each study parameter is declared once, in its cell (task) function.

A study runner names its grid axes, ``seed`` (which pins every cell),
``runner``, and the values it converts itself: the comparison's
``mld`` and the timer sweep's ``base_mld``.  Every other keyword goes
into the cells unchanged.  So a runner parameter that has the name of
a parameter of its task function is an axis, and its default differs
from the cell's, or it is one of those three.  A restated default
would have to be kept equal to the cell's by hand.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

from repro.analysis.phases import run_span_breakdown
from repro.campaign.tasks import TASKS
from repro.chaos import run_chaos_sweep
from repro.core import (
    run_fluid_study,
    run_full_comparison,
    run_ha_load_vs_groups,
    run_ha_load_vs_mobiles,
    run_ha_load_vs_rate,
    run_scale_sweep,
    run_timer_sweep,
)
from repro.faults.experiments import run_crash_study, run_fault_sweep

#: study runner -> the tasks of the cells it builds
RUNNERS = {
    run_full_comparison: ("comparison.receiver", "comparison.sender"),
    run_timer_sweep: ("timers.point",),
    run_ha_load_vs_mobiles: ("scaling.mobiles",),
    run_ha_load_vs_groups: ("scaling.groups",),
    run_ha_load_vs_rate: ("scaling.rate",),
    run_scale_sweep: ("scale.cell",),
    run_fluid_study: ("fluid.cell",),
    run_fault_sweep: ("faults.receiver",),
    run_crash_study: ("faults.ha_crash",),
    run_chaos_sweep: ("chaos.cell",),
    run_span_breakdown: ("spans.receiver",),
}

#: runner parameters that may share a cell parameter's name and default
OWN = {"seed", "mld", "base_mld"}


def task_function(name: str):
    module, _, attr = TASKS[name].partition(":")
    return getattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("study", RUNNERS, ids=lambda fn: fn.__name__)
def test_runner_restates_no_cell_default(study):
    params = inspect.signature(study).parameters
    restated = []
    for task in RUNNERS[study]:
        cell = inspect.signature(task_function(task)).parameters
        for name, param in params.items():
            if name in cell and name not in OWN:
                if param.default == cell[name].default:
                    restated.append(f"{name}={param.default!r} ({task})")
    assert not restated


@pytest.mark.parametrize("study", RUNNERS, ids=lambda fn: fn.__name__)
def test_runner_forwards_cell_params(study):
    """Parallelism and caching come in through ``runner``; every other
    keyword is forwarded to the cells."""
    params = inspect.signature(study).parameters
    assert "runner" in params
    assert not {"jobs", "cache_dir"} & set(params)
    assert any(p.kind is p.VAR_KEYWORD for p in params.values())


def test_every_study_task_has_a_runner():
    covered = {task for tasks in RUNNERS.values() for task in tasks}
    assert covered == {task for task in TASKS if not task.startswith("selftest.")}
