"""The campaign task table.

A *task* is a module-level function mapping JSON-able keyword
parameters to a JSON-able result dict.  :data:`TASKS` names each one
``"module:function"`` under a dotted task name, so a
:class:`~repro.campaign.grid.CampaignCell` can be pickled to a worker
process (or hashed into a cache key) as plain data — the worker looks
the function up by name on its side.  Adding a task is one line in
:data:`TASKS`.

An entry is imported with :mod:`importlib` when a cell of it runs: the
study modules of ``repro.core`` (and the others) import this package
to run through the engine, and a module-level back-import would be
circular.  Cell
params stay JSON: :func:`get_task` turns an ``approach`` key back into
its :class:`~repro.core.strategies.Approach` and ``mld``/``base_mld``
dicts into :class:`~repro.mld.MldConfig` before the call.
"""

from __future__ import annotations

import importlib
from functools import partial
from typing import Any, Callable, Dict, List

from ..mld import MldConfig
from ..sim import RngRegistry

__all__ = ["TASKS", "get_task", "task_names"]

TaskFn = Callable[..., Dict[str, Any]]

#: task name -> ``"module:function"`` a cell of that task calls
TASKS: Dict[str, str] = {
    "comparison.receiver": "repro.core.comparison:receiver_mobility_run",
    "comparison.sender": "repro.core.comparison:sender_mobility_run",
    "timers.point": "repro.core.timer_optimization:timer_point_run",
    "scaling.mobiles": "repro.core.scaling:ha_load_mobiles_cell",
    "scaling.groups": "repro.core.scaling:ha_load_groups_cell",
    "scaling.rate": "repro.core.scaling:ha_load_rate_cell",
    "scale.cell": "repro.core.scalestudy:scale_cell",
    "fluid.cell": "repro.core.fluidstudy:fluid_cell",
    "faults.receiver": "repro.faults.experiments:loss_receiver_run",
    "faults.ha_crash": "repro.faults.experiments:ha_crash_run",
    "chaos.cell": "repro.chaos.study:chaos_cell",
    "spans.receiver": "repro.analysis.phases:span_receiver_run",
    "selftest.echo": "repro.campaign.tasks:selftest_echo",
    "selftest.fail": "repro.campaign.tasks:selftest_fail",
    "selftest.sleep": "repro.campaign.tasks:selftest_sleep",
    "selftest.flaky": "repro.campaign.tasks:selftest_flaky",
    "selftest.kill": "repro.campaign.tasks:selftest_kill",
}


def get_task(name: str) -> TaskFn:
    """The callable behind task ``name``: JSON-able params in, result out."""
    try:
        module, _, attr = TASKS[name].partition(":")
    except KeyError:
        raise KeyError(
            f"unknown campaign task {name!r}; known: {', '.join(task_names())}"
        ) from None
    return partial(_call_hydrated, getattr(importlib.import_module(module), attr))


def task_names() -> List[str]:
    return sorted(TASKS)


def _call_hydrated(fn: TaskFn, **params: Any) -> Dict[str, Any]:
    """Call ``fn`` with the JSON-able cell params turned back into the
    objects it takes."""
    if "approach" in params:
        from ..core.strategies import ALL_APPROACHES

        for approach in ALL_APPROACHES:
            if approach.key == params["approach"]:
                params["approach"] = approach
                break
        else:
            raise KeyError(f"unknown approach {params['approach']!r}")
    for name in ("mld", "base_mld"):
        if params.get(name) is not None:
            params[name] = MldConfig(**params[name])
    return fn(**params)


# ----------------------------------------------------------------------
# engine self-test cell (no simulation; used by the property tests)
# ----------------------------------------------------------------------

def selftest_echo(seed: int = 0, **params: Any) -> Dict[str, Any]:
    """Deterministic, sub-millisecond task exercising the seed plumbing."""
    rng = RngRegistry(seed)
    return {
        "seed": seed,
        "params": dict(sorted(params.items())),
        "draw": rng.uniform("selftest", 0.0, 1.0),
        "pick": rng.choice("selftest-pick", ["a", "b", "c", "d"]),
    }


# ----------------------------------------------------------------------
# supervisor self-test cells (see tests/campaign/test_supervisor.py and
# docs/ROBUSTNESS.md) — misbehaving on purpose
# ----------------------------------------------------------------------

def _attempt_count(state_dir: str, tag: str) -> int:
    """Count this call as one attempt at ``tag``; return the attempt no.

    The marker directory carries cross-process state: each attempt —
    even one that dies mid-cell — leaves one file behind, so retried
    cells can tell which attempt they are.
    """
    import os as _os
    import uuid

    _os.makedirs(state_dir, exist_ok=True)
    marker = _os.path.join(state_dir, f"{tag}.{uuid.uuid4().hex}")
    with open(marker, "w"):
        pass
    return sum(1 for n in _os.listdir(state_dir) if n.startswith(f"{tag}."))


def selftest_fail(seed: int = 0, message: str = "boom") -> Dict[str, Any]:
    """Always raises — a permanently poisoned cell."""
    raise RuntimeError(message)


def selftest_sleep(seed: int = 0, duration: float = 60.0) -> Dict[str, Any]:
    """Sleeps ``duration`` seconds — a hung cell for the watchdog."""
    import time as _time

    _time.sleep(duration)
    return {"seed": seed, "slept": duration}


def selftest_flaky(
    state_dir: str, seed: int = 0, fail_times: int = 1, tag: str = "flaky"
) -> Dict[str, Any]:
    """Raises on the first ``fail_times`` attempts, then succeeds."""
    attempt = _attempt_count(state_dir, tag)
    if attempt <= fail_times:
        raise RuntimeError(f"flaky failure {attempt}/{fail_times}")
    return {"seed": seed, "tag": tag, "ok": True}


def selftest_kill(state_dir: str, seed: int = 0, tag: str = "kill") -> Dict[str, Any]:
    """SIGKILLs its own worker process on the first attempt.

    Simulates an OOM kill / segfault mid-cell: no exception, no
    cleanup, the pool just breaks.  Later attempts succeed.
    """
    import os as _os
    import signal

    attempt = _attempt_count(state_dir, tag)
    if attempt <= 1:
        _os.kill(_os.getpid(), signal.SIGKILL)
    return {"seed": seed, "tag": tag, "survived": True}
