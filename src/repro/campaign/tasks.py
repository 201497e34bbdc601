"""The campaign task registry.

A *task* is a module-level function mapping JSON-able keyword
parameters to a JSON-able result dict.  Tasks are registered under a
dotted name so a :class:`~repro.campaign.grid.CampaignCell` can be
pickled to a worker process (or hashed into a cache key) as plain
data — the worker looks the callable up by name on its side.

Registered tasks:

=====================  ==============================================
``comparison.receiver``  one §4.3 receiver-mobility row
``comparison.sender``    one §4.3 sender-mobility row
``timers.point``         one §4.4 (T_Query, seed) measurement
``scaling.mobiles``      HA load for one mobile-host count
``scaling.groups``       HA load for one group count
``scaling.rate``         HA load for one source rate
``scale.cell``           one EXP-S1 generated-topology scaling cell
``fluid.cell``           one EXP-S2 packet-vs-fluid traffic cell
``faults.receiver``      one resilience row under wireless loss
``faults.ha_crash``      one resilience row under a home-agent crash
``chaos.cell``           one EXP-R3 nemesis/convergence chaos cell
``spans.receiver``       one phase-attributed handover breakdown row
``selftest.echo``        cheap deterministic no-sim task (tests)
``selftest.sleep``       sleeps; exercises the hung-cell watchdog
``selftest.flaky``       fails N times then succeeds (retry tests)
``selftest.kill``        SIGKILLs its worker once (chaos tests)
=====================  ==============================================

``repro.core`` is imported lazily inside the task bodies:
``repro.core``'s sweep modules themselves import this package to run
through the engine, and a module-level back-import would be circular.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..sim import RngRegistry

__all__ = ["get_task", "register_task", "task_names"]

TaskFn = Callable[..., Dict[str, Any]]

_REGISTRY: Dict[str, TaskFn] = {}


def register_task(name: str) -> Callable[[TaskFn], TaskFn]:
    """Decorator: register ``fn`` under the dotted task ``name``."""

    def deco(fn: TaskFn) -> TaskFn:
        if name in _REGISTRY:
            raise ValueError(f"task {name!r} already registered")
        _REGISTRY[name] = fn
        return fn

    return deco


def get_task(name: str) -> TaskFn:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign task {name!r}; known: {', '.join(task_names())}"
        ) from None


def task_names() -> List[str]:
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# parameter (de)hydration helpers
# ----------------------------------------------------------------------

def _approach(key: str):
    from ..core.strategies import ALL_APPROACHES

    for approach in ALL_APPROACHES:
        if approach.key == key:
            return approach
    raise KeyError(f"unknown approach {key!r}")


def _mld(config: Optional[Dict[str, Any]]):
    if config is None:
        return None
    from ..mld import MldConfig

    return MldConfig(**config)


# ----------------------------------------------------------------------
# §4.3 comparison cells
# ----------------------------------------------------------------------

@register_task("comparison.receiver")
def comparison_receiver(
    approach: str,
    seed: int = 0,
    move_link: str = "L6",
    move_at: float = 40.0,
    unsolicited: bool = True,
    settle: float = 30.0,
    measure_leave: bool = True,
    mld: Optional[Dict[str, Any]] = None,
    packet_interval: float = 0.05,
    traffic_model: str = "packet",
    probe_interval: Optional[float] = None,
) -> Dict[str, Any]:
    from ..core.comparison import receiver_mobility_run

    return receiver_mobility_run(
        _approach(approach),
        seed=seed,
        move_link=move_link,
        move_at=move_at,
        unsolicited=unsolicited,
        settle=settle,
        measure_leave=measure_leave,
        mld=_mld(mld),
        packet_interval=packet_interval,
        traffic_model=traffic_model,
        probe_interval=probe_interval,
    )


@register_task("comparison.sender")
def comparison_sender(
    approach: str,
    seed: int = 0,
    move_link: str = "L6",
    move_at: float = 40.0,
    run_until: float = 100.0,
    mld: Optional[Dict[str, Any]] = None,
    packet_interval: float = 0.05,
    traffic_model: str = "packet",
    probe_interval: Optional[float] = None,
) -> Dict[str, Any]:
    from ..core.comparison import sender_mobility_run

    return sender_mobility_run(
        _approach(approach),
        seed=seed,
        move_link=move_link,
        move_at=move_at,
        run_until=run_until,
        mld=_mld(mld),
        packet_interval=packet_interval,
        traffic_model=traffic_model,
        probe_interval=probe_interval,
    )


# ----------------------------------------------------------------------
# §4.4 timer sweep cells
# ----------------------------------------------------------------------

@register_task("timers.point")
def timers_point(
    query_interval: float,
    seed: int = 0,
    move_link: str = "L6",
    packet_interval: float = 0.1,
    base_mld: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    from ..core.timer_optimization import timer_point_run

    return timer_point_run(
        query_interval,
        seed=seed,
        move_link=move_link,
        packet_interval=packet_interval,
        base_mld=_mld(base_mld),
    )


# ----------------------------------------------------------------------
# §4.3.2 HA-load scaling cells
# ----------------------------------------------------------------------

@register_task("scaling.mobiles")
def scaling_mobiles(
    mobiles: int,
    seed: int = 0,
    measure_window: float = 30.0,
    traffic_model: str = "packet",
    probe_interval: Optional[float] = None,
) -> Dict[str, Any]:
    from ..core.scaling import ha_load_mobiles_cell

    return ha_load_mobiles_cell(
        mobiles,
        seed=seed,
        measure_window=measure_window,
        traffic_model=traffic_model,
        probe_interval=probe_interval,
    )


@register_task("scaling.groups")
def scaling_groups(
    groups: int,
    seed: int = 0,
    measure_window: float = 30.0,
    packet_interval: float = 0.1,
    traffic_model: str = "packet",
    probe_interval: Optional[float] = None,
) -> Dict[str, Any]:
    from ..core.scaling import ha_load_groups_cell

    return ha_load_groups_cell(
        groups,
        seed=seed,
        measure_window=measure_window,
        packet_interval=packet_interval,
        traffic_model=traffic_model,
        probe_interval=probe_interval,
    )


@register_task("scaling.rate")
def scaling_rate(
    packet_interval: float,
    seed: int = 0,
    measure_window: float = 30.0,
    traffic_model: str = "packet",
    probe_interval: Optional[float] = None,
) -> Dict[str, Any]:
    from ..core.scaling import ha_load_rate_cell

    return ha_load_rate_cell(
        packet_interval,
        seed=seed,
        measure_window=measure_window,
        traffic_model=traffic_model,
        probe_interval=probe_interval,
    )


# ----------------------------------------------------------------------
# EXP-S1 topology-scaling cells
# ----------------------------------------------------------------------

@register_task("scale.cell")
def scale_cell_task(
    model: str = "hier",
    model_params: Optional[Dict[str, Any]] = None,
    receivers: int = 100,
    groups: int = 1,
    mobility: float = 0.0,
    seed: int = 0,
    warmup: float = 10.0,
    duration: float = 30.0,
    packet_interval: float = 1.0,
    check_invariants: Optional[bool] = None,
    traffic_model: str = "packet",
    probe_interval: Optional[float] = None,
) -> Dict[str, Any]:
    from ..core.scalestudy import scale_cell

    return scale_cell(
        model=model,
        model_params=model_params,
        receivers=receivers,
        groups=groups,
        mobility=mobility,
        seed=seed,
        warmup=warmup,
        duration=duration,
        packet_interval=packet_interval,
        check_invariants=check_invariants,
        traffic_model=traffic_model,
        probe_interval=probe_interval,
    )


# ----------------------------------------------------------------------
# EXP-S2 fluid-traffic cells
# ----------------------------------------------------------------------

@register_task("fluid.cell")
def fluid_cell_task(
    model: str = "hier",
    model_params: Optional[Dict[str, Any]] = None,
    receivers: int = 1000,
    receiver_weight: int = 1,
    traffic_model: str = "fluid",
    groups: int = 1,
    mobility: float = 0.0,
    seed: int = 0,
    warmup: float = 10.0,
    duration: float = 30.0,
    packet_interval: float = 0.05,
    payload_bytes: int = 1000,
    probe_interval: Optional[float] = None,
) -> Dict[str, Any]:
    from ..core.fluidstudy import DEFAULT_PROBE_INTERVAL, fluid_cell

    return fluid_cell(
        model=model,
        model_params=model_params,
        receivers=receivers,
        receiver_weight=receiver_weight,
        traffic_model=traffic_model,
        groups=groups,
        mobility=mobility,
        seed=seed,
        warmup=warmup,
        duration=duration,
        packet_interval=packet_interval,
        payload_bytes=payload_bytes,
        probe_interval=(
            DEFAULT_PROBE_INTERVAL if probe_interval is None else probe_interval
        ),
    )


# ----------------------------------------------------------------------
# repro.faults resilience cells
# ----------------------------------------------------------------------

@register_task("faults.receiver")
def faults_receiver(
    approach: str,
    seed: int = 0,
    loss_rate: float = 0.02,
    model: str = "gilbert",
    move_link: str = "L6",
    move_at: float = 40.0,
    fault_at: float = 32.0,
    handoff_blackout: float = 2.0,
    run_until: float = 90.0,
    packet_interval: float = 0.05,
) -> Dict[str, Any]:
    from ..faults.experiments import loss_receiver_run

    return loss_receiver_run(
        _approach(approach),
        seed=seed,
        loss_rate=loss_rate,
        model=model,
        move_link=move_link,
        move_at=move_at,
        fault_at=fault_at,
        handoff_blackout=handoff_blackout,
        run_until=run_until,
        packet_interval=packet_interval,
    )


@register_task("faults.ha_crash")
def faults_ha_crash(
    approach: str,
    seed: int = 0,
    move_link: str = "L6",
    move_at: float = 40.0,
    crash_at: float = 45.0,
    crash_duration: float = 15.0,
    run_until: float = 110.0,
    packet_interval: float = 0.05,
) -> Dict[str, Any]:
    from ..faults.experiments import ha_crash_run

    return ha_crash_run(
        _approach(approach),
        seed=seed,
        move_link=move_link,
        move_at=move_at,
        crash_at=crash_at,
        crash_duration=crash_duration,
        run_until=run_until,
        packet_interval=packet_interval,
    )


# ----------------------------------------------------------------------
# EXP-R3 chaos/convergence cells
# ----------------------------------------------------------------------

@register_task("chaos.cell")
def chaos_cell_task(
    topo: Optional[Dict[str, Any]] = None,
    archetype: str = "flaps",
    intensity: float = 0.5,
    receivers: int = 12,
    seed: int = 0,
    warmup: float = 10.0,
    chaos_duration: float = 10.0,
    settle: float = 20.0,
    packet_interval: float = 0.2,
    traffic_model: str = "packet",
    probe_interval: Optional[float] = None,
    check_invariants: Optional[bool] = None,
) -> Dict[str, Any]:
    from ..chaos.study import chaos_cell

    return chaos_cell(
        topo=topo,
        archetype=archetype,
        intensity=intensity,
        receivers=receivers,
        seed=seed,
        warmup=warmup,
        chaos_duration=chaos_duration,
        settle=settle,
        packet_interval=packet_interval,
        traffic_model=traffic_model,
        probe_interval=probe_interval,
        check_invariants=check_invariants,
    )


# ----------------------------------------------------------------------
# repro.obs.spans phase-attribution cells
# ----------------------------------------------------------------------

@register_task("spans.receiver")
def spans_receiver(
    approach: str,
    seed: int = 0,
    loss_rate: float = 0.0,
    model: str = "gilbert",
    move_link: str = "L6",
    move_at: float = 40.0,
    fault_at: float = 32.0,
    handoff_blackout: float = 2.0,
    run_until: float = 90.0,
    packet_interval: float = 0.05,
) -> Dict[str, Any]:
    from ..analysis.phases import span_receiver_run

    return span_receiver_run(
        _approach(approach),
        seed=seed,
        loss_rate=loss_rate,
        model=model,
        move_link=move_link,
        move_at=move_at,
        fault_at=fault_at,
        handoff_blackout=handoff_blackout,
        run_until=run_until,
        packet_interval=packet_interval,
    )


# ----------------------------------------------------------------------
# engine self-test cell (no simulation; used by the property tests)
# ----------------------------------------------------------------------

@register_task("selftest.echo")
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


@register_task("selftest.fail")
def selftest_fail(seed: int = 0, message: str = "boom") -> Dict[str, Any]:
    """Always raises — a permanently poisoned cell."""
    raise RuntimeError(message)


@register_task("selftest.sleep")
def selftest_sleep(seed: int = 0, duration: float = 60.0) -> Dict[str, Any]:
    """Sleeps ``duration`` seconds — a hung cell for the watchdog."""
    import time as _time

    _time.sleep(duration)
    return {"seed": seed, "slept": duration}


@register_task("selftest.flaky")
def selftest_flaky(
    state_dir: str, seed: int = 0, fail_times: int = 1, tag: str = "flaky"
) -> Dict[str, Any]:
    """Raises on the first ``fail_times`` attempts, then succeeds."""
    attempt = _attempt_count(state_dir, tag)
    if attempt <= fail_times:
        raise RuntimeError(f"flaky failure {attempt}/{fail_times}")
    return {"seed": seed, "tag": tag, "ok": True}


@register_task("selftest.kill")
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
