"""Resilience experiments: the §4.3 comparison under injected faults.

Two canned studies on the Figure 1 network, both built from a
:class:`~repro.faults.plan.FaultPlan` + :class:`~repro.faults.inject.FaultInjector`
over the shared :class:`~repro.core.scenario.PaperScenario` harness:

* **wireless loss sweep** (:func:`loss_receiver_run`) — Receiver 3
  moves to Link 6 at t=40 while the link suffers Gilbert–Elliott burst
  loss (installed at t=32, before the handoff, so the join/Binding
  Update exchange itself is exposed).  The local-membership approach
  recovers via MLD Report retransmission (10 s unsolicited-report
  cadence) and PIM-DM Graft retries; the tunnel approaches recover via
  Binding Update retransmission (1 s cadence) — under loss the
  recovery machinery, not the steady state, separates the approaches.
* **home-agent crash** (:func:`ha_crash_run`) — Router D (Receiver 3's
  home agent) crashes at t=45 for 15 s.  D is *not* on the native
  delivery path to Link 6, so local membership rides through; the
  bi-directional tunnel loses its anchor and stays dark until a
  Binding Update retransmission lands after the restart.

Every run function takes plain JSON-able parameters and returns a flat
row dict, so both studies shard through :mod:`repro.campaign`
(tasks ``faults.receiver`` / ``faults.ha_crash``) with result caching
and byte-identical parallel execution.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..analysis.tables import fmt_bytes, fmt_float, fmt_seconds, render_table
from ..campaign import CampaignGrid, CampaignRunner, run_cells
from ..core.scenario import PaperScenario, ScenarioConfig
from ..core.strategies import ALL_APPROACHES, Approach
from ..mipv6 import MobileIpv6Config
from .inject import FaultInjector
from .plan import FaultPlan, gilbert_loss, link_down, loss_burst, node_crash
from .resilience import (
    delivery_stats,
    duplicate_stats,
    expected_seqnos,
    longest_outage,
    recovery_time,
)

__all__ = [
    "loss_plan",
    "loss_receiver_run",
    "ha_crash_run",
    "run_crash_study",
    "run_fault_sweep",
    "run_loss_grid",
    "render_fault_table",
    "render_crash_table",
]

#: Mobile IPv6 tuning for the crash study: the default profile refreshes
#: every 128 s and gives up after 3 BU retransmissions — a 15 s home
#: agent outage would strand the binding until deep in the run.  Faster
#: refresh plus patient retransmission makes recovery observable (and is
#: what a deployment surviving HA failover would configure).
CRASH_MIPV6 = MobileIpv6Config(
    binding_refresh_interval=10.0,
    bu_retransmit_interval=2.0,
    bu_max_retransmits=12,
)


def loss_plan(
    model: str,
    link: str,
    rate: float,
    at: float,
    blackout_at: float,
    blackout: float,
) -> FaultPlan:
    if rate <= 0.0:
        return FaultPlan()  # zero-fault: bit-identical to the plain run
    if model == "bernoulli":
        events = [loss_burst(at, link, rate=rate)]
    elif model == "gilbert":
        events = [gilbert_loss(at, link, rate=rate)]
    else:
        raise ValueError(f"unknown loss model {model!r} (bernoulli/gilbert)")
    if blackout > 0.0:
        # The handover lands in a deep fade: the radio link blacks out
        # across the join/Binding Update exchange, so recovery is paced
        # by each approach's retransmission machinery (MLD unsolicited
        # Report cadence vs. Binding Update retransmission).
        events.append(link_down(blackout_at, link, duration=blackout))
    return FaultPlan(*events)


def _window_metrics(
    sc: PaperScenario,
    app,
    disruption_at: float,
    window_end: float,
) -> Dict[str, Any]:
    """Shared resilience accounting over ``[disruption_at, window_end]``."""
    cfg = sc.config
    first, last = expected_seqnos(
        cfg.traffic_start,
        cfg.packet_interval,
        disruption_at,
        window_end,
        sc.source.sent,
    )
    row: Dict[str, Any] = {}
    row.update(delivery_stats(app, "S-flow", first, last))
    row["recovery_time"] = recovery_time(app, disruption_at)
    row.update(duplicate_stats(app, disruption_at, window_end))
    row["longest_outage"] = longest_outage(app, disruption_at, window_end)
    return row


def loss_receiver_run(
    approach: Approach,
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
    """Receiver 3 hands off to a lossy ``move_link``; one table row.

    The loss model goes live at ``fault_at`` (before the move) and a
    ``handoff_blackout``-second radio outage covers the join signaling
    right after the handoff (the mobile arrives in a fade), so the
    first MLD Report / Binding Update is lost and recovery is paced by
    each approach's retransmission machinery.  The measurement window
    is ``[move_at, run_until]``.
    """
    sc = PaperScenario(
        ScenarioConfig(
            approach=approach, seed=seed, packet_interval=packet_interval
        )
    )
    # The join/BU exchange fires 1.6 s after the move (handoff 0.1 s +
    # movement detection 1.0 s + CoA configuration 0.5 s).
    plan = loss_plan(
        model, move_link, loss_rate, fault_at, move_at + 1.5, handoff_blackout
    )
    injector = FaultInjector(sc.net, plan).arm()
    sc.converge()
    before = sc.metrics.snapshot()
    sc.move("R3", move_link, at=move_at)
    sc.run_until(run_until)
    signaling = sc.metrics.snapshot().delta(before)

    app = sc.apps["R3"]
    row = {
        "scenario": "loss",
        "approach": approach.key,
        "title": approach.title,
        "loss_rate": loss_rate,
        "model": model,
        "seed": seed,
    }
    row.update(_window_metrics(sc, app, move_at, run_until))
    row["mld_bytes"] = signaling.total("mld")
    row["pim_bytes"] = signaling.total("pim")
    row["mipv6_bytes"] = signaling.total("mipv6")
    row["control_bytes"] = row["mld_bytes"] + row["pim_bytes"] + row["mipv6_bytes"]
    row["link_loss_drops"] = sc.net.stats.link_drops(move_link, "link-loss")
    row["frames_lost"] = sc.net.link(move_link).frames_lost
    row["faults_fired"] = injector.fired
    sc.finish()
    return row


def ha_crash_run(
    approach: Approach,
    seed: int = 0,
    move_link: str = "L6",
    move_at: float = 40.0,
    crash_at: float = 45.0,
    crash_duration: float = 15.0,
    run_until: float = 110.0,
    packet_interval: float = 0.05,
) -> Dict[str, Any]:
    """Receiver 3's home agent (Router D) crashes mid-session.

    R3 is already away on ``move_link`` when D goes down at
    ``crash_at``.  D serves Link 4 (R3's home) but is not on the native
    tree toward Link 6, so the approaches diverge sharply: local
    membership keeps delivering, tunnel approaches stall until the
    restarted D re-learns the binding from a BU retransmission.
    Measurement window: ``[crash_at, run_until]``.
    """
    sc = PaperScenario(
        ScenarioConfig(
            approach=approach,
            seed=seed,
            mipv6=CRASH_MIPV6,
            packet_interval=packet_interval,
        )
    )
    plan = FaultPlan(node_crash(crash_at, "D", duration=crash_duration))
    injector = FaultInjector(sc.net, plan).arm()
    sc.converge()
    sc.move("R3", move_link, at=move_at)
    sc.run_until(crash_at)
    before = sc.metrics.snapshot()
    sc.run_until(run_until)
    signaling = sc.metrics.snapshot().delta(before)

    app = sc.apps["R3"]
    ha = sc.paper.router("D")
    row = {
        "scenario": "ha-crash",
        "approach": approach.key,
        "title": approach.title,
        "crash_at": crash_at,
        "crash_duration": crash_duration,
        "seed": seed,
    }
    row.update(_window_metrics(sc, app, crash_at, run_until))
    row["mld_bytes"] = signaling.total("mld")
    row["pim_bytes"] = signaling.total("pim")
    row["mipv6_bytes"] = signaling.total("mipv6")
    row["control_bytes"] = row["mld_bytes"] + row["pim_bytes"] + row["mipv6_bytes"]
    row["binding_restored"] = (
        sc.paper.host("R3").home_address in ha.binding_cache
    )
    row["crash_drops"] = sc.net.stats.total_drops("node-crashed")
    row["faults_fired"] = injector.fired
    sc.finish()
    return row


# ----------------------------------------------------------------------
# campaign grids
# ----------------------------------------------------------------------

def run_loss_grid(
    task: str,
    loss_rates: Sequence[float],
    approaches: Optional[Sequence[Approach]] = None,
    runner: Optional[CampaignRunner] = None,
    **cell: Any,
) -> List[Dict[str, Any]]:
    """Loss-rate × approach cells of ``task`` with ``cell`` in each; rows
    in grid order.  The loss sweep (``faults.receiver``) and the span
    breakdown (``spans.receiver``) both run this grid; ``approaches``
    defaults to all four."""
    if approaches is None:
        approaches = ALL_APPROACHES
    grid = CampaignGrid(
        task,
        axes={
            "loss_rate": list(loss_rates),
            "approach": [approach.key for approach in approaches],
        },
        base=cell,
    )
    return run_cells(grid.cells(), runner)


def run_fault_sweep(
    loss_rates: Sequence[float],
    approaches: Sequence[Approach] = tuple(ALL_APPROACHES),
    seed: int = 0,
    runner: Optional[CampaignRunner] = None,
    **cell: Any,
) -> List[Dict[str, Any]]:
    """Run the loss sweep through the campaign engine; ``cell`` is any
    other :func:`loss_receiver_run` parameter."""
    return run_loss_grid(
        "faults.receiver", loss_rates, approaches, runner, seed=seed, **cell
    )


def run_crash_study(
    approaches: Sequence[Approach] = tuple(ALL_APPROACHES),
    seed: int = 0,
    runner: Optional[CampaignRunner] = None,
    **cell: Any,
) -> List[Dict[str, Any]]:
    """One ``faults.ha_crash`` cell per approach; ``cell`` is any other
    :func:`ha_crash_run` parameter."""
    grid = CampaignGrid(
        "faults.ha_crash",
        axes={"approach": [approach.key for approach in approaches]},
        base={"seed": seed, **cell},
    )
    return run_cells(grid.cells(), runner)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def render_fault_table(rows: List[Dict[str, Any]]) -> str:
    return render_table(
        rows,
        [
            ("approach", "approach"),
            ("loss_rate", "loss", fmt_float(3)),
            ("model", "model"),
            ("recovery_time", "recovery", fmt_seconds),
            ("delivery_ratio", "delivered", fmt_float(3)),
            ("duplicate_ratio", "dup ratio", fmt_float(3)),
            ("longest_outage", "worst outage", fmt_seconds),
            ("control_bytes", "control", fmt_bytes),
            ("frames_lost", "frames lost"),
        ],
        title="Resilience under wireless loss (R3 hands off to L6)",
    )


def render_crash_table(rows: List[Dict[str, Any]]) -> str:
    return render_table(
        rows,
        [
            ("approach", "approach"),
            ("recovery_time", "recovery", fmt_seconds),
            ("delivery_ratio", "delivered", fmt_float(3)),
            ("longest_outage", "worst outage", fmt_seconds),
            ("control_bytes", "control", fmt_bytes),
            ("binding_restored", "binding back"),
            ("crash_drops", "frames at HA"),
        ],
        title="Home-agent crash (Router D down 15 s while R3 is away)",
    )
