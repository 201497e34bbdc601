"""Phase-attributed handover breakdowns (the ``repro spans`` study).

One run = one §4.3 receiver handover executed with a live
:class:`~repro.obs.spans.SpanRecorder`, read back as a span tree and
flattened into a table row: every pipeline phase's duration, their
sum, the end-to-end join delay, and the span-vs-event equivalence
verdict of :func:`repro.analysis.delays.verify_span_equivalence`.
Optionally the handover happens under the wireless-loss model of
:mod:`repro.faults`, which stretches the ``rejoin`` phase (lost
Reports/Binding Updates pace recovery) while the fixed pipeline phases
stay put — phase attribution shows *where* loss hurts.

Rows shard through :mod:`repro.campaign` (task ``spans.receiver``), so
``repro spans`` gets caching and parallel execution for free.

``repro.core`` and ``repro.faults`` are imported lazily inside the
run functions: ``repro.core`` imports this package's siblings at
module level, and a module-level back-import would be circular (the
:mod:`repro.campaign.tasks` convention).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..obs.spans import HANDOVER_PHASES, iter_spans
from .delays import handovers_of, verify_span_equivalence
from .tables import fmt_float, fmt_seconds, render_table

__all__ = [
    "render_phase_table",
    "run_span_breakdown",
    "span_receiver_run",
]

#: Row keys for the pipeline phases, in order (dashes are awkward in
#: JSON-able row dicts and format strings).
PHASE_KEYS = tuple("phase_" + name.replace("-", "_") for name in HANDOVER_PHASES)


def span_receiver_run(
    approach: Any,
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
    """One phase-attributed handover row: Receiver 3 to ``move_link``.

    With ``loss_rate == 0`` this is exactly the §4.3 receiver move
    (EXP-F2's 1.60 s pipeline); with loss it adopts the EXP-R1 fault
    shape (loss live at ``fault_at``, a ``handoff_blackout`` radio
    fade over the join signaling) so the breakdown shows the stretched
    ``rejoin`` phase against the untouched fixed phases.
    """
    from ..core.scenario import PaperScenario, ScenarioConfig
    from ..faults import FaultInjector
    from ..faults.experiments import loss_plan

    sc = PaperScenario(
        ScenarioConfig(
            approach=approach,
            seed=seed,
            packet_interval=packet_interval,
            trace_spans=True,
        )
    )
    # the EXP-R1 fault shape: the join/BU exchange (1.6 s after the
    # move) lands inside the blackout
    plan = loss_plan(
        model, move_link, loss_rate, fault_at, move_at + 1.5, handoff_blackout
    )
    injector = FaultInjector(sc.net, plan).arm()
    sc.converge()
    sc.move("R3", move_link, at=move_at)
    sc.run_until(run_until)
    sc.finish()

    roots = sc.spans.roots
    verdict = verify_span_equivalence(
        sc.net.tracer, roots, move_at, "R3", "L4", group=str(sc.group)
    )
    row: Dict[str, Any] = {
        "scenario": "spans",
        "approach": approach.key,
        "title": approach.title,
        "seed": seed,
        "loss_rate": loss_rate,
        "model": model if loss_rate > 0.0 else None,
        "join_delay": verdict["span_join_delay"],
        "phase_sum": verdict["phase_sum"],
        "delivered_in": verdict["delivered_in"],
        "equivalent": verdict["equivalent"],
        "event_join_delay": verdict["event_join_delay"],
        "leave_delay": verdict["span_leave_delay"],
    }
    for key, name in zip(PHASE_KEYS, HANDOVER_PHASES):
        row[key] = verdict["phases"].get(name)

    handovers = handovers_of(roots, "R3", since=move_at)
    handover = handovers[0] if handovers else None
    row["disruption"] = None
    row["bu_retransmits"] = 0
    if handover is not None:
        before = handover.attrs.get("last_delivery_before")
        after = handover.attrs.get("first_delivery")
        if before is not None and after is not None:
            row["disruption"] = after - before
        row["bu_retransmits"] = sum(
            child.attrs.get("retransmits", 0)
            for child in handover.children
            if child.kind == "binding-update"
        )
    grafts = [
        span
        for span in iter_spans(roots)
        if span.kind == "graft" and span.start >= move_at
    ]
    row["graft_count"] = len(grafts)
    row["graft_time"] = max(
        (span.duration for span in grafts if span.attrs.get("acked")), default=None
    )
    row["spans_total"] = sum(1 for _ in iter_spans(roots))
    row["handover_id"] = handover.span_id if handover is not None else None
    row["faults_fired"] = injector.fired
    return row


def run_span_breakdown(
    approaches: Optional[Sequence[Any]] = None,
    loss_rates: Sequence[float] = (0.0,),
    seed: int = 0,
    runner: Optional[Any] = None,
    **cell: Any,
) -> List[Dict[str, Any]]:
    """Run the loss-rate × approach grid of ``spans.receiver`` cells
    through the campaign engine; ``cell`` is any other
    :func:`span_receiver_run` parameter.  Rows in grid order."""
    from ..faults.experiments import run_loss_grid

    return run_loss_grid(
        "spans.receiver", loss_rates, approaches, runner, seed=seed, **cell
    )


def render_phase_table(rows: List[Dict[str, Any]]) -> str:
    """Phase-attribution table: one row per (approach, loss rate)."""
    return render_table(
        rows,
        [
            ("approach", "approach"),
            ("loss_rate", "loss", fmt_float(3)),
            (PHASE_KEYS[0], "l2", fmt_seconds),
            (PHASE_KEYS[1], "detect", fmt_seconds),
            (PHASE_KEYS[2], "coa", fmt_seconds),
            (PHASE_KEYS[3], "rejoin", fmt_seconds),
            ("phase_sum", "sum", fmt_seconds),
            ("join_delay", "join delay", fmt_seconds),
            ("disruption", "disruption", fmt_seconds),
            ("bu_retransmits", "BU rexmt"),
            ("equivalent", "spans==events"),
        ],
        title="Handover phase attribution (R3 hands off, span-derived)",
    )
