"""EXP-R3: the seeded chaos study (nemesis campaigns + convergence).

One campaign cell (:func:`chaos_cell`, task ``chaos.cell``) generates a
seeded topology, homes a mobile receiver population, starts one (S,G)
flow, unleashes a nemesis schedule (:mod:`repro.chaos.nemesis`) across
a bounded chaos window, then runs a settle window past the plan's last
heal and asks the convergence oracle
(:mod:`repro.chaos.convergence`) whether the live forwarding state
re-converged to the healed-topology reference RPF tree.

Reported metrics — convergence verdict + time, residual divergence
counts, and the delivery-survival ratio (application units delivered
over the flow's lifetime vs. the loss-free expectation) — are pure
functions of the cell parameters (no wall-clock fields), preserving
the campaign determinism/caching contracts.  ``traffic_model="fluid"``
makes 10⁴-receiver cells feasible: the analytic engine integrates
delivery while sparse probes keep PIM-DM's data-driven recovery alive.

The *chaos profile* tightens the protocol timers (PIM hello 5 s, MLD
query 15 s vs. the RFC 30/125 s) so post-fault recovery — bounded by
neighbor-relearn and membership-requery latencies — completes inside a
settle window of ~20 s instead of minutes.  The paper's §4.4 argument
is exactly this trade: shorter soft-state timers buy faster recovery
for more control traffic.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..analysis.tables import fmt_float, render_table
from ..campaign import CampaignGrid, CampaignRunner, run_cells
from ..mipv6 import MobileIpv6Config
from ..mld import MldConfig
from ..net.packet import IPV6_HEADER_BYTES
from ..pimdm import PimDmConfig
from .nemesis import ARCHETYPES, nemesis_plan

__all__ = [
    "DEFAULT_INTENSITIES",
    "DEFAULT_TOPOS",
    "chaos_cell",
    "chaos_mipv6_config",
    "chaos_mld_config",
    "chaos_pim_config",
    "render_chaos_report",
    "run_chaos_sweep",
]

#: Default topology axis: one small hierarchical tree, one Waxman mesh
#: (the redundant-path shape where assert elections actually matter).
DEFAULT_TOPOS: List[Dict[str, Any]] = [
    {"model": "hier", "depth": 2, "fanout": 5},     # 30 routers, tree
    {"model": "waxman", "n": 24, "seed": 7},        # 24 routers, mesh
]

DEFAULT_INTENSITIES = (0.3, 0.7)


def chaos_pim_config() -> PimDmConfig:
    """PIM-DM timers for the chaos profile: 5 s hellos bound the
    neighbor-relearn time after a crash/restart to one hello period."""
    return PimDmConfig(hello_period=5.0, hello_holdtime=17.5)


def chaos_mld_config() -> MldConfig:
    """MLD timers for the chaos profile: 15 s queries bound the
    membership-requery time after a cold router restart."""
    return MldConfig(
        query_interval=15.0,
        query_response_interval=4.0,
        startup_query_interval=3.75,
        unsolicited_report_interval=2.0,
    )


def chaos_mipv6_config() -> MobileIpv6Config:
    """MIPv6 timers for the chaos profile: fast binding refresh so HA
    failover storms resolve inside the settle window."""
    return MobileIpv6Config(binding_lifetime=64.0, binding_refresh_interval=10.0)


def chaos_cell(
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
    """One chaos cell: generate, populate, break, heal, judge.

    Timeline: joins spread over ``[1, 1 + 0.4·warmup]``, the flow
    starts at ``warmup/2`` (tree established before the storm), the
    nemesis owns ``[warmup, warmup + chaos_duration]`` and is healed by
    construction no later than its end, and the run extends ``settle``
    seconds further before the convergence oracle's verdict.
    """
    from ..faults import FaultInjector
    from ..invariants import InvariantMonitor, checking_enabled
    from ..net.topogen import build_network, topo_graph
    from ..traffic import make_traffic_model
    from .convergence import ConvergenceOracle

    spec = dict(topo) if topo else dict(DEFAULT_TOPOS[0])
    graph = topo_graph(spec)
    built = build_network(
        graph,
        seed=seed,
        pim_config=chaos_pim_config(),
        mld_config=chaos_mld_config(),
        mipv6_config=chaos_mipv6_config(),
    )
    net = built.net
    protocol_monitor = None
    if check_invariants or (check_invariants is None and checking_enabled()):
        protocol_monitor = InvariantMonitor(net, escalate=True).attach()

    group = built.make_group(1)
    source = built.place_source("s000")
    population = built.place_receivers(receivers)
    plan = nemesis_plan(
        graph,
        archetype,
        intensity=intensity,
        seed=seed,
        # The schedule is part of the *physical* scenario: both
        # traffic engines must see the same storm so their results
        # stay comparable.
        cell=f"{spec.get('model')}.{archetype}.{intensity}",
        start=warmup,
        duration=chaos_duration,
        hosts=[h.name for h in population],
    )
    heal_at = plan.last_heal_time()
    end = warmup + chaos_duration + settle
    oracle = ConvergenceOracle(
        flows=[("s000", group)], heal_at=heal_at, settle=end - heal_at
    )
    monitor = InvariantMonitor(net, oracles=[oracle], escalate=False).attach()
    injector = FaultInjector(net, plan)

    traffic = make_traffic_model(traffic_model, probe_interval=probe_interval)
    traffic.attach(net)
    net.start()
    injector.arm()
    built.schedule_joins(
        population, group, start=1.0, spread=max(warmup * 0.4, 1.0),
        stream="topogen.joins.g0",
    )
    flow_start = warmup / 2
    delivered = {"units": 0}
    if traffic_model == "packet":
        def _count_delivery(ev) -> None:
            delivered["units"] += 1

        net.tracer.add_listener(_count_delivery, categories=("mcast.deliver",))
    flow = traffic.add_cbr(
        source, group, packet_interval=packet_interval, flow="flow-g0"
    )
    flow.start(at=flow_start)
    net.run(until=end)
    traffic.finish()
    monitor.finalize()
    if protocol_monitor is not None:
        protocol_monitor.check()

    if traffic_model != "packet":
        inner_bytes = 1000 + IPV6_HEADER_BYTES  # add_cbr default payload
        total_bytes = sum(
            traffic.delivered_bytes.values()
        ) if hasattr(traffic, "delivered_bytes") else 0.0
        delivered_units = total_bytes / inner_bytes
    else:
        delivered_units = float(delivered["units"])
    expected_units = receivers * (end - flow_start) / packet_interval
    verdict = oracle.results[0]
    rules = sorted({d["rule"] for d in verdict["divergences"]})
    result: Dict[str, Any] = {
        "topo": spec,
        "archetype": archetype,
        "intensity": intensity,
        "routers": len(graph.routers),
        "links": len(graph.links),
        "receivers": receivers,
        # the layout that ran; keeps committed EXP-R3 rows byte-identical
        "backend": "compact",
        "traffic_model": traffic_model,
        "seed": seed,
        "graph_digest": graph.digest(),
        "plan_events": len(plan),
        "plan_targets": len(plan.targets()),
        "heal_at": round(heal_at, 6),
        "settle": settle,
        "events": net.sim.events_dispatched,
        "converged": verdict["converged"],
        "convergence_time": verdict["convergence_time"],
        "divergences": len(verdict["divergences"]),
        "divergence_rules": rules,
        "member_links": verdict["member_links"],
        "reference_links": verdict["reference_links"],
        "live_links": verdict["live_links"],
        "delivered_units": round(delivered_units, 3),
        "expected_units": round(expected_units, 3),
        "delivery_ratio": round(
            delivered_units / expected_units if expected_units else 0.0, 4
        ),
    }
    if traffic_model != "packet":
        result["traffic"] = traffic.describe()
    return result


def run_chaos_sweep(
    topos: Optional[Sequence[Dict[str, Any]]] = None,
    archetypes: Sequence[str] = ARCHETYPES,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    traffic_models: Sequence[str] = ("packet",),
    seed: int = 0,
    runner: Optional[CampaignRunner] = None,
    **cell: Any,
) -> Dict[str, Any]:
    """Run EXP-R3 and assemble convergence-time distributions plus
    delivery-survival curves.

    The grid is topologies × archetypes × intensities × traffic models
    of ``chaos.cell`` tasks; ``cell`` (any other :func:`chaos_cell`
    parameter) goes into every cell.
    """
    grid = CampaignGrid(
        "chaos.cell",
        axes={
            "topo": [dict(t) for t in (topos or DEFAULT_TOPOS)],
            "archetype": list(archetypes),
            "intensity": list(intensities),
            "traffic_model": list(traffic_models),
        },
        base={"seed": seed, **cell},
    )
    rows = sorted(
        run_cells(grid.cells(), runner),
        key=lambda r: (
            r["topo"]["model"], r["archetype"], r["intensity"],
            r["traffic_model"],
        ),
    )
    converged = [r for r in rows if r["converged"]]
    times = sorted(
        r["convergence_time"] for r in converged
        if r["convergence_time"] is not None
    )

    def quantile(values: List[float], q: float) -> Optional[float]:
        if not values:
            return None
        idx = min(len(values) - 1, max(0, round(q * (len(values) - 1))))
        return round(values[idx], 6)

    by_archetype: Dict[str, Dict[str, Any]] = {}
    for archetype in sorted({r["archetype"] for r in rows}):
        sub = [r for r in rows if r["archetype"] == archetype]
        sub_times = sorted(
            r["convergence_time"] for r in sub
            if r["converged"] and r["convergence_time"] is not None
        )
        by_archetype[archetype] = {
            "cells": len(sub),
            "converged": sum(1 for r in sub if r["converged"]),
            "convergence_time": {
                "p50": quantile(sub_times, 0.5),
                "p90": quantile(sub_times, 0.9),
                "max": round(sub_times[-1], 6) if sub_times else None,
            },
            "delivery_survival": [
                {
                    "intensity": intensity,
                    "delivery_ratio": round(
                        sum(
                            r["delivery_ratio"] for r in sub
                            if r["intensity"] == intensity
                        ) / max(
                            1,
                            sum(1 for r in sub if r["intensity"] == intensity),
                        ),
                        4,
                    ),
                }
                for intensity in sorted({r["intensity"] for r in sub})
            ],
        }
    return {
        "experiment": "EXP-R3",
        "seed": seed,
        "cells": len(rows),
        "converged_cells": len(converged),
        "convergence_rate": round(len(converged) / len(rows), 4) if rows else 0.0,
        "convergence_time": {
            "p50": quantile(times, 0.5),
            "p90": quantile(times, 0.9),
            "max": round(times[-1], 6) if times else None,
        },
        "rows": rows,
        "by_archetype": by_archetype,
    }


def render_chaos_report(report: Dict[str, Any]) -> str:
    """Human-readable EXP-R3 tables."""
    flat = [
        {
            "topo": r["topo"]["model"],
            "archetype": r["archetype"],
            "intensity": r["intensity"],
            "traffic": r["traffic_model"],
            "events": r["events"],
            "converged": "yes" if r["converged"] else "NO",
            "conv_time": (
                r["convergence_time"]
                if r["convergence_time"] is not None
                else float("nan")
            ),
            "diverg": r["divergences"],
            "delivery": r["delivery_ratio"],
        }
        for r in report["rows"]
    ]
    table = render_table(
        flat,
        [
            "topo",
            "archetype",
            ("intensity", "intensity", fmt_float(2)),
            "traffic",
            "events",
            "converged",
            ("conv_time", "conv time (s)", fmt_float(3)),
            ("diverg", "residual div"),
            ("delivery", "delivery", fmt_float(4)),
        ],
        title=(
            f"EXP-R3 — chaos convergence ({report['cells']} cells, "
            f"{report['converged_cells']} converged, "
            f"p90 convergence {report['convergence_time']['p90']} s)"
        ),
    )
    lines = [table]
    for archetype, stats in report["by_archetype"].items():
        survival = ", ".join(
            f"i={p['intensity']:g}:{p['delivery_ratio']:.3f}"
            for p in stats["delivery_survival"]
        )
        lines.append(
            f"{archetype}: {stats['converged']}/{stats['cells']} converged, "
            f"p50={stats['convergence_time']['p50']} s — survival {survival}"
        )
    return "\n".join(lines)
