"""EXP-S1: the internet-scale state/message-load study (ROADMAP item 1).

Ground truth is Helmy's *State Analysis and Aggregation Study for
Multicast-based Micro Mobility* (PAPERS.md): per-group multicast state
grows with tree size and group count, and aggregating it wins more the
more state there is to aggregate.  Our analogue of the aggregation
axis is the per-(S,G) state layout, priced by the analytic model
``STATE_BYTE_COSTS`` in :mod:`repro.net.stats`: the modelled byte cost
of the seed ``dict`` layout over the ``compact`` one is the
**aggregation gain**.  The simulator itself runs one layout
(:mod:`repro.pimdm.state`); the gain needs only its entry counts.
EXP-S1 pins the gain's qualitative shape — it rises with group count
(and tree size), because every added group replicates (S,G) +
downstream rows across the tree while unaggregatable state (neighbor
tables, binding caches) stays put.  That is exactly Helmy's trend.

One campaign cell (:func:`scale_cell`, task ``scale.cell``) generates
a seeded topology (shared read-only across cells via the
:func:`repro.net.topogen.topo_graph` worker cache), homes a mobile
receiver population on its leaf links, runs flood/prune/join plus
seeded handovers, and reports deterministic metrics only — events,
state-entry counts (the peak RSS proxy), modelled state bytes under
both layouts, and control-message load — so results are byte-stable
under ``jobs=1`` and ``jobs=N`` and cacheable.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..analysis.tables import fmt_bytes, fmt_float, render_table
from ..campaign import CampaignGrid, CampaignRunner, run_cells

__all__ = [
    "DEFAULT_SIZES",
    "render_scale_report",
    "run_scale_sweep",
    "scale_cell",
]

#: Default topology-size axis: hierarchical trees from tens to >1000
#: routers (fanout=10, depth=3 → 1110: the EXP-S1 headline point).
DEFAULT_SIZES: List[Dict[str, Any]] = [
    {"depth": 2, "fanout": 5},     # 30 routers
    {"depth": 3, "fanout": 5},     # 155 routers
    {"depth": 3, "fanout": 8},     # 584 routers
    {"depth": 3, "fanout": 10},    # 1110 routers
]


def scale_cell(
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
    """One scaling-study cell: generate, populate, run, measure.

    ``mobility`` is mean handovers per receiver over the measurement
    window.  Every reported value is a pure function of the parameters
    (no wall-clock fields), preserving the campaign determinism and
    cache contracts.  ``traffic_model="fluid"`` swaps the per-packet
    CBR flows for analytic rate integration (``repro.traffic.fluid``)
    and adds a ``traffic`` block to the result.
    """
    from ..invariants import InvariantMonitor, checking_enabled
    from ..net.topogen import build_network, topo_graph
    from ..traffic import make_traffic_model

    spec = {"model": model, **(model_params or {})}
    graph = topo_graph(spec)
    built = build_network(graph, seed=seed)
    net = built.net
    # the result reads no trace back; listeners still hear theirs
    net.tracer.retain = False
    monitor = None
    if check_invariants or (check_invariants is None and checking_enabled()):
        monitor = InvariantMonitor(net, escalate=True).attach()

    group_addrs = [built.make_group(g + 1) for g in range(groups)]
    leaf = graph.leaf_links
    sources = [
        built.place_source(f"s{g:03d}", link_name=leaf[g % len(leaf)])
        for g in range(groups)
    ]
    population = built.place_receivers(receivers)
    traffic = make_traffic_model(traffic_model, probe_interval=probe_interval)
    traffic.attach(net)
    net.start()
    for g, group in enumerate(group_addrs):
        built.schedule_joins(
            population[g::groups],
            group,
            start=1.0,
            spread=max(warmup - 2.0, 1.0),
            stream=f"topogen.joins.g{g}",
        )
        traffic.add_cbr(
            sources[g],
            group,
            packet_interval=packet_interval,
            flow=f"flow-g{g}",
        ).start(at=warmup / 2)
    moves = built.schedule_moves(
        population, mobility, start=warmup, horizon=warmup + duration
    )
    # mid-run snapshot so the peak-keeping state gauges see the full
    # tree, not whatever teardown/expiry leaves at the end
    net.sim.schedule_at(warmup + duration / 2, net.collect_state)
    net.run(until=warmup + duration)
    traffic.finish()
    net.collect_state()
    if monitor is not None:
        monitor.check()
    snap = net.stats.state_snapshot()
    gain = (
        snap["bytes"]["dict"] / snap["bytes"]["compact"]
        if snap["bytes"]["compact"]
        else 1.0
    )
    result: Dict[str, Any] = {
        "model": model,
        "model_params": dict(model_params or {}),
        "routers": len(graph.routers),
        "links": len(graph.links),
        "receivers": receivers,
        "groups": groups,
        "mobility": mobility,
        "moves": moves,
        # the layout that ran; keeps committed EXP-S1 rows byte-identical
        "backend": "compact",
        "seed": seed,
        "graph_digest": graph.digest(),
        "events": net.sim.events_dispatched,
        "state": snap,
        "aggregation_gain": round(gain, 4),
        "control_packets": {
            c: net.stats.total_packets(c) for c in ("pim", "mld", "mipv6")
        },
        "control_bytes": net.stats.signaling_bytes(),
        "mcast_packets": net.stats.total_packets("mcast_data"),
    }
    if traffic_model != "packet":
        # keep packet-mode cell payloads byte-identical (cache contract)
        result["traffic"] = traffic.describe()
        result["mcast_packets"] = round(result["mcast_packets"], 3)
        result["mcast_bytes"] = round(net.stats.total_bytes("mcast_data"), 3)
    return result


def run_scale_sweep(
    sizes: Optional[Sequence[Dict[str, Any]]] = None,
    receivers: Sequence[int] = (100, 1000),
    groups: Sequence[int] = (1,),
    mobility: Sequence[float] = (0.0,),
    seed: int = 0,
    runner: Optional[CampaignRunner] = None,
    **cell: Any,
) -> Dict[str, Any]:
    """Run EXP-S1 and assemble the scaling curves.

    The grid is topology sizes × receiver populations × group counts ×
    mobility rates of ``scale.cell`` tasks; ``cell`` (any other
    :func:`scale_cell` parameter) goes into every cell.  The report
    carries the per-cell rows plus three machine-readable curves: state
    entries and modelled bytes vs. router count, control-message load
    vs. router count, and aggregation gain vs. receiver population /
    group count (the Helmy-shaped trend).
    """
    grid = CampaignGrid(
        "scale.cell",
        axes={
            "model_params": [dict(s) for s in (sizes or DEFAULT_SIZES)],
            "receivers": list(receivers),
            "groups": list(groups),
            "mobility": list(mobility),
        },
        base={"seed": seed, **cell},
    )
    rows = sorted(
        run_cells(grid.cells(), runner),
        key=lambda r: (r["routers"], r["receivers"], r["groups"], r["mobility"]),
    )

    def curve(xkey: str, ykeys, rows_subset) -> List[Dict[str, Any]]:
        out = []
        for row in rows_subset:
            point = {xkey: row[xkey]}
            for label, fn in ykeys.items():
                point[label] = fn(row)
            out.append(point)
        return out

    max_receivers = max(r["receivers"] for r in rows)
    max_routers = max(r["routers"] for r in rows)
    base_groups = min(r["groups"] for r in rows)
    base_mobility = min(r["mobility"] for r in rows)
    vs_nodes = [
        r
        for r in rows
        if r["receivers"] == max_receivers
        and r["groups"] == base_groups
        and r["mobility"] == base_mobility
    ]
    vs_receivers = [
        r
        for r in rows
        if r["routers"] == max_routers
        and r["groups"] == base_groups
        and r["mobility"] == base_mobility
    ]
    vs_groups = [
        r
        for r in rows
        if r["routers"] == max_routers
        and r["receivers"] == max_receivers
        and r["mobility"] == base_mobility
    ]
    report = {
        "experiment": "EXP-S1",
        "model": rows[0]["model"],
        "seed": seed,
        "cells": len(rows),
        "total_receivers": sum(r["receivers"] for r in rows),
        "max_routers": max_routers,
        "rows": rows,
        "curves": {
            "state_vs_nodes": curve(
                "routers",
                {
                    "state_entries": lambda r: r["state"]["total_entries"],
                    "state_bytes_dict": lambda r: r["state"]["bytes"]["dict"],
                    "state_bytes_compact": lambda r: r["state"]["bytes"]["compact"],
                    "events": lambda r: r["events"],
                },
                vs_nodes,
            ),
            "messages_vs_nodes": curve(
                "routers",
                {
                    "pim_packets": lambda r: r["control_packets"]["pim"],
                    "mld_packets": lambda r: r["control_packets"]["mld"],
                    "mipv6_packets": lambda r: r["control_packets"]["mipv6"],
                    "control_bytes": lambda r: r["control_bytes"],
                },
                vs_nodes,
            ),
            "gain_vs_receivers": curve(
                "receivers",
                {"aggregation_gain": lambda r: r["aggregation_gain"]},
                vs_receivers,
            ),
            "gain_vs_groups": curve(
                "groups",
                {"aggregation_gain": lambda r: r["aggregation_gain"]},
                vs_groups,
            ),
        },
    }
    # Helmy's qualitative result: aggregation wins more the more
    # per-group state there is to aggregate.  Our per-group axis is
    # the group count (each added group replicates (S,G) + downstream
    # rows across the tree while neighbor/binding state stays fixed),
    # so the trend is pinned on gain-vs-groups; fall back to the
    # topology-size curve when the sweep has a single group count.
    gains = [p["aggregation_gain"] for p in report["curves"]["gain_vs_groups"]]
    if len(gains) < 2:
        gains = [
            p["aggregation_gain"]
            for p in curve(
                "routers",
                {"aggregation_gain": lambda r: r["aggregation_gain"]},
                vs_nodes,
            )
        ]
    report["gain_trend_increasing"] = (
        len(gains) >= 2
        and all(b >= a for a, b in zip(gains, gains[1:]))
        and gains[-1] > gains[0]
    )
    return report


def render_scale_report(report: Dict[str, Any]) -> str:
    """Human-readable EXP-S1 tables."""
    flat = [
        {
            **{
                k: r[k]
                for k in ("routers", "receivers", "groups", "mobility", "events")
            },
            "entries": r["state"]["total_entries"],
            "bytes_dict": r["state"]["bytes"]["dict"],
            "bytes_compact": r["state"]["bytes"]["compact"],
            "gain": r["aggregation_gain"],
            "pim": r["control_packets"]["pim"],
            "mld": r["control_packets"]["mld"],
        }
        for r in report["rows"]
    ]
    table = render_table(
        flat,
        [
            "routers",
            "receivers",
            "groups",
            ("mobility", "mobility", fmt_float(2)),
            "events",
            ("entries", "state entries"),
            ("bytes_dict", "bytes (dict)", fmt_bytes),
            ("bytes_compact", "bytes (compact)", fmt_bytes),
            ("gain", "gain", fmt_float(2)),
            ("pim", "pim pkts"),
            ("mld", "mld pkts"),
        ],
        title=(
            "EXP-S1 — state & message-load scaling "
            f"(model={report['model']}, {report['cells']} cells, "
            f"{report['total_receivers']} receivers aggregate)"
        ),
    )
    trend = (
        "increasing (matches Helmy)"
        if report["gain_trend_increasing"]
        else "flat/decreasing"
    )
    return f"{table}\naggregation-gain trend vs group count: {trend}"
