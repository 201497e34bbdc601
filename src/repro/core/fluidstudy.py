"""EXP-S2: fluid vs packet traffic at scale (ROADMAP item 2).

The paper's §4.3 analysis is expressed in *rates*; per-packet events
cap a 10⁴-receiver EXP-S1 cell at ~47 s wall and put 10⁶ receivers
(~10⁹ packet events per simulated minute) out of reach.  EXP-S2
quantifies what the fluid engine (:mod:`repro.traffic.fluid`) buys:

* **data-plane event reduction** — packet mode transmits one datagram
  per link per ``packet_interval``; fluid mode transmits one *probe*
  per ``probe_interval`` and integrates the rest analytically.  The
  headline ratio compares data-plane transmissions (mcast/unicast data
  packets vs probe packets) at equal simulated traffic; total
  dispatched simulator events are reported alongside (the control
  plane — joins, hellos, timers — is identical in both modes, so the
  total-event ratio is smaller and scenario-dependent).
* **byte agreement** — fluid ``mcast_data`` bytes must match packet
  mode within tolerance (§ docs/TRAFFIC.md).
* **a completed 10⁶-receiver cell** — via ``receiver_weight``: each
  placed host stands for ``weight`` co-located receivers (MLD report
  suppression means co-located listeners add no protocol state or
  signaling; delivered bytes scale linearly).

Run via ``repro sweep fluid`` or the ``fluid.cell`` campaign task;
the committed study artefact lives at
``benchmarks/results/exp_s2_fluid.json``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..analysis.tables import fmt_bytes, fmt_float, render_table
from ..campaign import CampaignCell, CampaignRunner, run_cells

__all__ = [
    "fluid_cell",
    "run_fluid_study",
    "render_fluid_report",
    "DEFAULT_PROBE_INTERVAL",
]

#: EXP-S2 probe cadence: sparse enough for a >=100x data-plane
#: reduction at the paper's 20 pkt/s rate, well under the 210 s PIM-DM
#: (S,G) data timeout.
DEFAULT_PROBE_INTERVAL = 30.0

#: Receiver counts above this run on the fluid engine only.
PACKET_CAP = 10000

#: Co-located receivers per host in the million-receiver cell.
MILLION_WEIGHT = 100


def fluid_cell(
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
    probe_interval: Optional[float] = DEFAULT_PROBE_INTERVAL,
) -> Dict[str, Any]:
    """One EXP-S2 cell: ``receivers`` hosts, each representing
    ``receiver_weight`` co-located receivers, under either traffic
    model.

    Unlike :func:`repro.core.scalestudy.scale_cell`, traffic starts
    *after* the join phase completes (at ``warmup``): the fluid model
    recomputes its rate table on every protocol-event timestamp, and
    join storms are cheapest while no flow is active.
    """
    from ..net.stats import FLUID_PROBE_CATEGORY
    from ..net.topogen import build_network, topo_graph
    from ..traffic import make_traffic_model

    spec = {"model": model, **(model_params or {})}
    graph = topo_graph(spec)
    built = build_network(graph, seed=seed)
    net = built.net
    # the result reads no trace back; listeners still hear theirs
    net.tracer.retain = False
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
            payload_bytes=payload_bytes,
            flow=f"flow-g{g}",
        ).start(at=warmup)
    moves = built.schedule_moves(
        population, mobility, start=warmup, horizon=warmup + duration
    )
    net.run(until=warmup + duration)
    traffic.finish()
    net.collect_state()

    stats = net.stats
    data_tx = stats.total_packets("mcast_data") + stats.total_packets(
        "unicast_data"
    )
    probe_tx = stats.total_packets(FLUID_PROBE_CATEGORY)
    result: Dict[str, Any] = {
        "model": model,
        "model_params": dict(model_params or {}),
        "traffic_model": traffic_model,
        "routers": len(graph.routers),
        "links": len(graph.links),
        "hosts": receivers,
        "receiver_weight": receiver_weight,
        "receivers": receivers * receiver_weight,
        "groups": groups,
        "mobility": mobility,
        "moves": moves,
        "seed": seed,
        "graph_digest": graph.digest(),
        "duration": duration,
        "packet_interval": packet_interval,
        "probe_interval": probe_interval,
        "events": net.sim.events_dispatched,
        # data-plane transmissions: analytic packet charges are floats,
        # real transmissions integers; keep both visible
        "data_transmissions": round(data_tx, 3),
        "probe_transmissions": probe_tx,
        "mcast_bytes": round(stats.total_bytes("mcast_data"), 3),
        "control_bytes": stats.signaling_bytes(),
        "state_entries": stats.state_snapshot()["total_entries"],
    }
    if traffic_model == "fluid":
        desc = traffic.describe()
        result["traffic"] = {
            "flows": desc["flows"],
            "probes_sent": desc["probes_sent"],
            "recomputes": desc["recomputes"],
            "delivered_bytes": round(
                desc["delivered_bytes"] * receiver_weight, 3
            ),
            "lost_bytes": {
                k: round(v, 3) for k, v in desc["lost_bytes"].items()
            },
        }
    return result


def run_fluid_study(
    sizes: Optional[Sequence[Dict[str, Any]]] = None,
    receivers: Sequence[int] = (1000, 10000),
    seed: int = 0,
    runner: Optional[CampaignRunner] = None,
    **cell: Any,
) -> Dict[str, Any]:
    """EXP-S2: packet/fluid cell pairs plus the weighted million cell.

    For every receiver count up to :data:`PACKET_CAP` both engines run
    and the pair reports the data-plane event reduction and byte
    agreement; beyond the cap only fluid runs (that asymmetry is the
    point).  The million cell runs the largest count on the last size
    with every host weighted :data:`MILLION_WEIGHT`.  Every cell is a
    ``fluid.cell`` task with an explicit seed plus ``cell`` (any other
    :func:`fluid_cell` parameter), run by ``runner`` (see
    :func:`repro.campaign.run_cells`).
    """
    sizes = [dict(s) for s in (sizes or [{"depth": 3, "fanout": 10}])]
    common = dict(seed=seed, **cell)
    cells = [
        CampaignCell(
            "fluid.cell",
            dict(model_params=size, receivers=count, traffic_model=engine, **common),
        )
        for size in sizes
        for count in receivers
        for engine in (("fluid", "packet") if count <= PACKET_CAP else ("fluid",))
    ]
    cells.append(
        CampaignCell(
            "fluid.cell",
            dict(
                model_params=sizes[-1],
                receivers=max(receivers),
                receiver_weight=MILLION_WEIGHT,
                traffic_model="fluid",
                **common,
            ),
        )
    )
    # results come back in cell order: the loops below mirror the cells
    results = iter(run_cells(cells, runner))
    pairs: List[Dict[str, Any]] = []
    for size in sizes:
        for count in receivers:
            fluid = next(results)
            row: Dict[str, Any] = {
                "model_params": size,
                "receivers": count,
                "fluid": fluid,
            }
            if count <= PACKET_CAP:
                packet = next(results)
                row["packet"] = packet
                probe_tx = max(fluid["probe_transmissions"], 1)
                row["data_event_reduction"] = round(
                    packet["data_transmissions"] / probe_tx, 2
                )
                row["total_event_reduction"] = round(
                    packet["events"] / max(fluid["events"], 1), 2
                )
                base = max(packet["mcast_bytes"], 1)
                row["mcast_bytes_rel_error"] = round(
                    abs(fluid["mcast_bytes"] - packet["mcast_bytes"]) / base, 6
                )
            pairs.append(row)
    first = pairs[0]["fluid"]
    return {
        "exp": "EXP-S2",
        "seed": seed,
        "packet_interval": first["packet_interval"],
        "probe_interval": first["probe_interval"],
        "pairs": pairs,
        "million_cell": next(results),
    }


def render_fluid_report(study: Dict[str, Any]) -> str:
    """Human-readable EXP-S2 summary."""
    rows = []
    for pair in study["pairs"]:
        fluid = pair["fluid"]
        packet = pair.get("packet")
        rows.append(
            {
                "topology": "x".join(
                    str(v) for v in pair["model_params"].values()
                ),
                "receivers": pair["receivers"],
                "packet_events": packet["events"] if packet else None,
                "fluid_events": fluid["events"],
                "data_tx": packet["data_transmissions"] if packet else None,
                "probe_tx": fluid["probe_transmissions"],
                "data_reduction": pair.get("data_event_reduction"),
                "byte_err": pair.get("mcast_bytes_rel_error"),
                "mcast_bytes": fluid["mcast_bytes"],
            }
        )
    parts = [
        render_table(
            rows,
            [
                ("topology", "topology"),
                ("receivers", "receivers"),
                ("packet_events", "packet events"),
                ("fluid_events", "fluid events"),
                ("data_tx", "data tx"),
                ("probe_tx", "probe tx"),
                ("data_reduction", "data-plane x", fmt_float(1)),
                ("byte_err", "byte err", fmt_float(6)),
                ("mcast_bytes", "mcast bytes", fmt_bytes),
            ],
            title="EXP-S2 — packet vs fluid traffic engines",
        )
    ]
    cell = study.get("million_cell")
    if cell:
        parts.append(
            "Million-receiver cell: {recv:,} receivers ({hosts:,} hosts x "
            "weight {w}) on {r} routers: {e:,} events, "
            "{d} delivered bytes (weighted).".format(
                recv=cell["receivers"],
                hosts=cell["hosts"],
                w=cell["receiver_weight"],
                r=cell["routers"],
                e=cell["events"],
                d=fmt_bytes(cell["traffic"]["delivered_bytes"]),
            )
        )
    return "\n\n".join(parts)
