"""Home-agent load scaling (paper §4.3.2).

"The system load of a single home agent increases with the number of
mobile hosts it must support, the number of multicast groups its mobile
hosts need to receive, and the amount of traffic in the groups."

Three sweeps on the Figure 1 network quantify this for Router D (the home
agent of Link 4):

* :func:`run_ha_load_vs_mobiles` — N mobile receivers homed on Link 4,
  all away on Link 6 behind HA tunnels; measures D's encapsulation
  count (one tunnel copy per datagram per mobile — the unicast
  replication the paper criticizes),
* :func:`run_ha_load_vs_groups` — one mobile receiver subscribed to G
  groups, each fed by its own CBR flow,
* :func:`run_ha_load_vs_rate` — one mobile, one group, varying source
  packet rate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..analysis.tables import fmt_bytes, render_table
from ..campaign import CampaignGrid, CampaignRunner, run_cells
from ..net import make_multicast_group
from .scenario import PaperScenario, ScenarioConfig
from .strategies import BIDIRECTIONAL_TUNNEL

__all__ = [
    "run_ha_load_vs_mobiles",
    "run_ha_load_vs_groups",
    "run_ha_load_vs_rate",
    "ha_load_mobiles_cell",
    "ha_load_groups_cell",
    "ha_load_rate_cell",
    "render_scaling",
]


def ha_load_mobiles_cell(
    mobiles: int,
    seed: int = 0,
    measure_window: float = 30.0,
    traffic_model: str = "packet",
    probe_interval: Optional[float] = None,
) -> Dict[str, Any]:
    """One sweep point: N tunnel-mode mobiles homed on Link 4, away on Link 6."""
    sc = PaperScenario(
        ScenarioConfig(
            seed=seed,
            approach=BIDIRECTIONAL_TUNNEL,
            traffic_model=traffic_model,
            probe_interval=probe_interval,
        )
    )
    extras = [
        sc.paper.add_host(f"M{k}", "L4", host_id=110 + k) for k in range(mobiles)
    ]
    sc.converge()
    for host in extras:
        host.join_group(sc.group)
    sc.run_for(2.0)
    for k, host in enumerate(extras):
        sc.net.sim.schedule_at(
            40.0 + 0.1 * k, host.move_to, sc.paper.link("L6")
        )
    sc.run_until(45.0)
    sc.traffic.sync()  # node load counters have no sync hook: bring them to now
    d = sc.paper.router("D")
    base_encap = d.load["encapsulations"]
    base_tunneled = d.tunneled_to_mobiles
    sc.run_for(measure_window)
    sc.finish()
    return {
        "mobiles": mobiles,
        "ha_encapsulations": d.load["encapsulations"] - base_encap,
        "tunneled_datagrams": d.tunneled_to_mobiles - base_tunneled,
        "bindings": len(d.binding_cache),
        "tunnel_overhead_bytes": sc.metrics.snapshot().total("tunnel_overhead"),
    }


def run_ha_load_vs_mobiles(
    counts: Sequence[int] = (1, 2, 4, 8),
    seed: int = 0,
    runner: Optional[CampaignRunner] = None,
    **cell: Any,
) -> List[Dict[str, Any]]:
    """HA encapsulation load vs. number of mobile hosts it serves."""
    grid = CampaignGrid(
        "scaling.mobiles", axes={"mobiles": list(counts)}, base={"seed": seed, **cell}
    )
    return run_cells(grid.cells(), runner)


def ha_load_groups_cell(
    groups: int,
    seed: int = 0,
    measure_window: float = 30.0,
    packet_interval: float = 0.1,
    traffic_model: str = "packet",
    probe_interval: Optional[float] = None,
) -> Dict[str, Any]:
    """One sweep point: a mobile subscribed to N groups, each with CBR."""
    sc = PaperScenario(
        ScenarioConfig(
            seed=seed, approach=BIDIRECTIONAL_TUNNEL,
            packet_interval=packet_interval,
            traffic_model=traffic_model,
            probe_interval=probe_interval,
        )
    )
    group_addrs = [make_multicast_group(10 + k) for k in range(groups)]
    # extra flows go through the scenario's traffic engine so fluid
    # mode integrates them too (packet mode builds identical sources)
    sources = [
        sc.traffic.add_cbr(sc.paper.host("S"), g,
                           packet_interval=packet_interval, flow=f"flow-{k}")
        for k, g in enumerate(group_addrs)
    ]
    mobile = sc.paper.add_host("MG", "L4", host_id=120)
    sc.converge()
    for g in group_addrs:
        mobile.join_group(g)
    for src in sources:
        src.start()
    sc.move("MG", "L6", at=40.0)
    sc.run_until(45.0)
    sc.traffic.sync()
    d = sc.paper.router("D")
    base = d.load["encapsulations"]
    sc.run_for(measure_window)
    sc.finish()
    return {
        "groups": groups,
        "ha_encapsulations": d.load["encapsulations"] - base,
        "groups_on_behalf": len(d.groups_on_behalf()),
    }


def run_ha_load_vs_groups(
    counts: Sequence[int] = (1, 2, 4),
    seed: int = 0,
    runner: Optional[CampaignRunner] = None,
    **cell: Any,
) -> List[Dict[str, Any]]:
    """HA encapsulation load vs. number of subscribed groups."""
    grid = CampaignGrid(
        "scaling.groups", axes={"groups": list(counts)}, base={"seed": seed, **cell}
    )
    return run_cells(grid.cells(), runner)


def ha_load_rate_cell(
    packet_interval: float,
    seed: int = 0,
    measure_window: float = 30.0,
    traffic_model: str = "packet",
    probe_interval: Optional[float] = None,
) -> Dict[str, Any]:
    """One sweep point: one tunnel-mode mobile at the given source rate."""
    sc = PaperScenario(
        ScenarioConfig(
            seed=seed, approach=BIDIRECTIONAL_TUNNEL,
            packet_interval=packet_interval,
            traffic_model=traffic_model,
            probe_interval=probe_interval,
        )
    )
    sc.converge()
    sc.move("R3", "L6", at=40.0)
    sc.run_until(45.0)
    sc.traffic.sync()
    d = sc.paper.router("D")
    base = d.load["encapsulations"]
    sc.run_for(measure_window)
    sc.finish()
    return {
        "packets_per_s": round(1.0 / packet_interval, 1),
        "ha_encapsulations": d.load["encapsulations"] - base,
    }


def run_ha_load_vs_rate(
    packet_intervals: Sequence[float] = (0.2, 0.1, 0.05),
    seed: int = 0,
    runner: Optional[CampaignRunner] = None,
    **cell: Any,
) -> List[Dict[str, Any]]:
    """HA encapsulation load vs. source traffic rate."""
    grid = CampaignGrid(
        "scaling.rate",
        axes={"packet_interval": list(packet_intervals)},
        base={"seed": seed, **cell},
    )
    return run_cells(grid.cells(), runner)


def render_scaling(rows: List[Dict[str, Any]], key: str) -> str:
    columns = [(key, key)] + [
        (c, c, fmt_bytes if "bytes" in c else None)
        for c in rows[0]
        if c != key
    ]
    return render_table(rows, columns, title=f"HA load vs {key} (paper §4.3.2)")
