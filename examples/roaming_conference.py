#!/usr/bin/env python3
"""A roaming audio/video conference — the paper's motivating workload.

"Demand for multimedia group communication, audio and video streaming
... is rapidly increasing" (paper §1).  This example puts a 256 kbit/s
stream on the Figure 1 network and lets three extra mobile listeners
roam randomly across all six links for ten simulated minutes, once per
delivery approach.  It reports per-approach delivery ratio, duplicate
load, mean latency, and home-agent encapsulation load — the engineering
trade-off the paper's comparison is about.

Run:  python examples/roaming_conference.py        (~30 s)
"""

from repro.analysis import fmt_seconds, render_table
from repro.core import ALL_APPROACHES, PaperScenario, ScenarioConfig
from repro.mobility import RandomWaypointMobility
from repro.traffic import ReceiverApp


def run_approach(approach, seed=7, duration=600.0):
    sc = PaperScenario(
        ScenarioConfig(seed=seed, approach=approach, packet_interval=0.125,
                       payload_bytes=4000)  # 256 kbit/s stream
    )
    listeners = []
    for k in range(3):
        host = sc.paper.add_host(f"U{k}", "L4", host_id=130 + k)
        listeners.append((host, ReceiverApp(host)))
    sc.converge()
    links = [sc.paper.link(f"L{i}") for i in range(1, 7)]
    models = []
    for host, _app in listeners:
        host.join_group(sc.group)
        model = RandomWaypointMobility(host, links, min_dwell=40.0, max_dwell=120.0)
        model.start()
        models.append(model)
    sc.run_until(sc.now + duration)

    sent = sc.source.sent
    rows = []
    for (host, app), model in zip(listeners, models):
        rows.append(
            {
                "listener": host.name,
                "moves": model.moves_done,
                "delivered_pct": 100.0 * app.unique_count / sent,
                "duplicates": app.duplicate_count,
                "mean_latency": app.mean_latency() or 0.0,
            }
        )
    ha_encap = sum(
        r.load["encapsulations"] for r in sc.paper.routers.values()
    )
    return rows, ha_encap


def main() -> None:
    print("10-minute 256 kbit/s conference, 3 listeners roaming all links\n")
    for approach in ALL_APPROACHES:
        rows, ha_encap = run_approach(approach)
        print(render_table(
            rows,
            [
                ("listener", "listener"),
                ("moves", "moves"),
                ("delivered_pct", "delivered %", lambda v: f"{v:.1f}"),
                ("duplicates", "dups"),
                ("mean_latency", "mean latency", fmt_seconds),
            ],
            title=f"{approach.number}. {approach.title}",
        ))
        print(f"  total home-agent encapsulations: {ha_encap}\n")


if __name__ == "__main__":
    main()
