#!/usr/bin/env python3
"""Regenerate the paper's Figures 1-4 as ASCII trees.

Runs the four scenarios of Section 4.2 on the Figure 1 network and
prints the resulting distribution trees and tunnels, annotated with the
measured delays the paper discusses qualitatively.

Run:  python examples/paper_figures.py
"""

from repro.analysis import fmt_seconds, render_figure
from repro.core import (
    BIDIRECTIONAL_TUNNEL,
    LOCAL_MEMBERSHIP,
    PaperScenario,
    ScenarioConfig,
)
from repro.net.topogen import ROUTER_LINKS


def figure1() -> None:
    sc = PaperScenario(ScenarioConfig(seed=1, approach=LOCAL_MEMBERSHIP))
    sc.converge()
    print(render_figure(
        sc.current_tree(), "L1", ROUTER_LINKS,
        title="Figure 1 — initial tree for (Sender S on Link 1, Group G)",
    ))
    print(f"  asserts during convergence: {sc.metrics.assert_count()}"
          f" (Routers B and C electing the Link-3 forwarder)\n")


def figure2() -> None:
    sc = PaperScenario(ScenarioConfig(seed=2, approach=LOCAL_MEMBERSHIP))
    sc.converge()
    sc.move("R3", "L6", at=40.0)
    sc.run_until(80.0)
    print(render_figure(
        sc.current_tree(), "L1", ROUTER_LINKS,
        title="Figure 2 — R3 moved Link4->Link6, local membership",
    ))
    print(f"  join delay: {fmt_seconds(sc.join_delay('R3', 40.0))}"
          f"  (Link 4 still served until the MLD timer expires, <=260s)\n")


def figure3() -> None:
    sc = PaperScenario(ScenarioConfig(seed=3, approach=BIDIRECTIONAL_TUNNEL))
    sc.converge()
    sc.move("R3", "L1", at=40.0)
    sc.run_until(80.0)
    r3 = sc.paper.host("R3")
    print(render_figure(
        sc.current_tree(), "L1", ROUTER_LINKS,
        tunnels=[("Router D (HA of R3)", f"R3 @ {r3.care_of_address}",
                  "multicast datagrams, HA->MH")],
        title="Figure 3 — R3 moved Link4->Link1, membership via home agent",
    ))
    d = sc.paper.router("D")
    print(f"  datagrams tunneled by Router D: {d.tunneled_to_mobiles}"
          f"  (each crosses Links 3,2,1 twice)\n")


def figure4() -> None:
    sc = PaperScenario(ScenarioConfig(seed=4, approach=BIDIRECTIONAL_TUNNEL))
    sc.converge()
    sc.move("S", "L6", at=40.0)
    sc.run_until(90.0)
    s = sc.paper.host("S")
    print(render_figure(
        sc.current_tree(), "L1", ROUTER_LINKS,
        tunnels=[(f"S @ {s.care_of_address} (Link 6)", "Router A (HA of S)",
                  "multicast datagrams, MH->HA")],
        title="Figure 4 — S moved Link1->Link6, sending via home agent",
    ))
    a = sc.paper.router("A")
    print(f"  reverse-tunneled datagrams: {a.reverse_tunneled}"
          f"  (tree unchanged — no re-flood, no new (S,G) state)\n")


if __name__ == "__main__":
    figure1()
    figure2()
    figure3()
    figure4()
