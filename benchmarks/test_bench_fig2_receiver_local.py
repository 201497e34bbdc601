"""EXP-F2 — Figure 2: mobile receiver with local group membership.

Receiver 3 moves from Link 4 to the pruned Link 6; Router E must graft
Link 6 onto the tree on receiving R3's Report, while Router D keeps
forwarding onto Link 4 until the MLD leave delay (≤ 260 s) expires.
"""

from repro.analysis import fmt_seconds, render_tree
from repro.core import LOCAL_MEMBERSHIP, PaperScenario, ScenarioConfig
from repro.net.topogen import ROUTER_LINKS

from bench_utils import once, save_report

MOVE_AT = 40.0


def run():
    sc = PaperScenario(ScenarioConfig(seed=2, approach=LOCAL_MEMBERSHIP))
    sc.converge()
    before = sc.metrics.snapshot()
    sc.move("R3", "L6", at=MOVE_AT)
    sc.run_until(80.0)
    mid_tree = sc.current_tree()
    sc.run_until(MOVE_AT + 260.0 + 30.0)
    return sc, before, mid_tree


def test_bench_fig2_receiver_local(benchmark):
    sc, before, mid_tree = once(benchmark, run)
    join = sc.join_delay("R3", MOVE_AT)
    leave = sc.leave_delay("L4", MOVE_AT)
    wasted = sc.metrics.snapshot().delta(before).bytes_on("L4", "mcast_data")

    report = [
        render_tree(mid_tree, "L1", ROUTER_LINKS,
                    title="Figure 2: tree after R3 moved Link4->Link6 "
                          "(MLD timer on Link 4 not yet expired)"),
        "",
        f"join delay (unsolicited Report + graft): {fmt_seconds(join)}",
        f"leave delay on Link 4:                    {fmt_seconds(leave)}  (bound: T_MLI = 260 s)",
        f"wasted multicast bytes on Link 4:         {wasted}",
        f"grafts by Router E:                       "
        f"{sc.net.tracer.count('pim', node='E', event='graft-sent', since=MOVE_AT)}",
    ]
    save_report("fig2_receiver_local", "\n".join(report))

    # Paper shape: Link 6 grafted, Link 4 still served (Figure 2), leave
    # detected within T_MLI, join delay ~ handoff pipeline.
    assert mid_tree["E"] == ["L6"]
    assert "L4" in mid_tree["D"]
    assert join is not None and join < 3.0
    assert leave is not None and 0 < leave <= 260.0
    assert wasted > 100_000  # the leave-delay bandwidth waste is real
    assert "L4" not in sc.current_tree()["D"]  # gone after expiry
