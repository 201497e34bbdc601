"""EXP-F1 — Figure 1: the initial multicast distribution tree.

Regenerates the figure: flood-and-prune from Sender S on Link 1 with
Receivers 1-3 at home must converge to the tree
Link1 -> A -> Link2 -> (B||C assert-elected) -> Link3 -> D -> Link4,
with Links 5 and 6 off-tree.
"""

from repro.analysis import render_tree
from repro.core import LOCAL_MEMBERSHIP, PaperScenario, ScenarioConfig
from repro.net.topogen import ROUTER_LINKS

from bench_utils import once, save_report


def run():
    sc = PaperScenario(ScenarioConfig(seed=1, approach=LOCAL_MEMBERSHIP))
    sc.converge()
    return sc


def test_bench_fig1_tree(benchmark):
    sc = once(benchmark, run)
    tree = sc.current_tree()

    report = [
        render_tree(tree, "L1", ROUTER_LINKS,
                    title="Figure 1: multicast distribution tree for (S on Link 1, G)"),
        "",
        f"per-router forwarding: {tree}",
        f"asserts during convergence: {sc.metrics.assert_count()}",
        f"prunes: {sc.metrics.prune_count()}",
        f"receiver deliveries: "
        + ", ".join(f"{n}={sc.apps[n].unique_count}" for n in ("R1", "R2", "R3")),
        f"bytes on off-tree links: L5={sc.net.stats.link_bytes('L5', 'mcast_data')} "
        f"L6={sc.net.stats.link_bytes('L6', 'mcast_data')}",
    ]
    save_report("fig1_tree", "\n".join(report))

    # Paper shape: the tree spans Links 1-4 and leaves 5/6 dark.
    assert tree["A"] == ["L2"]
    assert sorted(tree["B"] + tree["C"]) == ["L3"]
    assert tree["D"] == ["L4"]
    assert tree["E"] == []
    assert sc.net.stats.link_bytes("L5", "mcast_data") == 0
    assert sc.net.stats.link_bytes("L6", "mcast_data") == 0
    assert all(sc.apps[n].unique_count > 150 for n in ("R1", "R2", "R3"))
