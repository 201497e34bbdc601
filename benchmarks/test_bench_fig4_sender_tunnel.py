"""EXP-F4 — Figure 4: mobile sender tunneling to its home agent.

Sender S moves from Link 1 to Link 6 and tunnels multicast datagrams
(inner source = home address) to Router A, which forwards them on the
home link; the existing source-rooted tree keeps serving all members —
no re-flood, no new (S,G) state, per-datagram encapsulation overhead.
"""

from repro.analysis import fmt_bytes, render_figure
from repro.core import BIDIRECTIONAL_TUNNEL, PaperScenario, ScenarioConfig
from repro.net.topogen import ROUTER_LINKS

from bench_utils import once, save_report

MOVE_AT = 40.0


def run():
    sc = PaperScenario(ScenarioConfig(seed=4, approach=BIDIRECTIONAL_TUNNEL))
    sc.converge()
    before = sc.metrics.snapshot()
    sc.move("S", "L6", at=MOVE_AT)
    sc.run_until(100.0)
    return sc, before


def test_bench_fig4_sender_tunnel(benchmark):
    sc, before = once(benchmark, run)
    sender = sc.paper.host("S")
    a = sc.paper.router("A")
    delta = sc.metrics.snapshot().delta(before)
    new_entries = sc.metrics.entries_created(source=sender.care_of_address, since=MOVE_AT)

    report = [
        render_figure(
            sc.current_tree(), "L1", ROUTER_LINKS,
            tunnels=[(f"S @ {sender.care_of_address} (Link 6)", "Router A (HA)",
                      "reverse multicast tunnel")],
            title="Figure 4: unchanged tree + sender tunnel after S moved Link1->Link6",
        ),
        "",
        f"new (S_coa, G) entries after the move: {new_entries}",
        f"datagrams reverse-tunneled through A: {a.reverse_tunneled}",
        f"sender encapsulations: {sender.load['encapsulations']}",
        f"tunnel overhead since move: {fmt_bytes(delta.total('tunnel_overhead'))}",
        f"asserts since move: {sc.metrics.assert_count(since=MOVE_AT)}",
        "receivers still served: "
        + ", ".join(
            f"{n}={'yes' if sc.apps[n].first_delivery_after(60.0) else 'NO'}"
            for n in ("R1", "R2", "R3")
        ),
    ]
    save_report("fig4_sender_tunnel", "\n".join(report))

    tree = sc.current_tree()
    assert tree["A"] == ["L2"] and tree["D"] == ["L4"]  # unchanged
    assert new_entries == 0
    assert a.reverse_tunneled > 500
    assert delta.total("tunnel_overhead") > 40_000
    assert all(sc.apps[n].first_delivery_after(60.0) for n in ("R1", "R2", "R3"))
