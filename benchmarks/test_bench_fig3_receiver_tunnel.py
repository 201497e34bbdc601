"""EXP-F3 — Figure 3: mobile receiver via home-agent tunnel.

Receiver 3 moves from Link 4 to Link 1 and sends its home agent
(Router D) an extended Binding Update carrying the Multicast Group List
Sub-Option; D joins on behalf and tunnels every group datagram to the
care-of address — crossing Links 3, 2, 1 twice, the suboptimal routing
the paper calls out.
"""

from repro.analysis import fmt_seconds, render_figure
from repro.core import BIDIRECTIONAL_TUNNEL, PaperScenario, ScenarioConfig
from repro.net.topogen import ROUTER_LINKS

from bench_utils import once, save_report

MOVE_AT = 40.0


def run():
    sc = PaperScenario(ScenarioConfig(seed=3, approach=BIDIRECTIONAL_TUNNEL))
    sc.converge()
    sc.move("R3", "L1", at=MOVE_AT)
    sc.run_until(90.0)
    return sc


def test_bench_fig3_receiver_tunnel(benchmark):
    sc = once(benchmark, run)
    d = sc.paper.router("D")
    r3 = sc.paper.host("R3")
    entry = d.binding_cache.get(r3.home_address)

    window = [x for x in sc.apps["R3"].deliveries_between(60.0, 90.0) if not x.duplicate]
    mean_latency = sum(x.latency for x in window) / len(window)
    optimal = sc.metrics.optimal_latency("L1", "L1", 1000)

    report = [
        render_figure(
            sc.current_tree(), "L1", ROUTER_LINKS,
            tunnels=[("Router D (HA)", f"R3 @ {entry.care_of_address}", "multicast tunnel")],
            title="Figure 3: tree + tunnel after R3 moved Link4->Link1",
        ),
        "",
        f"binding: {r3.home_address} -> {entry.care_of_address}",
        f"groups joined on behalf by D: {[str(g) for g in d.groups_on_behalf()]}",
        f"datagrams tunneled by D: {d.tunneled_to_mobiles}",
        f"join delay: {fmt_seconds(sc.join_delay('R3', MOVE_AT))}",
        f"delivery latency via tunnel: {fmt_seconds(mean_latency)} "
        f"vs optimal on-link {fmt_seconds(optimal)} "
        f"(stretch {mean_latency / optimal:.1f}x — links crossed twice)",
    ]
    save_report("fig3_receiver_tunnel", "\n".join(report))

    assert entry is not None
    assert sc.paper.link("L1").prefix.contains(entry.care_of_address)
    assert d.groups_on_behalf() == [sc.group]
    assert d.tunneled_to_mobiles > 300
    # Suboptimal routing: the datagram reaches R3 on its own source link
    # only after a detour via Router D and back.
    assert mean_latency > 3 * optimal
