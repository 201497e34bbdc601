"""Convergence oracle: clean baselines, seeded-divergence mutations.

The mutation tests are the oracle's own test harness: they run a
fault-free cell to a converged state, then corrupt one router's (S,G)
state the way a lost message would and assert the oracle names the
divergence.  An oracle that passes the clean baseline but misses the
mutations would be vacuous.
"""

import pytest

from repro.chaos.convergence import (
    STATE_MUTATION_EVENTS,
    ConvergenceOracle,
    evaluate_convergence,
)
from repro.chaos.study import (
    chaos_mipv6_config,
    chaos_mld_config,
    chaos_pim_config,
)
from repro.invariants import InvariantMonitor
from repro.net.topogen import build_network, topo_graph
from repro.traffic import make_traffic_model

HIER = {"model": "hier", "depth": 2, "fanout": 3}
WAXMAN = {"model": "waxman", "n": 12, "seed": 5}


def _converged_net(spec, receivers=6, until=30.0):
    """Fault-free run to steady state; returns (net, source addr, group)."""
    graph = topo_graph(spec)
    built = build_network(
        graph,
        seed=0,
        pim_config=chaos_pim_config(),
        mld_config=chaos_mld_config(),
        mipv6_config=chaos_mipv6_config(),
    )
    group = built.make_group(1)
    source = built.place_source("s000")
    population = built.place_receivers(receivers)
    net = built.net
    traffic = make_traffic_model("packet")
    traffic.attach(net)
    net.start()
    built.schedule_joins(
        population, group, start=1.0, spread=4.0, stream="topogen.joins.g0"
    )
    flow = traffic.add_cbr(source, group, packet_interval=0.2, flow="flow-g0")
    flow.start(at=5.0)
    net.run(until=until)
    return net, net.node("s000").primary_address(), group


def _sg_entries(net, source, group):
    for router in sorted(net.routers(), key=lambda r: r.name):
        entry = router.pim.get_entry(source, group)
        if entry is not None:
            yield router, entry


@pytest.mark.parametrize("spec", [HIER, WAXMAN], ids=["hier", "waxman"])
def test_zero_fault_baseline_converges(spec):
    net, _, group = _converged_net(spec)
    verdict = evaluate_convergence(net, "s000", group)
    assert verdict["converged"], verdict["divergences"]
    assert verdict["live_links"] == verdict["reference_links"]
    assert verdict["member_links"] >= 1


def test_mutation_stale_oif_is_caught():
    """Clear a converged prune: the live tree floods a link the
    reference says was pruned off."""
    net, source, group = _converged_net(WAXMAN)
    mutated = False
    for router, entry in _sg_entries(net, source, group):
        for iface in router.interfaces:
            state = entry.downstream.get(iface.uid)
            if state is None or not state.pruned:
                continue
            if not router.pim.has_pim_neighbors(iface):
                continue  # un-pruning a stub iface adds no oif
            state.pruned = False
            mutated = True
            break
        if mutated:
            break
    assert mutated, "fixture never produced a pruned oif to corrupt"
    verdict = evaluate_convergence(net, "s000", group)
    rules = {d["rule"] for d in verdict["divergences"]}
    assert not verdict["converged"]
    assert "stale-oif" in rules


def test_mutation_lost_graft_is_caught():
    """Prune a reference-tree oif with no hold timer: downstream
    starves (unreached-link) and the residue is named (prune-stuck)."""
    net, source, group = _converged_net(HIER)
    reference_verdict = evaluate_convergence(net, "s000", group)
    assert reference_verdict["converged"]
    mutated = False
    for router, entry in _sg_entries(net, source, group):
        for iface in router.pim.outgoing_ifaces(entry):
            if not router.pim.has_pim_neighbors(iface):
                continue
            state = entry.downstream_state(iface)
            state.pruned = True
            mutated = True
            break
        if mutated:
            break
    assert mutated
    verdict = evaluate_convergence(net, "s000", group)
    rules = {d["rule"] for d in verdict["divergences"]}
    assert not verdict["converged"]
    assert "unreached-link" in rules
    assert "prune-stuck" in rules


def test_mutation_stale_rpf_is_caught():
    net, source, group = _converged_net(HIER)
    for router, entry in _sg_entries(net, source, group):
        others = [
            i for i in router.interfaces
            if i.attached and i is not entry.upstream_iface
        ]
        if entry.upstream_iface is not None and others:
            entry.upstream_iface = others[0]
            break
    verdict = evaluate_convergence(net, "s000", group)
    assert not verdict["converged"]
    assert "stale-rpf" in {d["rule"] for d in verdict["divergences"]}


def test_mutation_stuck_graft_is_caught():
    """pruned_upstream with live downstream interest and no retry
    timer running — the exact state the neighbor-up graft fix heals."""
    net, source, group = _converged_net(HIER)
    for router, entry in _sg_entries(net, source, group):
        if router.pim.outgoing_ifaces(entry) and not entry.pruned_upstream:
            entry.pruned_upstream = True
            break
    verdict = evaluate_convergence(net, "s000", group)
    assert not verdict["converged"]
    assert "graft-stuck" in {d["rule"] for d in verdict["divergences"]}


def test_oracle_reports_convergence_time():
    """Armed on a fault-free run the oracle converges and stamps the
    last state mutation relative to heal_at."""
    graph = topo_graph(HIER)
    built = build_network(
        graph,
        seed=0,
        pim_config=chaos_pim_config(),
        mld_config=chaos_mld_config(),
        mipv6_config=chaos_mipv6_config(),
    )
    group = built.make_group(1)
    source = built.place_source("s000")
    population = built.place_receivers(6)
    net = built.net
    oracle = ConvergenceOracle(flows=[("s000", group)], heal_at=0.0, settle=30.0)
    monitor = InvariantMonitor(net, oracles=[oracle], escalate=False).attach()
    traffic = make_traffic_model("packet")
    traffic.attach(net)
    net.start()
    built.schedule_joins(
        population, group, start=1.0, spread=4.0, stream="topogen.joins.g0"
    )
    flow = traffic.add_cbr(source, group, packet_interval=0.2, flow="flow-g0")
    flow.start(at=5.0)
    net.run(until=30.0)
    monitor.finalize()
    assert len(oracle.results) == 1
    verdict = oracle.results[0]
    assert verdict["converged"]
    assert verdict["convergence_time"] is not None
    assert 0.0 <= verdict["convergence_time"] <= 30.0
    assert monitor.violations == []


def test_mutation_event_set_excludes_sends():
    assert "entry-created" in STATE_MUTATION_EVENTS
    assert not any(name.endswith("-sent") for name in STATE_MUTATION_EVENTS)
