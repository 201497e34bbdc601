"""Each oracle must actually fire: seed one violation per rule.

Every test runs a real Figure 1 scenario with a deliberately broken
protocol component (a suppressed retransmission, a corrupted cache
entry, a mutated event) and asserts the matching oracle rule reports
it.  The adversarial counterpart of ``test_zero_violations.py``.
"""

import pytest

from repro.core import LOCAL_MEMBERSHIP, BIDIRECTIONAL_TUNNEL
from repro.core.scenario import PaperScenario, ScenarioConfig
from repro.invariants import (
    InvariantMonitor,
    InvariantViolationError,
    KernelSanityOracle,
)
from repro.mipv6.mobile_node import MobileNode
from repro.net import Address
from repro.pimdm.router import PimDmEngine


def rules(monitor):
    return [v.rule for v in monitor.violations]


def scenario_with_monitor(approach, **kwargs):
    sc = PaperScenario(ScenarioConfig(approach=approach, **kwargs))
    return sc, InvariantMonitor(sc.net).attach()


# ----------------------------------------------------------------------
# PIM-DM oracle
# ----------------------------------------------------------------------

def rogue_outgoing_ifaces(self, entry):
    """A broken oif computation that ignores prune and assert state."""
    return [
        iface
        for iface in self.node.interfaces
        if iface.attached
        and iface is not entry.upstream_iface
        and (
            self._has_local_members(iface, entry.group)
            or self.has_pim_neighbors(iface)
        )
    ]


class TestPimDmOracle:
    def test_forward_on_pruned_oif(self, monkeypatch):
        sc, monitor = scenario_with_monitor(LOCAL_MEMBERSHIP)
        sc.converge()  # flood-and-prune leaves pruned oifs behind
        assert sc.metrics.prune_count() > 0
        monkeypatch.setattr(PimDmEngine, "outgoing_ifaces", rogue_outgoing_ifaces)
        sc.run_for(5.0)  # CBR traffic now floods the pruned branches
        assert "forward-on-pruned-oif" in rules(monitor)

    def test_graft_never_acked_or_retried(self, monkeypatch):
        original = PimDmEngine._graft_upstream

        def graft_without_retry(self, entry):
            original(self, entry)
            if entry.graft_retry_timer is not None:
                entry.graft_retry_timer.stop()  # retransmission suppressed

        monkeypatch.setattr(PimDmEngine, "_graft_upstream", graft_without_retry)
        # Patched before the routers are built: _on_graft is registered
        # as a message handler at engine construction time.
        monkeypatch.setattr(
            PimDmEngine, "_on_graft", lambda self, packet, graft, iface: None
        )
        sc, monitor = scenario_with_monitor(LOCAL_MEMBERSHIP)
        sc.converge()
        sc.move("R3", "L6", at=40.0)  # rejoin off-tree: the router grafts
        sc.run_until(60.0)
        monitor.finalize()
        assert "graft-unacked" in rules(monitor)

    def test_graft_lost_to_fault_plan_without_retry(self, monkeypatch):
        """PR 3 fault plans as the adversarial harness: a link outage
        eats the Graft in flight, and with retransmission suppressed
        the oracle flags the broken liveness machinery (with the retry
        timer intact the same fault plan recovers cleanly)."""
        from repro.faults import FaultInjector, FaultPlan, link_down

        original = PimDmEngine._graft_upstream

        def graft_without_retry(self, entry):
            original(self, entry)
            if entry.graft_retry_timer is not None:
                entry.graft_retry_timer.stop()

        monkeypatch.setattr(PimDmEngine, "_graft_upstream", graft_without_retry)
        sc, monitor = scenario_with_monitor(LOCAL_MEMBERSHIP)
        # The outage covers router E's upstream link exactly when the
        # post-handoff Graft crosses it (t ~ 41.6).
        FaultInjector(
            sc.net, FaultPlan(link_down(41.5, "L3", duration=2.0))
        ).arm()
        sc.converge()
        sc.move("R3", "L6", at=40.0)
        sc.run_until(60.0)
        monitor.finalize()
        assert "graft-unacked" in rules(monitor)

    def test_forward_while_assert_loser(self):
        sc, monitor = scenario_with_monitor(LOCAL_MEMBERSHIP)
        sc.converge()
        # Pick a (router, link) actually on the forwarding tree and claim
        # the router lost an assert election there; it keeps forwarding.
        tree = sc.current_tree()
        node = next(name for name, links in tree.items() if links)
        link = tree[node][0]
        iface = next(
            i for i in sc.net.nodes[node].interfaces
            if i.link is not None and i.link.name == link
        )
        source = str(sc.paper.host("S").home_address)
        sc.net.tracer.record(
            "pim", node, event="assert-lost", iface=iface.name,
            winner="fe80::beef", source=source, group=str(sc.group),
        )
        sc.run_for(3.0)
        assert "forward-while-assert-loser" in rules(monitor)

    def test_parallel_forwarders_persist(self):
        sc, monitor = scenario_with_monitor(LOCAL_MEMBERSHIP)
        sc.converge()
        source, group = str(sc.paper.host("S").home_address), str(sc.group)

        def duplicate(uid, node):
            sc.net.tracer.record(
                "mcast.forward", node, source=source, group=group,
                links=["L2"], uid=uid,
            )

        # Two routers forward the same datagram onto L2 every half
        # second for 7 s: an assert election that never converges.
        t0 = sc.now
        for k in range(14):
            sc.net.sim.schedule_at(t0 + 0.5 * k, duplicate, 9000 + k, "A")
            sc.net.sim.schedule_at(t0 + 0.5 * k + 0.01, duplicate, 9000 + k, "B")
        sc.run_for(8.0)
        assert "parallel-forwarders-persist" in rules(monitor)


# ----------------------------------------------------------------------
# MLD oracle
# ----------------------------------------------------------------------

class TestMldOracle:
    def test_stale_listener_state(self):
        sc, monitor = scenario_with_monitor(LOCAL_MEMBERSHIP)
        sc.converge()
        sc.move("R3", "L6", at=40.0)

        def freeze_membership():
            d = sc.paper.router("D")
            for record in d.mld_router._memberships.values():
                link = record.iface.link
                if link is not None and link.name == "L4" and record.active:
                    record.timer.restart(1e6)  # expiry machinery broken

        sc.net.sim.schedule_at(45.0, freeze_membership)
        # Past T_MLI + response slack the orphaned belief is illegal.
        sc.run_until(40.0 + 260.0 + 10.0 + 30.0)
        monitor.finalize()
        assert "stale-listener-state" in rules(monitor)

    def test_legal_leave_window_is_not_a_violation(self):
        sc, monitor = scenario_with_monitor(LOCAL_MEMBERSHIP)
        sc.converge()
        sc.move("R3", "L6", at=40.0)
        sc.run_until(40.0 + 260.0 + 30.0)  # natural expiry path
        monitor.finalize()
        assert monitor.violations == []


# ----------------------------------------------------------------------
# MIPv6 oracle
# ----------------------------------------------------------------------

class TestMipv6Oracle:
    def test_tunnel_stale_coa_after_cache_corruption(self):
        sc, monitor = scenario_with_monitor(BIDIRECTIONAL_TUNNEL)
        sc.converge()
        sc.move("R3", "L6", at=40.0)
        sc.run_until(50.0)

        def corrupt_binding():
            d = sc.paper.router("D")
            entry = d.binding_cache.get(sc.paper.host("R3").home_address)
            assert entry is not None
            entry.care_of_address = Address("2001:db8:bad::9")

        sc.net.sim.schedule_at(52.0, corrupt_binding)
        sc.run_until(60.0)
        assert "tunnel-stale-coa" in rules(monitor)

    def test_tunnel_to_mobile_that_is_home(self, monkeypatch):
        sc, monitor = scenario_with_monitor(BIDIRECTIONAL_TUNNEL)
        sc.converge()
        sc.move("R3", "L6", at=40.0)
        sc.run_until(55.0)
        # Deregistration lost forever: the HA's binding outlives the
        # mobile's return home, so it keeps tunneling to a home node.
        monkeypatch.setattr(
            MobileNode, "_send_binding_update", lambda self, *a, **k: None
        )
        sc.move("R3", "L4", at=56.0)
        sc.run_until(70.0)
        assert "tunnel-to-home-mn" in rules(monitor)

    def test_binding_registered_for_unconfigured_coa(self):
        sc, monitor = scenario_with_monitor(BIDIRECTIONAL_TUNNEL)
        sc.converge()
        home = str(sc.paper.host("R3").home_address)
        sc.net.tracer.record(
            "mipv6", "D", event="binding-registered",
            home=home, coa="2001:db8:ffff::9",
        )
        assert "binding-coa-unknown" in rules(monitor)

    def test_binding_sequence_regression(self):
        sc, monitor = scenario_with_monitor(BIDIRECTIONAL_TUNNEL)
        sc.converge()
        sc.move("R3", "L6", at=40.0)
        sc.run_until(50.0)  # real BU acked, sequence recorded
        d = sc.paper.router("D")
        entry = d.binding_cache.get(sc.paper.host("R3").home_address)
        assert entry is not None
        entry.sequence = -1  # an older BU overwrote a newer one
        sc.net.tracer.record(
            "mipv6", "D", event="binding-refreshed",
            home=str(entry.home_address), coa=str(entry.care_of_address),
        )
        assert "binding-sequence-regressed" in rules(monitor)


# ----------------------------------------------------------------------
# kernel oracle
# ----------------------------------------------------------------------

class TestKernelOracle:
    def test_time_regression_from_mutated_event(self):
        sc = PaperScenario(ScenarioConfig(approach=LOCAL_MEMBERSHIP))
        monitor = InvariantMonitor(sc.net).attach()
        sim = sc.net.sim
        sim.schedule_at(5.0, lambda: None, label="ok")
        rogue = sim.schedule_at(10.0, lambda: None, label="rogue")
        rogue.time = 1.0  # mutated after scheduling: heap disagrees
        sim.run(until=20.0)
        assert "time-regression" in rules(monitor)

    def test_fired_after_cancel_and_double_dispatch(self):
        sc = PaperScenario(ScenarioConfig(approach=LOCAL_MEMBERSHIP))
        monitor = InvariantMonitor(sc.net).attach()
        oracle = next(
            o for o in monitor.oracles if isinstance(o, KernelSanityOracle)
        )
        cancelled = sc.net.sim.schedule_at(1.0, lambda: None, label="ghost")
        cancelled.cancel()
        oracle.on_dispatch(cancelled)
        assert "fired-after-cancel" in rules(monitor)
        twice = sc.net.sim.schedule_at(2.0, lambda: None, label="again")
        twice.dispatched = True
        oracle.on_dispatch(twice)
        assert "double-dispatch" in rules(monitor)


# ----------------------------------------------------------------------
# escalate mode
# ----------------------------------------------------------------------

def test_escalate_mode_raises_immediately():
    sc = PaperScenario(ScenarioConfig(approach=LOCAL_MEMBERSHIP))
    monitor = InvariantMonitor(sc.net, escalate=True).attach()
    with pytest.raises(InvariantViolationError) as excinfo:
        sc.net.tracer.record(
            "mipv6", "D", event="binding-registered",
            home=str(sc.paper.host("R3").home_address), coa="2001:db8:ffff::1",
        )
    assert excinfo.value.violations[0].rule == "binding-coa-unknown"
    assert monitor.violations  # recorded before the raise


def test_violation_emits_trace_event_and_counter():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    sc = PaperScenario(ScenarioConfig(approach=LOCAL_MEMBERSHIP))
    monitor = InvariantMonitor(sc.net, registry=registry).attach()
    sc.net.tracer.record(
        "mipv6", "D", event="binding-registered",
        home=str(sc.paper.host("R3").home_address), coa="2001:db8:ffff::1",
    )
    assert monitor.violations
    events = list(sc.net.tracer.query(category="invariant.violation"))
    assert events and events[0].detail["rule"] == "binding-coa-unknown"
    text = registry.render_prometheus()
    assert "repro_invariant_violations" in text
