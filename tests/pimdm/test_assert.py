"""Tests for the PIM-DM assert process (parallel forwarders, §3.1)."""

import pytest

from repro.mld import MldHost
from repro.net import Address, ApplicationData, Host, Network
from repro.pimdm import MulticastRouter, PimDmConfig

GROUP = Address("ff1e::1")


def parallel_routers(seed=3, pim_config=None):
    """Source link -- (P1 || P2 in parallel) -- downstream LAN with a member.

    Both parallel routers forward onto the downstream LAN; the assert
    election must pick exactly one forwarder.
    """
    net = Network(seed=seed)
    l_up = net.add_link("UP", "2001:db8:a::/64")
    l_down = net.add_link("DOWN", "2001:db8:b::/64")
    p1 = MulticastRouter(net.sim, "P1", tracer=net.tracer, rng=net.rng,
                         pim_config=pim_config)
    p2 = MulticastRouter(net.sim, "P2", tracer=net.tracer, rng=net.rng,
                         pim_config=pim_config)
    for i, r in enumerate((p1, p2), start=1):
        r.attach_to(l_up, l_up.prefix.address_for_host(i))
        r.attach_to(l_down, l_down.prefix.address_for_host(i))
        net.register_node(r)
        net.on_start(r.start)
    sender = Host(net.sim, "S", tracer=net.tracer, rng=net.rng)
    sender.attach_to(l_up, l_up.prefix.address_for_host(100))
    member = Host(net.sim, "M", tracer=net.tracer, rng=net.rng)
    member.attach_to(l_down, l_down.prefix.address_for_host(100))
    net.register_node(sender)
    net.register_node(member)
    return net, (l_up, l_down), (p1, p2), sender, member


class TestAssertElection:
    def _run(self, net, sender, member, n=100):
        mld = MldHost(member)
        net.run(until=1.0)
        mld.join(GROUP)
        net.run(until=2.0)
        for k in range(n):
            net.sim.schedule_at(
                2.0 + 0.1 * k, sender.send_multicast, GROUP,
                ApplicationData(seqno=k),
            )
        net.run(until=2.0 + 0.1 * n + 2.0)
        return mld

    def test_asserts_are_sent(self):
        net, links, routers, sender, member = parallel_routers()
        self._run(net, sender, member)
        assert net.tracer.count("pim", event="assert-sent") >= 2

    def test_single_forwarder_elected(self):
        net, links, routers, sender, member = parallel_routers()
        self._run(net, sender, member)
        p1, p2 = routers
        src = sender.primary_address()
        forwarding = [r for r in routers if "DOWN" in r.pim.forwarding_links(src, GROUP)]
        assert len(forwarding) == 1

    def test_higher_address_wins_on_metric_tie(self):
        """Equal metrics: the numerically higher address keeps forwarding."""
        net, links, routers, sender, member = parallel_routers()
        self._run(net, sender, member)
        p1, p2 = routers  # P2 has the higher address (::2)
        src = sender.primary_address()
        assert "DOWN" in p2.pim.forwarding_links(src, GROUP)
        assert "DOWN" not in p1.pim.forwarding_links(src, GROUP)
        assert net.tracer.count("pim", event="assert-lost", node="P1") >= 1

    def test_duplicates_stop_after_election(self):
        net, links, routers, sender, member = parallel_routers()
        got = []
        member.on_app_data(lambda p, m: got.append(m.seqno))
        self._run(net, sender, member, n=100)
        # late packets arrive exactly once
        late = [s for s in got if s >= 50]
        assert len(late) == len(set(late))
        assert len(late) == 50

    def test_assert_loser_state_expires(self):
        cfg = PimDmConfig(assert_time=15.0)
        net, links, routers, sender, member = parallel_routers(pim_config=cfg)
        self._run(net, sender, member, n=50)  # ends ~t=9
        net.run(until=30.0)
        assert net.tracer.count("pim", event="assert-expired", node="P1") >= 1

    def test_downstream_stores_assert_winner(self):
        """A third router downstream of the LAN retargets its prune at the
        assert winner (paper §3.1: 'store the elected forwarder')."""
        net, links, routers, sender, member = parallel_routers()
        l_down = links[1]
        l_leaf = net.add_link("LEAF", "2001:db8:c::/64")
        d = MulticastRouter(net.sim, "D", tracer=net.tracer, rng=net.rng)
        d.attach_to(l_down, l_down.prefix.address_for_host(3))
        d.attach_to(l_leaf, l_leaf.prefix.address_for_host(3))
        net.register_node(d)
        net.on_start(d.start)
        self._run(net, sender, member, n=60)
        src = sender.primary_address()
        entry = d.pim.get_entry(src, GROUP)
        assert entry is not None
        # winner on the LAN is P2 (higher address, equal metric)
        p2_addr = l_down.prefix.address_for_host(2)
        assert entry.upstream_assert_winner == p2_addr
        assert entry.upstream_target() == p2_addr
        # D pruned the leaf earlier; a member joining there now grafts —
        # the graft must go to the elected forwarder, not the FIB next hop
        leaf_member = Host(net.sim, "LM", tracer=net.tracer, rng=net.rng)
        leaf_member.attach_to(l_leaf, l_leaf.prefix.address_for_host(100))
        net.register_node(leaf_member)
        leaf_mld = MldHost(leaf_member)
        leaf_mld.join(GROUP)
        net.run(until=net.now + 2.0)
        ev = net.tracer.first("pim", node="D", event="graft-sent")
        assert ev is not None and ev.detail["target"] == str(p2_addr)


def test_assert_stamps_leave_with_their_entry():
    """An expired (S,G) entry drops its assert rate-limit stamps.

    A local-sending S moves six times, 240 s apart, so each old (S,G)
    entry expires after its 210 s data timeout.  Routers B and C assert
    at every move; they must keep stamps only for the live entry.
    """
    from repro.core import LOCAL_MEMBERSHIP, PaperScenario, ScenarioConfig

    sc = PaperScenario(
        ScenarioConfig(approach=LOCAL_MEMBERSHIP, packet_interval=0.5)
    )
    sc.converge()
    for k, link in enumerate(("L6", "L2", "L5", "L1", "L6", "L2")):
        sc.move("S", link, at=40.0 + 240.0 * k)
    sc.run_until(40.0 + 240.0 * 6)
    for name in ("B", "C"):
        engine = sc.paper.router(name).pim
        assert engine._last_assert_sent, name
        stale = [k for k, _ in engine._last_assert_sent if k not in engine.entries]
        assert not stale, (name, len(engine._last_assert_sent), len(engine.entries))
