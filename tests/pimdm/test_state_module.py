"""Unit tests for the (S,G) state structures."""

import pytest

from repro.net import Address
from repro.net.interface import Interface
from repro.net.node import Node
from repro.pimdm.state import DownstreamTable, SgEntry, sg_key
from repro.sim import Simulator, Timer

S = Address("2001:db8:1::64")
G = Address("ff1e::1")


def make_iface(sim):
    node = Node(sim, "N")
    return node.new_interface()


class TestSgKey:
    def test_same_pair_same_key(self):
        assert sg_key(S, G) == sg_key(Address(str(S)), Address(str(G)))

    def test_different_pairs_differ(self):
        assert sg_key(S, G) != sg_key(S, Address("ff1e::2"))
        assert sg_key(S, G) != sg_key(Address("2001:db8:1::65"), G)

    def test_usable_as_dict_key(self):
        d = {sg_key(S, G): 1}
        assert d[sg_key(S, G)] == 1


class TestDownstreamState:
    def _state(self, sim):
        table = DownstreamTable()
        return table, table.state_for(make_iface(sim))

    def test_prune_pending_reflects_timer(self, sim):
        _, ds = self._state(sim)
        assert not ds.prune_pending
        ds.prune_pending_timer = Timer(sim, lambda: None)
        ds.prune_pending_timer.start(3.0)
        assert ds.prune_pending
        sim.run()
        assert not ds.prune_pending

    def test_clear_prune_resets_everything(self, sim):
        table, ds = self._state(sim)
        ds.pruned = True
        assert ds.iface.uid in table.pruned_oifs
        ds.prune_hold_timer = Timer(sim, lambda: None)
        ds.prune_hold_timer.start(10.0)
        ds.clear_prune()
        assert not ds.pruned
        assert not table.pruned_oifs
        assert ds.prune_hold_timer is None
        assert ds.prune_pending_timer is None

    def test_clear_assert(self, sim):
        table, ds = self._state(sim)
        ds.assert_loser = True
        assert ds.iface.uid in table.assert_loser_oifs
        ds.assert_winner = Address("2001:db8:2::1")
        ds.assert_winner_metric = 2
        ds.assert_timer = Timer(sim, lambda: None)
        ds.assert_timer.start(180.0)
        ds.clear_assert()
        assert not ds.assert_loser
        assert not table.assert_loser_oifs
        assert ds.assert_winner is None
        assert ds.assert_timer is None


class TestSgEntry:
    def _entry(self, sim):
        iface = make_iface(sim)
        return SgEntry(
            source=S, group=G, upstream_iface=iface,
            upstream_neighbor=Address("2001:db8:2::1"), metric_to_source=2,
        )

    def test_key_property(self, sim):
        entry = self._entry(sim)
        assert entry.key == sg_key(S, G)

    def test_downstream_state_created_on_demand(self, sim):
        entry = self._entry(sim)
        iface = make_iface(sim)
        ds = entry.downstream_state(iface)
        assert ds.iface is iface
        assert entry.downstream_state(iface) is ds  # cached
        assert entry.downstream.get(iface.uid) is ds

    def test_upstream_target_prefers_assert_winner(self, sim):
        entry = self._entry(sim)
        assert entry.upstream_target() == Address("2001:db8:2::1")
        winner = Address("2001:db8:2::9")
        entry.upstream_assert_winner = winner
        assert entry.upstream_target() == winner

    def test_upstream_target_none_for_first_hop(self, sim):
        iface = make_iface(sim)
        entry = SgEntry(source=S, group=G, upstream_iface=iface,
                        upstream_neighbor=None)
        assert entry.upstream_target() is None

    def test_stop_all_timers(self, sim):
        entry = self._entry(sim)
        entry.entry_timer = Timer(sim, lambda: None)
        entry.entry_timer.start(210.0)
        entry.graft_retry_timer = Timer(sim, lambda: None)
        entry.graft_retry_timer.start(3.0)
        ds = entry.downstream_state(make_iface(sim))
        ds.prune_hold_timer = Timer(sim, lambda: None)
        ds.prune_hold_timer.start(210.0)
        ds.pruned = True
        entry.stop_all_timers()
        assert not entry.entry_timer.running
        assert not entry.graft_retry_timer.running
        assert sim.events_pending == 0
