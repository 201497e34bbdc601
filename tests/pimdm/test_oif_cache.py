"""The cached oif list of ``PimDmEngine.outgoing_ifaces``.

The engine caches each entry's oif tuple under a stamp of everything
the oif rule reads: the engine's neighbor/membership version, the
upstream interface, and the pruned and assert-loser masks.  A Hypothesis
state machine drives one router through every way that state changes —
Hellos, neighbor expiry, MLD Report/Done/expiry, Prune, Graft, Assert,
data on either side of the RPF check, a direct ``upstream_iface``
reassignment, crash and restart — and after every step compares each
entry's cached tuple with the rule evaluated live.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.mld.messages import MldDone, MldReport
from repro.net import Address, ApplicationData, Ipv6Packet, Network
from repro.net.addressing import ALL_PIM_ROUTERS
from repro.pimdm import MulticastRouter, PimDmConfig
from repro.pimdm.messages import PimAssert, PimGraft, PimHello, PimPrune

GROUP = Address("ff1e::1")
N_LINKS = 4
#: short timers so time steps cross holdtimes, prune windows and T_MLI
PIM = PimDmConfig(hello_period=5.0, hello_holdtime=12.0, data_timeout=40.0,
                  prune_hold_time=20.0, assert_time=15.0)


def uncached_oifs(pim, entry):
    """The oif rule, evaluated live."""
    result = []
    for iface in pim.node.interfaces:
        if not iface.attached or iface is entry.upstream_iface:
            continue
        ds = entry.downstream.get(iface.uid)
        if ds is not None and ds.assert_loser:
            continue
        if pim.mld is not None and pim.mld.has_members(iface, entry.group):
            result.append(iface)
            continue
        if pim.has_pim_neighbors(iface) and not (ds is not None and ds.pruned):
            result.append(iface)
    return result


links = st.integers(min_value=0, max_value=N_LINKS - 1)
peers = st.integers(min_value=10, max_value=11)
sources = st.integers(min_value=0, max_value=1)


class OifCacheMachine(RuleBasedStateMachine):
    """Router R on links L0..L3; sources S0 on L0 and S1 on L1."""

    def __init__(self):
        super().__init__()
        self.net = Network(seed=3)
        self.links = [
            self.net.add_link(f"L{i}", f"2001:db8:{i + 1:x}::/64")
            for i in range(N_LINKS)
        ]
        self.router = MulticastRouter(
            self.net.sim, "R", tracer=self.net.tracer, rng=self.net.rng,
            pim_config=PIM,
        )
        for link in self.links:
            self.router.attach_to(link, link.prefix.address_for_host(1))
        self.net.register_node(self.router)
        self.net.on_start(self.router.start)
        self.net.start()
        self.pim = self.router.pim

    # -- helpers ---------------------------------------------------------
    def _addr(self, link, host_id):
        return self.links[link].prefix.address_for_host(host_id)

    def _receive(self, link, src, dst, message):
        self.router.receive(
            Ipv6Packet(src, dst, message, hop_limit=1 if dst != GROUP else 64),
            self.router.iface_on(self.links[link]),
        )

    def _source(self, index):
        return self._addr(index, 100)

    def _entry(self, index):
        return self.pim.get_entry(self._source(index), GROUP)

    # -- protocol steps --------------------------------------------------
    @rule(link=links, peer=peers)
    def hello(self, link, peer):
        self._receive(link, self._addr(link, peer), ALL_PIM_ROUTERS,
                      PimHello(PIM.hello_holdtime))

    @rule(link=links, source=sources)
    def data(self, link, source):
        """Data from a source, on its RPF link or elsewhere (assert)."""
        self._receive(link, self._source(source), GROUP,
                      ApplicationData(seqno=0))

    @rule(link=links, host=st.integers(min_value=50, max_value=51))
    def mld_report(self, link, host):
        self._receive(link, self._addr(link, host), GROUP, MldReport(GROUP))

    @rule(link=links)
    def mld_done(self, link):
        self._receive(link, self._addr(link, 50), GROUP, MldDone(GROUP))

    @rule(link=links, peer=peers, source=sources)
    def prune(self, link, peer, source):
        message = PimPrune(source=self._source(source), group=GROUP,
                           upstream_neighbor=self._addr(link, 1),
                           holdtime=PIM.prune_hold_time)
        self._receive(link, self._addr(link, peer), ALL_PIM_ROUTERS, message)

    @rule(link=links, peer=peers, source=sources)
    def graft(self, link, peer, source):
        message = PimGraft(source=self._source(source), group=GROUP)
        self._receive(link, self._addr(link, peer), self._addr(link, 1), message)

    @rule(link=links, peer=peers, source=sources, metric=st.integers(0, 3))
    def assert_(self, link, peer, source, metric):
        """Peers outrank R's ``::1`` on a metric tie, so a metric at or
        below R's wins the election and one above it loses."""
        message = PimAssert(source=self._source(source), group=GROUP, metric=metric)
        self._receive(link, self._addr(link, peer), ALL_PIM_ROUTERS, message)

    @rule(source=sources, link=links, to_oif=st.booleans())
    def reassign_upstream(self, source, link, to_oif):
        """An RPF change: the upstream moves to another link, or onto
        the first current oif."""
        entry = self._entry(source)
        if entry is None:
            return
        oifs = self.pim.outgoing_ifaces(entry)
        if to_oif and oifs:
            entry.upstream_iface = oifs[0]
        else:
            entry.upstream_iface = self.router.iface_on(self.links[link])

    @rule()
    def crash(self):
        if not self.router.crashed:
            self.router.crash()

    @rule()
    def restart(self):
        if self.router.crashed:
            self.router.restart()

    @rule(dt=st.sampled_from([0.5, 2.5, 4.0, 13.0, 30.0]))
    def advance(self, dt):
        """Let timers fire: neighbor and membership expiry, prune
        windows and holds, assert expiry, entry timeout."""
        self.net.run(until=self.net.now + dt)

    # -- the property ----------------------------------------------------
    @invariant()
    def cached_oifs_match_the_rule(self):
        for entry in list(self.pim.entries.values()):
            oifs = self.pim.outgoing_ifaces(entry)
            assert isinstance(oifs, tuple)
            assert list(oifs) == uncached_oifs(self.pim, entry)


OifCacheMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None, derandomize=True
)
TestOifCache = OifCacheMachine.TestCase


class TestEachStampPart:
    """Every input of the oif rule, changed on its own after the tuple
    was cached, yields a fresh tuple."""

    @staticmethod
    def cached(changes):
        m = OifCacheMachine()
        m.hello(2, 10)  # a PIM neighbor on L2 makes L2 an oif
        m.data(0, 0)  # (S0, G) with L0 upstream
        entry = m._entry(0)
        before = m.pim.outgoing_ifaces(entry)
        assert [i.link.name for i in before] == ["L2"]
        changes(m)
        after = m.pim.outgoing_ifaces(entry)
        assert after == tuple(uncached_oifs(m.pim, entry))
        return [i.link.name for i in after]

    def test_new_neighbor(self):
        assert self.cached(lambda m: m.hello(3, 10)) == ["L2", "L3"]

    def test_neighbor_expiry(self):
        assert self.cached(lambda m: m.advance(13.0)) == []

    def test_membership_report_and_expiry(self):
        assert self.cached(lambda m: m.mld_report(1, 50)) == ["L1", "L2"]
        assert self.cached(
            lambda m: (m.mld_report(1, 50), m.mld_done(1), m.advance(2.5))
        ) == ["L2"]

    def test_prune(self):
        assert self.cached(lambda m: (m.prune(2, 10, 0), m.advance(4.0))) == []

    def test_assert_loss(self):
        assert self.cached(lambda m: m.assert_(2, 10, 0, metric=0)) == []

    def test_upstream_change(self):
        assert self.cached(lambda m: m.reassign_upstream(0, 2, to_oif=True)) == []
