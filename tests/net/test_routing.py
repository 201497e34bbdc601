"""Unit tests for FIB computation, verified against networkx."""

import ipaddress

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    Address,
    Network,
    Prefix,
    RouteEntry,
    RoutingTable,
    compute_router_fibs,
)
from repro.net.topogen import build_network, topo_graph
from repro.pimdm import MulticastRouter

from topo_helpers import build_line


class FakeIface:
    link = None


class TestRoutingTable:
    def _entry(self, prefix, metric=1):
        return RouteEntry(Prefix(prefix), FakeIface(), None, metric)

    def test_lookup_match(self):
        t = RoutingTable()
        e = self._entry("2001:db8:1::/64")
        t.install(e)
        assert t.lookup(Address("2001:db8:1::5")) is e

    def test_lookup_miss(self):
        t = RoutingTable()
        t.install(self._entry("2001:db8:1::/64"))
        assert t.lookup(Address("2001:db8:2::5")) is None

    def test_longest_prefix_wins(self):
        t = RoutingTable()
        short = self._entry("2001:db8::/32")
        long = self._entry("2001:db8:1::/64")
        t.install(short)
        t.install(long)
        assert t.lookup(Address("2001:db8:1::5")) is long
        assert t.lookup(Address("2001:db8:2::5")) is short

    def test_remove(self):
        t = RoutingTable()
        t.install(self._entry("2001:db8:1::/64"))
        t.remove(Prefix("2001:db8:1::/64"))
        assert t.lookup(Address("2001:db8:1::5")) is None

    def test_replace_same_prefix(self):
        t = RoutingTable()
        t.install(self._entry("2001:db8:1::/64", metric=5))
        newer = self._entry("2001:db8:1::/64", metric=1)
        t.install(newer)
        assert len(t) == 1
        assert t.lookup(Address("2001:db8:1::1")).metric == 1

    def test_connected_flag(self):
        e = self._entry("2001:db8:1::/64")
        assert e.connected


class TestFibComputation:
    def test_line_metrics(self):
        topo = build_line(3)  # L0 -R0- L1 -R1- L2 -R2- L3
        topo.net.build_routes()
        r0 = topo.routers[0]
        assert r0.routing.lookup(Address("2001:db8:1::99")).metric == 1
        assert r0.routing.lookup(Address("2001:db8:3::99")).metric == 2
        assert r0.routing.lookup(Address("2001:db8:4::99")).metric == 3

    def test_line_next_hops(self):
        topo = build_line(3)
        topo.net.build_routes()
        r0 = topo.routers[0]
        entry = r0.routing.lookup(Address("2001:db8:4::99"))
        # next hop toward L3 is R1's address on the shared link L1
        assert entry.next_hop == topo.links[1].prefix.address_for_host(2)

    def test_connected_prefixes_have_no_next_hop(self):
        topo = build_line(2)
        topo.net.build_routes()
        for router in topo.routers:
            for iface in router.interfaces:
                entry = router.routing.lookup(
                    iface.link.prefix.address_for_host(250)
                )
                assert entry.connected
                assert entry.metric == 1

    def test_rebuild_is_idempotent(self):
        topo = build_line(2)
        topo.net.build_routes()
        before = {
            (r.name, str(e.prefix)): (e.metric, str(e.next_hop))
            for r in topo.routers
            for e in r.routing.entries()
        }
        topo.net.build_routes()
        after = {
            (r.name, str(e.prefix)): (e.metric, str(e.next_hop))
            for r in topo.routers
            for e in r.routing.entries()
        }
        assert before == after

    def test_metrics_match_networkx(self):
        """Cross-check hop metrics on the paper topology against networkx."""
        from repro.core import ROUTER_LINKS, build_paper_network

        paper = build_paper_network(seed=0)
        paper.net.build_routes()

        g = nx.Graph()
        for router, links in ROUTER_LINKS.items():
            for link in links:
                g.add_edge(f"r:{router}", f"l:{link}")

        for rname, router in paper.routers.items():
            for lname in paper.net.links:
                expected = nx.shortest_path_length(g, f"r:{rname}", f"l:{lname}") // 2 + (
                    0 if f"l:{lname}" in g[f"r:{rname}"] else 0
                )
                # networkx path alternates router/link nodes; hops in links
                # = (path_len+1)//2
                path_len = nx.shortest_path_length(g, f"r:{rname}", f"l:{lname}")
                expected = (path_len + 1) // 2
                entry = router.routing.lookup(
                    paper.net.link(lname).prefix.address_for_host(200)
                )
                assert entry is not None, (rname, lname)
                assert entry.metric == expected, (rname, lname)

    def test_paper_topology_rpf_toward_link1(self):
        """All routers reach Link 1 through the expected interfaces."""
        from repro.core import build_paper_network

        paper = build_paper_network(seed=0)
        paper.net.build_routes()
        target = paper.net.link("L1").prefix.address_for_host(100)
        assert paper.routers["A"].routing.lookup(target).connected
        for name in ("B", "C"):
            entry = paper.routers[name].routing.lookup(target)
            assert entry.iface.link.name == "L2"
            assert entry.metric == 2
        for name in ("D", "E"):
            entry = paper.routers[name].routing.lookup(target)
            assert entry.iface.link.name == "L3"
            assert entry.metric == 3


# ----------------------------------------------------------------------
# longest-prefix match against a brute-force reference
# ----------------------------------------------------------------------
# A few high words and small low words, so prefixes of different
# lengths overlap and addresses often fall in several of them.
_values = st.builds(
    lambda top, a, b, low: (top << 96) | (a << 80) | (b << 64) | low,
    st.sampled_from([0x20010DB8, 0x20010DB9]),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 3),
)
_prefixes = st.builds(
    lambda value, plen: Prefix(
        ipaddress.IPv6Network(((value >> (128 - plen)) << (128 - plen), plen))
    ),
    _values,
    st.sampled_from([0, 32, 48, 64, 128]),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), _prefixes, st.integers(1, 9)),
        st.tuples(st.just("remove"), _prefixes),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)


def _reference_lookup(reference, value):
    best = None
    address = ipaddress.IPv6Address(value)
    for prefix, entry in reference.items():
        if address in ipaddress.IPv6Network(str(prefix)):
            if best is None or prefix.prefix_len > best.prefix.prefix_len:
                best = entry
    return best


class TestLongestPrefixMatchProperty:
    @settings(max_examples=200, deadline=None)
    @given(_ops, st.lists(_values, min_size=1, max_size=8))
    def test_lookup_matches_brute_force(self, ops, probes):
        table = RoutingTable()
        reference = {}
        for op in ops:
            if op[0] == "install":
                entry = RouteEntry(op[1], FakeIface(), None, op[2])
                table.install(entry)
                reference[op[1]] = entry
            elif op[0] == "remove":
                table.remove(op[1])
                reference.pop(op[1], None)
            else:
                table.clear()
                reference.clear()
            for value in probes:
                assert table.lookup(Address(value)) is _reference_lookup(reference, value)
            assert len(table) == len(reference)
            assert {e.prefix: e for e in table.entries()} == reference


# ----------------------------------------------------------------------
# FIBs on generated topologies against networkx
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec",
    [{"model": "hier", "depth": 2, "fanout": 3}, {"model": "waxman", "n": 20, "seed": 3}],
    ids=["hier-2x3", "waxman-20"],
)
def test_generated_topology_fibs_match_networkx(spec):
    net = build_network(topo_graph(spec)).net
    routers = net.routers()
    links = list(net.links.values())
    net.build_routes()
    assert compute_router_fibs(routers, links) is None

    g = nx.Graph()
    for router in routers:
        for iface in router.interfaces:
            g.add_edge(f"r:{router.name}", f"l:{iface.link.name}")
    fib = {
        router.name: {str(e.prefix): e for e in router.routing.entries()}
        for router in routers
    }

    for router in routers:
        lengths = nx.single_source_shortest_path_length(g, f"r:{router.name}")
        for link in links:
            entry = fib[router.name][str(link.prefix)]
            # the path alternates router and link nodes
            assert entry.metric == (lengths[f"l:{link.name}"] + 1) // 2, (router.name, link.name)
            assert router.routing.lookup(link.prefix.address_for_host(200)) is entry
            if entry.connected:
                assert entry.metric == 1 and entry.iface.link is link
                continue
            upstream = [
                iface.node
                for iface in entry.iface.link.interfaces
                if iface.node.is_router and entry.next_hop in iface.addresses
            ]
            assert len(upstream) == 1, (router.name, link.name)
            assert not entry.next_hop.is_link_local
            assert fib[upstream[0].name][str(link.prefix)].metric == entry.metric - 1


def _line_with_stub(stub_links):
    """The 2-router line plus router RX with no address, attached to L2
    and to ``stub_links`` extra links that no other router is on."""
    topo = build_line(2)
    stub = MulticastRouter(topo.net.sim, "RX", tracer=topo.net.tracer, rng=topo.net.rng)
    stub.attach_to(topo.links[2])
    for i in range(stub_links):
        stub.attach_to(topo.net.add_link(f"S{i}", f"2001:db8:f{i}::/64"))
    topo.net.register_node(stub)
    return topo


def test_addressless_router_is_fine_when_no_path_leaves_through_it():
    topo = _line_with_stub(0)
    topo.net.build_routes()
    entry = topo.net.node("RX").routing.lookup(Address("2001:db8:1::99"))
    assert entry.metric == 3
    assert entry.next_hop == topo.links[2].prefix.address_for_host(2)


def test_addressless_router_raises_when_a_path_leaves_through_it():
    topo = _line_with_stub(1)
    with pytest.raises(ValueError, match="RX has no global address on L2"):
        topo.net.build_routes()
