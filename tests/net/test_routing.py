"""Unit tests for FIB computation, verified against networkx and
against a name-keyed reference builder."""

import gc
import ipaddress
import re

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    Address,
    Network,
    Node,
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


# ----------------------------------------------------------------------
# routes identical to the name-keyed reference builder
# ----------------------------------------------------------------------
def _reference_fibs(routers, links, tables=None):
    """Name-keyed shortest-path FIBs: one BFS per destination link over
    router and link names, ties broken by link then router name,
    installing one ``RouteEntry`` per reached router in BFS order.

    Installs into ``tables`` (router name -> RoutingTable), fresh empty
    tables by default, and returns them.
    """
    if tables is None:
        tables = {r.name: RoutingTable() for r in routers}
    routers_by_name = {r.name: r for r in routers}
    iface_on = {}
    for router in routers:
        for iface in router.interfaces:
            if iface.link is not None:
                iface_on.setdefault((router.name, iface.link.name), iface)

    router_names_on_link = {}
    for link in links:
        router_names_on_link[link.name] = sorted(
            iface.node.name
            for iface in link.interfaces
            if iface.node.name in routers_by_name
        )

    attachments = {}
    for router in routers:
        attached = sorted(
            (iface.link for iface in router.interfaces if iface.link is not None),
            key=lambda link: link.name,
        )
        attachments[router.name] = [
            (link, router_names_on_link[link.name]) for link in attached
        ]

    next_hops = {}
    for dest_link in links:
        frontier = router_names_on_link[dest_link.name]
        reached = {
            name: (1, iface_on[(name, dest_link.name)], None) for name in frontier
        }
        while frontier:
            next_frontier = []
            for name in frontier:
                metric = reached[name][0] + 1
                for link, neighbours in attachments[name]:
                    if link is dest_link:
                        continue
                    next_hop = None
                    for neigh_name in neighbours:
                        if neigh_name in reached:
                            continue
                        if next_hop is None:
                            key = (name, link.name)
                            next_hop = next_hops.get(key)
                            if next_hop is None:
                                next_hop = next_hops[key] = _reference_global_address(
                                    iface_on[key]
                                )
                        reached[neigh_name] = (
                            metric,
                            iface_on[(neigh_name, link.name)],
                            next_hop,
                        )
                        next_frontier.append(neigh_name)
            frontier = sorted(next_frontier)

        for name, (metric, iface, next_hop) in reached.items():
            tables[name].install(RouteEntry(dest_link.prefix, iface, next_hop, metric))
    return tables


def _reference_global_address(iface):
    for addr in iface.addresses:
        if not addr.is_link_local and not addr.is_multicast:
            return addr
    raise ValueError(f"{iface.node.name} has no global address on {iface.link.name}")


def _rows(entries):
    return [(str(e.prefix), e.iface.name, str(e.next_hop), e.metric) for e in entries]


def _generated(spec):
    return lambda: build_network(topo_graph(spec)).net


def _paper():
    from repro.core import build_paper_network

    return build_paper_network(seed=0).net


@pytest.mark.parametrize(
    "make_net",
    [
        _generated({"model": "figure1"}),
        _paper,
        _generated({"model": "hier", "depth": 3, "fanout": 5}),
        _generated({"model": "waxman", "n": 40, "seed": 7}),
        _generated({"model": "waxman", "n": 80, "seed": 3}),
        _generated({"model": "fattree", "k": 4}),
        _generated({"model": "fattree", "k": 6}),
    ],
    ids=[
        "figure1", "paper", "hier-3x5", "waxman-40", "waxman-80", "fattree-4", "fattree-6"
    ],
)
def test_routes_match_reference_builder(make_net):
    """Same routes, same equal-cost winners, same order in every table."""
    net = make_net()
    routers = net.routers()
    expected = _reference_fibs(routers, list(net.links.values()))
    net.build_routes()
    for router in routers:
        assert _rows(router.routing.entries()) == _rows(
            expected[router.name].entries()
        ), router.name


def test_equal_cost_ties_follow_router_then_link_names():
    """R2 hears L9 from R0 and R1 over L5: R0, the lower name, wins
    although R1 was created first.  R3 hears it from R0 over L2, L1 and
    L3: L1, the lowest name, wins although it was created neither first
    nor last."""
    net = Network(seed=0)
    l9, l5, l2, l1, l3 = (
        net.add_link(name, f"2001:db8:{k + 1:x}::/64")
        for k, name in enumerate(["L9", "L5", "L2", "L1", "L3"])
    )
    r1, r0, r2, r3 = (Node(net.sim, name) for name in ["R1", "R0", "R2", "R3"])
    for router, links in [
        (r1, [l9, l5]),
        (r0, [l9, l5, l2, l1, l3]),
        (r2, [l5]),
        (r3, [l2, l1, l3]),
    ]:
        for link in links:
            router.attach_to(link, link.prefix.address_for_host(len(link.interfaces) + 1))
    routers, links = [r1, r0, r2, r3], [l9, l5, l2, l1, l3]
    expected = _reference_fibs(routers, links)
    compute_router_fibs(routers, links)
    dst = l9.prefix.address_for_host(200)
    assert r2.routing.lookup(dst).next_hop == r0.address_on(l5)
    assert r3.routing.lookup(dst).iface.link is l1
    assert r3.routing.lookup(dst).next_hop == r0.address_on(l1)
    for router in routers:
        assert _rows(router.routing.entries()) == _rows(expected[router.name].entries())


@st.composite
def _random_networks(draw):
    """Small router/link graphs: mixed prefix lengths, repeated prefixes,
    unreachable links, address-less interfaces, a router attached twice
    to one link, and registration order unlike name order."""
    n_routers = draw(st.integers(1, 6))
    n_links = draw(st.integers(1, 6))
    prefixes = draw(
        st.lists(
            st.tuples(st.integers(1, 4), st.sampled_from([48, 56, 64])),
            min_size=n_links,
            max_size=n_links,
        )
    )
    attachments = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_routers - 1),
                st.integers(0, n_links - 1),
                st.integers(0, 9),
            ),
            max_size=16,
        )
    )
    router_names = draw(st.permutations([f"R{i}" for i in range(n_routers)]))
    link_names = draw(st.permutations([f"L{j}" for j in range(n_links)]))

    net = Network(seed=0)
    links = [
        net.add_link(name, f"2001:db8:{idx:x}::/{plen}")
        for name, (idx, plen) in zip(link_names, prefixes)
    ]
    routers = [Node(net.sim, name) for name in router_names]
    for k, (i, j, roll) in enumerate(attachments):
        link = links[j]
        # one attachment in ten has no address
        address = link.prefix.address_for_host(k + 1) if roll else None
        routers[i].attach_to(link, address)
    return routers, links


@settings(max_examples=300, deadline=None)
@given(_random_networks())
def test_random_networks_match_reference_builder(case):
    routers, links = case
    try:
        expected = _reference_fibs(routers, links)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            compute_router_fibs(routers, links)
        return
    compute_router_fibs(routers, links)
    for router in routers:
        table, reference = router.routing, expected[router.name]
        for link in links:
            dst = link.prefix.address_for_host(200)
            assert _rows(filter(None, [table.lookup(dst)])) == _rows(
                filter(None, [reference.lookup(dst)])
            )
        assert _rows(table.entries()) == _rows(reference.entries()), router.name
        assert len(table) == len(reference)


# ----------------------------------------------------------------------
# tables built in bulk behave like tables built by install()
# ----------------------------------------------------------------------
class TestBulkBuiltTable:
    @pytest.fixture
    def built(self):
        net = build_network(topo_graph({"model": "hier", "depth": 2, "fanout": 3})).net
        routers, links = net.routers(), list(net.links.values())
        expected = _reference_fibs(routers, links)
        net.build_routes()
        return net, routers, links, expected

    def test_lookups_in_one_prefix_return_one_object(self, built):
        _, routers, links, expected = built
        for router in routers:
            for link in links:
                first = router.routing.lookup(link.prefix.address_for_host(7))
                assert router.routing.lookup(link.prefix.address_for_host(9)) is first
                assert first == expected[router.name].lookup(
                    link.prefix.address_for_host(7)
                )

    def test_install_replaces_a_built_route(self, built):
        _, routers, links, expected = built
        table, reference = routers[-1].routing, expected[routers[-1].name]
        mine = RouteEntry(links[3].prefix, FakeIface(), None, 42)
        table.install(mine)
        reference.install(mine)
        assert table.lookup(links[3].prefix.address_for_host(1)) is mine
        assert len(table) == len(reference) == len(links)
        assert table.entries() == reference.entries()

    def test_remove_clear_and_len_match_an_installed_table(self, built):
        _, routers, links, expected = built
        table, reference = routers[-1].routing, expected[routers[-1].name]
        table.lookup(links[0].prefix.address_for_host(1))
        for link in links[::2]:
            table.remove(link.prefix)
            reference.remove(link.prefix)
        table.remove(Prefix("2001:db8:ffff::/64"))  # absent: ignored
        assert len(table) == len(reference) == len(links) // 2
        for link in links:
            dst = link.prefix.address_for_host(1)
            assert table.lookup(dst) == reference.lookup(dst)
        assert table.entries() == reference.entries()
        for link in links[1::2]:
            table.remove(link.prefix)
        assert len(table) == 0 and table.entries() == []
        table.clear()
        assert len(table) == 0 and table.entries() == []
        assert table.lookup(links[1].prefix.address_for_host(1)) is None
        routers[0].routing.clear()
        assert len(routers[0].routing) == 0
        assert routers[0].routing.lookup(links[1].prefix.address_for_host(1)) is None

    def test_entries_after_lookups_keep_order_and_objects(self, built):
        net, routers, links, expected = built
        router = routers[-1]
        before = _rows(router.routing.entries())
        net.build_routes()
        looked_up = [
            router.routing.lookup(link.prefix.address_for_host(1))
            for link in links[1::2]
        ]
        after = router.routing.entries()
        assert _rows(after) == before == _rows(expected[router.name].entries())
        for entry in looked_up:
            assert any(entry is e for e in after)

    def test_rebuild_over_fewer_routers_keeps_unreached_routes(self, built):
        """A second build without clear() overwrites what it reaches and
        keeps the rest, exactly like installing entry by entry."""
        _, routers, links, expected = built
        part = routers[::2]
        _reference_fibs(part, links, tables=expected)
        compute_router_fibs(part, links)
        for router in routers:
            assert _rows(router.routing.entries()) == _rows(
                expected[router.name].entries()
            ), router.name
            for link in links:
                dst = link.prefix.address_for_host(1)
                assert router.routing.lookup(dst) == expected[router.name].lookup(dst)


    def test_rebuild_over_fewer_links_keeps_the_other_routes(self, built):
        """A second build over one router and its own links rewrites
        those routes; its routes to every other link stay readable."""
        _, routers, links, expected = built
        router = routers[-1]
        own = [iface.link for iface in router.interfaces]
        _reference_fibs([router], own, tables=expected)
        compute_router_fibs([router], own)
        assert _rows(router.routing.entries()) == _rows(
            expected[router.name].entries()
        )
        for link in links:
            dst = link.prefix.address_for_host(1)
            assert router.routing.lookup(dst) == expected[router.name].lookup(dst)


def test_bulk_build_makes_no_object_per_route():
    """Routes share (iface, next_hop, metric) records until first read:
    building 159,600 routes adds fewer than one tracked object per ten."""
    net = build_network(topo_graph({"model": "hier", "depth": 3, "fanout": 7})).net
    gc.collect()
    before = len(gc.get_objects())
    net.build_routes()
    gc.collect()
    added = len(gc.get_objects()) - before
    routes = sum(len(router.routing) for router in net.routers())
    assert routes == 159_600
    assert added < routes // 10, added
