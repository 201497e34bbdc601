"""Hypothesis property suite for the topology generators.

Pins the :mod:`repro.net.topogen` contract: every generated graph is
structurally valid and connected, link metadata is consistent from
both endpoints, node/interface uids never collide, the digest is a
pure function of (model, params, seed), and the Waxman repair pass
never manufactures self-loops or parallel links.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.topogen import (
    TopoGraph,
    clear_graph_cache,
    fattree_graph,
    figure1_graph,
    hierarchical_graph,
    topo_graph,
    waxman_graph,
)

hier_params = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**16),
)
fattree_params = st.tuples(
    st.sampled_from([2, 4, 6]),
    st.integers(min_value=0, max_value=2**16),
)
waxman_params = st.tuples(
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**16),
)


def assert_well_formed(graph: TopoGraph) -> None:
    """The cross-model structural contract."""
    graph.validate()  # raises on duplicate names / dangling references
    assert graph.is_connected()

    # adjacency derived from shared links is symmetric: if a sees b
    # through some link, b sees a through the same link
    adj = graph.adjacency()
    for a, peers in adj.items():
        for b in peers:
            assert a in adj[b], f"asymmetric adjacency {a}<->{b}"

    # collision-free uids: router names, (link, host_id) interface
    # slots, and per-link prefixes are all globally unique
    names = [r.name for r in graph.routers]
    assert len(set(names)) == len(names)
    seen_ifaces = set()
    for router in graph.routers:
        for att in router.attachments:
            uid = (att.link, att.host_id)
            assert uid not in seen_ifaces, f"interface uid reused: {uid}"
            seen_ifaces.add(uid)
    for host in graph.hosts:
        uid = (host.home_link, host.host_id)
        assert uid not in seen_ifaces, f"host uid collides: {uid}"
        seen_ifaces.add(uid)
    prefixes = [l.prefix for l in graph.links]
    assert len(set(prefixes)) == len(prefixes)

    # symmetric/consistent link metadata: one LinkSpec per link (both
    # endpoints share it by construction) with sane physics, and every
    # link has exactly one attached home agent
    for link in graph.links:
        assert link.delay > 0
        assert link.bandwidth_bps > 0
    assert {l for l, _ in graph.home_agents} == {l.name for l in graph.links}

    # leaf links exist and are real links
    assert graph.leaf_links
    link_names = {l.name for l in graph.links}
    assert set(graph.leaf_links) <= link_names


class TestStructuralProperties:
    @settings(max_examples=25, deadline=None)
    @given(hier_params)
    def test_hier_well_formed(self, p):
        depth, fanout, seed = p
        assert_well_formed(hierarchical_graph(depth=depth, fanout=fanout, seed=seed))

    @settings(max_examples=10, deadline=None)
    @given(fattree_params)
    def test_fattree_well_formed(self, p):
        k, seed = p
        assert_well_formed(fattree_graph(k=k, seed=seed))

    @settings(max_examples=25, deadline=None)
    @given(waxman_params)
    def test_waxman_well_formed(self, p):
        n, alpha, beta, seed = p
        assert_well_formed(waxman_graph(n=n, alpha=alpha, beta=beta, seed=seed))

    def test_figure1_well_formed(self):
        graph = figure1_graph()
        assert_well_formed(graph)
        assert len(graph.routers) == 5
        assert len(graph.links) == 6
        assert {h.name for h in graph.hosts} == {"S", "R1", "R2", "R3"}


class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(hier_params)
    def test_same_seed_same_digest(self, p):
        depth, fanout, seed = p
        a = hierarchical_graph(depth=depth, fanout=fanout, seed=seed)
        b = hierarchical_graph(depth=depth, fanout=fanout, seed=seed)
        assert a == b
        assert a.digest() == b.digest()

    @settings(max_examples=10, deadline=None)
    @given(waxman_params)
    def test_waxman_same_seed_same_digest(self, p):
        n, alpha, beta, seed = p
        a = waxman_graph(n=n, alpha=alpha, beta=beta, seed=seed)
        b = waxman_graph(n=n, alpha=alpha, beta=beta, seed=seed)
        assert a == b
        assert a.digest() == b.digest()

    def test_different_seeds_different_digests(self):
        # the seed reaches real data (delay jitter, Waxman coordinates),
        # so distinct seeds must yield distinct canonical digests
        for make in (
            lambda s: hierarchical_graph(depth=2, fanout=3, seed=s),
            lambda s: fattree_graph(k=4, seed=s),
            lambda s: waxman_graph(n=12, seed=s),
        ):
            digests = {make(s).digest() for s in range(10)}
            assert len(digests) == 10

    def test_digest_is_param_sensitive(self):
        base = hierarchical_graph(depth=2, fanout=3, seed=0).digest()
        assert hierarchical_graph(depth=2, fanout=4, seed=0).digest() != base
        assert hierarchical_graph(depth=3, fanout=3, seed=0).digest() != base

    def test_topo_graph_cache_returns_same_object(self):
        clear_graph_cache()
        try:
            spec = {"model": "hier", "depth": 2, "fanout": 3, "seed": 7}
            a = topo_graph(spec)
            b = topo_graph(dict(spec))  # equal spec, different dict object
            assert a is b
            clear_graph_cache()
            c = topo_graph(spec)
            assert c is not a
            assert c == a and c.digest() == a.digest()
        finally:
            clear_graph_cache()


class TestWaxmanRepair:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_sparse_waxman_repair_no_self_loops_or_parallel_links(self, n, seed):
        # alpha at the legal floor makes the raw graph nearly edgeless,
        # so connectivity comes almost entirely from the repair pass
        graph = waxman_graph(n=n, alpha=0.01 + 1e-9, beta=0.05, seed=seed)
        assert graph.is_connected()
        on_link = graph.routers_on()
        seen_pairs = set()
        for link in graph.links:
            members = on_link[link.name]
            if link.name.startswith("w"):  # p2p backbone link
                assert len(members) == 2
                a, b = members
                assert a != b, f"self-loop on {link.name}"
                pair = tuple(sorted(members))
                assert pair not in seen_pairs, f"parallel link {pair}"
                seen_pairs.add(pair)
            else:  # stub LAN
                assert len(members) == 1

    def test_single_router_waxman(self):
        graph = waxman_graph(n=1, seed=0)
        assert_well_formed(graph)
        assert len(graph.routers) == 1


def _scan_ha_of(graph: TopoGraph, link_name: str) -> str:
    """The linear scan ``TopoGraph.ha_of`` used to make on every call."""
    for link, router in graph.home_agents:
        if link == link_name:
            return router
    raise KeyError(f"no home agent for link {link_name!r}")


GRAPH_MAKERS = {
    "figure1": figure1_graph,
    "hier": lambda: hierarchical_graph(depth=3, fanout=4, seed=0),
    "waxman": lambda: waxman_graph(n=20, seed=0),
    "fattree": lambda: fattree_graph(k=4, seed=0),
}


class TestHomeAgentLookup:
    @pytest.mark.parametrize("model", sorted(GRAPH_MAKERS))
    def test_every_link_gives_the_scans_answer(self, model):
        graph = GRAPH_MAKERS[model]()
        for link in graph.links:
            assert graph.ha_of(link.name) == _scan_ha_of(graph, link.name)

    def test_first_pair_for_a_link_wins(self):
        graph = figure1_graph()
        first, router = graph.home_agents[0]
        doubled = replace(graph, home_agents=graph.home_agents + ((first, "other"),))
        assert doubled.ha_of(first) == router == _scan_ha_of(doubled, first)

    def test_unknown_link_keeps_the_error_text(self):
        with pytest.raises(KeyError, match="no home agent for link 'nope'"):
            figure1_graph().ha_of("nope")

    @pytest.mark.parametrize("model", sorted(GRAPH_MAKERS))
    def test_lookup_leaves_identity_alone(self, model):
        make = GRAPH_MAKERS[model]
        fresh = pickle.dumps(make())
        graph = make()
        for link in graph.links:
            graph.ha_of(link.name)
        assert pickle.dumps(graph) == fresh
        assert pickle.loads(fresh) == graph and hash(pickle.loads(fresh)) == hash(graph)
        assert graph.digest() == make().digest()
