"""Unit tests for the Figure 1 network construction."""

import pytest

from repro.core import PaperScenario, build_paper_network
from repro.mipv6 import HomeAgent
from repro.net import Address
from repro.net.topogen import (
    HOME_AGENT_OF_LINK,
    HOST_HOMES,
    LINK_PREFIXES,
    ROUTER_LINKS,
    figure1_graph,
)


@pytest.fixture(scope="module")
def paper():
    return build_paper_network(seed=0)


class TestStructure:
    def test_figure1_graph_constants(self):
        graph = figure1_graph()
        assert [l.name for l in graph.links] == [f"L{i}" for i in range(1, 7)]
        assert [r.name for r in graph.routers] == ["A", "B", "C", "D", "E"]
        assert graph.ha_of("L4") == "D" and graph.ha_of("L2") == "B"
        assert dict(graph.home_agents) == HOME_AGENT_OF_LINK
        assert [h.name for h in graph.hosts] == ["S", "R1", "R2", "R3"]
        graph.validate()

    def test_six_links(self, paper):
        assert sorted(paper.net.links) == [f"L{i}" for i in range(1, 7)]

    def test_five_routers_all_home_agents(self, paper):
        assert sorted(paper.routers) == ["A", "B", "C", "D", "E"]
        for router in paper.routers.values():
            assert isinstance(router, HomeAgent)
            assert router.is_router

    def test_router_attachments_match_figure(self, paper):
        for name, links in ROUTER_LINKS.items():
            router = paper.routers[name]
            attached = sorted(
                i.link.name for i in router.interfaces if i.link is not None
            )
            assert attached == sorted(links), name

    def test_parallel_routers_b_c(self, paper):
        """B and C attach the same two links — the assert-election pair."""
        assert ROUTER_LINKS["B"] == ROUTER_LINKS["C"] == ["L2", "L3"]

    def test_d_is_home_agent_of_links_4_and_5(self, paper):
        d = paper.routers["D"]
        assert d.serves_home_address(Address("2001:db8:4::1"))
        assert d.serves_home_address(Address("2001:db8:5::1"))
        assert not d.serves_home_address(Address("2001:db8:1::1"))

    def test_hosts_at_their_home_links(self, paper):
        for name, (home_link, _id) in HOST_HOMES.items():
            host = paper.hosts[name]
            assert host.current_link.name == home_link
            assert host.at_home

    def test_host_home_agents_match_paper(self, paper):
        # Paper §4.2: A is HA on Link 1, B on Link 2, D on Links 4/5.
        assert paper.hosts["S"].home_agent_address == Address("2001:db8:1::1")
        assert paper.hosts["R1"].home_agent_address == Address("2001:db8:1::1")
        assert paper.hosts["R2"].home_agent_address == Address("2001:db8:2::2")
        assert paper.hosts["R3"].home_agent_address == Address("2001:db8:4::4")

    def test_group_is_global_multicast(self):
        group = PaperScenario().group
        assert group.is_multicast
        assert not group.is_link_scope_multicast

    def test_sugar_accessors(self, paper):
        assert paper.link("L3").name == "L3"
        assert paper.router("E").name == "E"
        assert paper.host("R3").name == "R3"

    def test_prefixes_distinct(self, paper):
        assert len(set(LINK_PREFIXES.values())) == 6
