"""Unicast routing: FIB entries and shortest-path route computation.

PIM-DM is *protocol independent*: it relies on whatever unicast routing
the network runs, using it for (a) Reverse-Path-Forwarding checks — the
incoming interface of an (S,G) entry is the interface the router uses
to reach S by unicast (paper §3.1) — and (b) the routing metric carried
in Assert messages.

The reproduction computes hop-count shortest paths over the
router/link topology with a BFS per destination link (all links have
unit cost; ties are broken deterministically by link then router name so
every run builds the same trees).

A :class:`RoutingTable` keeps one hash per prefix length in use, keyed
by :attr:`Prefix.key`; a longest-prefix match probes the lengths
longest first, so with every link on a /64 a lookup is one dict probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .addressing import Address, Prefix

if TYPE_CHECKING:  # pragma: no cover
    from .interface import Interface
    from .link import Link
    from .node import Node

__all__ = ["RouteEntry", "RoutingTable", "compute_router_fibs"]


@dataclass(slots=True)
class RouteEntry:
    """One FIB entry: how to reach ``prefix``.

    ``next_hop`` is None for on-link (directly connected) prefixes.
    ``metric`` is the hop count (number of links a packet crosses to
    reach the destination link, counting that link) — the metric that
    PIM-DM Assert messages compare.
    """

    prefix: Prefix
    iface: "Interface"
    next_hop: Optional[Address]
    metric: int

    @property
    def connected(self) -> bool:
        return self.next_hop is None


class RoutingTable:
    """Per-node FIB with longest-prefix-match lookup."""

    def __init__(self) -> None:
        #: prefix length -> {Prefix.key: entry}
        self._tables: Dict[int, Dict[int, RouteEntry]] = {}
        #: (128 - prefix length, table) for each length in use, longest first
        self._probes: List[Tuple[int, Dict[int, RouteEntry]]] = []

    def _reindex(self) -> None:
        self._probes = [
            (128 - plen, self._tables[plen]) for plen in sorted(self._tables, reverse=True)
        ]

    def install(self, entry: RouteEntry) -> None:
        """Add ``entry``, replacing any entry for the same prefix."""
        prefix = entry.prefix
        plen = prefix.prefix_len
        table = self._tables.get(plen)
        if table is None:
            table = self._tables[plen] = {}
            self._reindex()
        table[prefix.key] = entry

    def remove(self, prefix: Prefix) -> None:
        """Drop the entry for ``prefix``; absent prefixes are ignored."""
        prefix = Prefix(prefix)
        table = self._tables.get(prefix.prefix_len)
        if table is None or table.pop(prefix.key, None) is None:
            return
        if not table:
            del self._tables[prefix.prefix_len]
            self._reindex()

    def clear(self) -> None:
        self._tables.clear()
        self._probes = []

    def lookup(self, dst: Address) -> Optional[RouteEntry]:
        """Longest-prefix-match for ``dst``."""
        if not isinstance(dst, Address):
            dst = Address(dst)
        value = dst.as_int()
        for shift, table in self._probes:
            entry = table.get(value >> shift)
            if entry is not None:
                return entry
        return None

    def entries(self) -> List[RouteEntry]:
        return [entry for table in self._tables.values() for entry in table.values()]

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())


def compute_router_fibs(routers: List["Node"], links: List["Link"]) -> None:
    """Compute and install shortest-path FIBs on every router.

    Runs one BFS per destination link over the bipartite router/link
    graph and installs one entry per reached router, in BFS order.
    """
    routers_by_name = {r.name: r for r in routers}
    # First interface of each router on each attached link.
    iface_on: Dict[Tuple[str, str], "Interface"] = {}
    for router in routers:
        for iface in router.interfaces:
            if iface.link is not None:
                iface_on.setdefault((router.name, iface.link.name), iface)

    router_names_on_link: Dict[str, List[str]] = {}
    for link in links:
        router_names_on_link[link.name] = sorted(
            iface.node.name
            for iface in link.interfaces
            if iface.node.name in routers_by_name
        )

    # Adjacency: for each router, its attached links in name order with
    # the routers on each.
    attachments: Dict[str, List[Tuple["Link", List[str]]]] = {}
    for router in routers:
        attached = sorted(
            (iface.link for iface in router.interfaces if iface.link is not None),
            key=lambda link: link.name,
        )
        attachments[router.name] = [
            (link, router_names_on_link[link.name]) for link in attached
        ]

    # Next hop through (router, link): the router's global address there,
    # resolved on first use so a router without one only fails where a
    # shortest path actually leaves through it.
    next_hops: Dict[Tuple[str, str], Address] = {}

    for dest_link in links:
        # BFS over routers; metric = links crossed to deliver onto dest_link.
        frontier = router_names_on_link[dest_link.name]  # sorted
        reached: Dict[str, Tuple[int, "Interface", Optional[Address]]] = {
            name: (1, iface_on[(name, dest_link.name)], None) for name in frontier
        }

        while frontier:
            next_frontier: List[str] = []
            for name in frontier:
                metric = reached[name][0] + 1
                for link, neighbours in attachments[name]:
                    if link is dest_link:
                        continue
                    next_hop: Optional[Address] = None
                    for neigh_name in neighbours:
                        if neigh_name in reached:
                            continue
                        if next_hop is None:
                            key = (name, link.name)
                            next_hop = next_hops.get(key)
                            if next_hop is None:
                                next_hop = next_hops[key] = _global_address(iface_on[key])
                        reached[neigh_name] = (
                            metric,
                            iface_on[(neigh_name, link.name)],
                            next_hop,
                        )
                        next_frontier.append(neigh_name)
            frontier = sorted(next_frontier)

        prefix = dest_link.prefix
        for name, (metric, iface, next_hop) in reached.items():
            routers_by_name[name].routing.install(
                RouteEntry(prefix=prefix, iface=iface, next_hop=next_hop, metric=metric)
            )


def _global_address(iface: "Interface") -> Address:
    """The interface's global address (a neighbour's next hop over it)."""
    for addr in iface.addresses:
        if not addr.is_link_local and not addr.is_multicast:
            return addr
    raise ValueError(f"{iface.node.name} has no global address on {iface.link.name}")
