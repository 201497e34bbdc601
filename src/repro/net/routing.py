"""Unicast routing: FIB entries and shortest-path route computation.

PIM-DM is *protocol independent*: it relies on whatever unicast routing
the network runs, using it for (a) Reverse-Path-Forwarding checks — the
incoming interface of an (S,G) entry is the interface the router uses
to reach S by unicast (paper §3.1) — and (b) the routing metric carried
in Assert messages.

The reproduction computes hop-count shortest paths over the
router/link topology with a BFS per destination link (all links have
unit cost; ties are broken deterministically by link then router name so
every run builds the same trees).  :func:`compute_router_fibs` numbers
the routers in name order once per call, so ascending numbers give the
name tie-break, and expands each link at most once per BFS.

A :class:`RoutingTable` keeps one hash per prefix length in use, keyed
by :attr:`Prefix.key`; a longest-prefix match probes the lengths
longest first, so with every link on a /64 a lookup is one dict probe.
A build stores each route as a shared ``(iface, next_hop, metric)``
record, one object per distinct triple across all routers, and a table
turns a record into a :class:`RouteEntry` when the route is first read:
the 159,600 routes of a 399-router hierarchy share 5,922 records until
then.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from .addressing import Address, Prefix

if TYPE_CHECKING:  # pragma: no cover
    from .interface import Interface
    from .link import Link
    from .node import Node

__all__ = ["RouteEntry", "RoutingTable", "compute_router_fibs"]

#: A route as a build stores it until first read:
#: ``(iface, next_hop, metric)``, one object per distinct triple.
_Record = Tuple["Interface", Optional[Address], int]
#: One prefix length's routes: {Prefix.key: entry or record}.
_Table = Dict[int, Union["RouteEntry", _Record]]


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
    """Per-node FIB with longest-prefix-match lookup.

    A stored value is a :class:`RouteEntry` or, for a route written by
    :func:`compute_router_fibs`, a shared ``(iface, next_hop, metric)``
    record; the first read of a record replaces it by its entry, so
    every read of one prefix returns the same object.
    """

    def __init__(self) -> None:
        #: prefix length -> {Prefix.key: entry or record}
        self._tables: Dict[int, _Table] = {}
        #: prefix length -> {Prefix.key: Prefix} naming the records; one
        #: dict per length, shared by every table one build wrote
        self._prefixes: Dict[int, Dict[int, Prefix]] = {}
        #: (128 - prefix length, table) for each length in use, longest first
        self._probes: List[Tuple[int, _Table]] = []

    def _reindex(self) -> None:
        self._probes = [
            (128 - plen, self._tables[plen]) for plen in sorted(self._tables, reverse=True)
        ]

    def _table(self, plen: int) -> _Table:
        table = self._tables.get(plen)
        if table is None:
            table = self._tables[plen] = {}
            self._reindex()
        return table

    def _bulk_table(self, plen: int, prefixes: Dict[int, Prefix]) -> _Table:
        """The ``plen`` table a build writes records into, named by
        ``prefixes``."""
        table = self._table(plen)
        earlier = self._prefixes.get(plen)
        if earlier is not None and earlier is not prefixes:
            # Records of an earlier build that this one does not
            # overwrite keep their own prefixes.
            for key, value in table.items():
                if type(value) is tuple:
                    table[key] = RouteEntry(earlier[key], *value)
        self._prefixes[plen] = prefixes
        return table

    def install(self, entry: RouteEntry) -> None:
        """Add ``entry``, replacing any entry for the same prefix."""
        prefix = entry.prefix
        self._table(prefix.prefix_len)[prefix.key] = entry

    def remove(self, prefix: Prefix) -> None:
        """Drop the entry for ``prefix``; absent prefixes are ignored."""
        prefix = Prefix(prefix)
        plen = prefix.prefix_len
        table = self._tables.get(plen)
        if table is None or table.pop(prefix.key, None) is None:
            return
        if not table:
            del self._tables[plen]
            self._prefixes.pop(plen, None)
            self._reindex()

    def clear(self) -> None:
        self._tables.clear()
        self._prefixes.clear()
        self._probes = []

    def lookup(self, dst: Address) -> Optional[RouteEntry]:
        """Longest-prefix-match for ``dst``."""
        if not isinstance(dst, Address):
            dst = Address(dst)
        value = dst.as_int()
        for shift, table in self._probes:
            key = value >> shift
            entry = table.get(key)
            if entry is not None:
                if type(entry) is tuple:
                    prefix = self._prefixes[128 - shift][key]
                    entry = table[key] = RouteEntry(prefix, *entry)
                return entry
        return None

    def entries(self) -> List[RouteEntry]:
        out: List[RouteEntry] = []
        for plen, table in self._tables.items():
            for key, entry in table.items():
                if type(entry) is tuple:
                    entry = table[key] = RouteEntry(self._prefixes[plen][key], *entry)
                out.append(entry)
        return out

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())


def compute_router_fibs(routers: List["Node"], links: List["Link"]) -> None:
    """Compute shortest-path FIBs on every router.

    Runs one BFS per destination link over a numbered router/link graph
    and writes each route into its router's table when the BFS reaches
    the router, so every router gets one route per reachable
    destination, in ``links`` order.  Routes are shared ``(iface,
    next_hop, metric)`` records (see :class:`RoutingTable`).
    """
    # Routers numbered in name order (sorted numbers give the name
    # tie-break), links in the order given.
    by_name = {router.name: router for router in routers}
    names = sorted(by_name)
    link_number = {link.name: j for j, link in enumerate(links)}

    # One attachment per (router, link): the router's first interface
    # there.  members[j]: (router, attachment) on link j, routers
    # ascending; attached[i]: (link, attachment) of router i, links in
    # name order.
    att_iface: List["Interface"] = []
    members: List[List[Tuple[int, int]]] = [[] for _ in links]
    attached: List[List[Tuple[int, int]]] = []
    for i, name in enumerate(names):
        first: Dict[int, "Interface"] = {}
        for iface in by_name[name].interfaces:
            if iface.link is not None:
                first.setdefault(link_number[iface.link.name], iface)
        mine = []
        for j, iface in first.items():
            members[j].append((i, len(att_iface)))
            mine.append((j, len(att_iface)))
            att_iface.append(iface)
        mine.sort(key=lambda pair: links[pair[0]].name)
        attached.append(mine)

    # Next hop through each attachment: the router's global address
    # there, resolved on first use so a router without one only fails
    # where a shortest path actually leaves through it.
    hops: List[Optional[Address]] = [None] * len(att_iface)
    # (attachment reached on, attachment the next hop is on, metric)
    # -> the one record for that route.
    records: Dict[Tuple[int, int, int], _Record] = {}
    # prefix length -> {Prefix.key: Prefix}, and each router's table
    # for that length once a route is written into it.
    prefixes_by_len: Dict[int, Dict[int, Prefix]] = {}
    tables_by_len: Dict[int, List[Optional[_Table]]] = {}
    fibs = [by_name[name].routing for name in names]

    for d, dest_link in enumerate(links):
        prefix = dest_link.prefix
        plen = prefix.prefix_len
        key = prefix.key
        prefixes = prefixes_by_len.get(plen)
        if prefixes is None:
            prefixes = prefixes_by_len[plen] = {}
            tables_by_len[plen] = [None] * len(names)
        prefixes[key] = prefix
        tables = tables_by_len[plen]

        # BFS over routers; metric = links crossed to deliver onto
        # dest_link.  A link is expanded once: the first router to
        # expand it reaches every router on it.
        reached = bytearray(len(names))
        expanded = bytearray(len(links))
        expanded[d] = 1
        frontier: List[int] = []
        for n, att in members[d]:
            reached[n] = 1
            frontier.append(n)
            table = tables[n]
            if table is None:
                table = tables[n] = fibs[n]._bulk_table(plen, prefixes)
            # An attachment is on one link, so its on-link record is
            # written once per build and needs no sharing.
            table[key] = (att_iface[att], None, 1)

        metric = 1
        while frontier:
            metric += 1
            found: List[int] = []
            for r in frontier:
                for j, via in attached[r]:
                    if expanded[j]:
                        continue
                    expanded[j] = 1
                    next_hop: Optional[Address] = None
                    for n, att in members[j]:
                        if reached[n]:
                            continue
                        reached[n] = 1
                        found.append(n)
                        if next_hop is None:
                            next_hop = hops[via]
                            if next_hop is None:
                                next_hop = hops[via] = _global_address(att_iface[via])
                        record = records.get((att, via, metric))
                        if record is None:
                            record = records[(att, via, metric)] = (
                                att_iface[att],
                                next_hop,
                                metric,
                            )
                        table = tables[n]
                        if table is None:
                            table = tables[n] = fibs[n]._bulk_table(plen, prefixes)
                        table[key] = record
            found.sort()
            frontier = found


def _global_address(iface: "Interface") -> Address:
    """The interface's global address (a neighbour's next hop over it)."""
    for addr in iface.addresses:
        if not addr.is_link_local and not addr.is_multicast:
            return addr
    raise ValueError(f"{iface.node.name} has no global address on {iface.link.name}")
