"""Seeded, deterministic topology generation.

:mod:`repro.net.topogen` describes every network the simulator runs,
from the paper's Figure 1 up to internet-scale topologies, as pure
data — a frozen :class:`TopoGraph` of link/router/host specs — and
:func:`build_network` instantiates it into the existing
:class:`~repro.net.topology.Network` / :class:`~repro.net.link.Link` /
node machinery:

* :func:`hierarchical_graph` — ISP-like trees with configurable
  fanout/depth (every router owns a "down" LAN its children attach
  to; the deepest LANs are the leaf links hosts home on),
* :func:`fattree_graph` — the k-ary fat-tree campus (core/aggregation/
  edge, one host LAN per edge router),
* :func:`waxman_graph` — the classic Waxman random graph on the unit
  square with a deterministic connectivity-repair pass (closest pair
  across components; never self-loops, never parallel links), plus one
  stub LAN per router for host placement,
* :func:`figure1_graph` — the paper's Figure 1, built from the
  Figure 1 facts declared beside it (link prefixes, router
  attachments, host ids, the home agent of each link); every Figure
  run builds its network from it.

Determinism contract: a TopoGraph is a pure function of ``(model,
params, seed)``; its :meth:`~TopoGraph.digest` is the SHA-256 of the
canonical-JSON serialization, so *same seed ⇒ byte-identical graph*
and any structural drift is detectable.  The seed perturbs real data
(link-delay jitter, Waxman coordinates), so *different seeds ⇒
different digests* too.

Graphs are cached process-wide by canonical spec (:func:`topo_graph`):
``CampaignRunner`` pool workers persist across cells, so every cell
sharing a topology spec reuses one immutable graph instead of
regenerating it — the "shared read-only topology" of the issue.  The
mutable :class:`Network` is still instantiated per cell (simulation
mutates it), which is cheap relative to generation + routing.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.rng import derive_seed
from .addressing import Address, make_multicast_group
from .topology import Network

__all__ = [
    "AttachmentSpec",
    "GeneratedTopology",
    "HOME_AGENT_OF_LINK",
    "HOST_HOMES",
    "HostSpec",
    "LINK_PREFIXES",
    "LinkSpec",
    "MODELS",
    "ROUTER_HOST_IDS",
    "ROUTER_LINKS",
    "RouterSpec",
    "TopoGraph",
    "build_network",
    "clear_graph_cache",
    "fattree_graph",
    "figure1_graph",
    "hierarchical_graph",
    "topo_graph",
    "waxman_graph",
]

#: Supported generator models (the ``repro topo --model`` choices).
MODELS = ("hier", "fattree", "waxman", "figure1")

#: Host ids handed to routers on a shared link start at 1; generated
#: hosts start here so the two ranges can never collide.
HOST_ID_BASE = 4096


# ----------------------------------------------------------------------
# pure-data graph model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkSpec:
    """One link: name, IPv6 prefix, and physical parameters."""

    name: str
    prefix: str
    delay: float = 0.5e-3
    bandwidth_bps: float = 100e6


@dataclass(frozen=True)
class AttachmentSpec:
    """One router interface: which link, which host id on its prefix."""

    link: str
    host_id: int


@dataclass(frozen=True)
class RouterSpec:
    """One router and its ordered link attachments."""

    name: str
    attachments: Tuple[AttachmentSpec, ...]


@dataclass(frozen=True)
class HostSpec:
    """One pre-placed host (used by the Figure 1 graph)."""

    name: str
    home_link: str
    host_id: int


@dataclass(frozen=True)
class TopoGraph:
    """An immutable, canonically-serializable topology description.

    Construction order is part of the contract: links, routers (with
    their attachments), and hosts are instantiated in tuple order, so
    two equal graphs build behaviourally identical networks (node
    names, interface uids, RNG stream names all match).
    """

    model: str
    params: Tuple[Tuple[str, Any], ...]
    links: Tuple[LinkSpec, ...]
    routers: Tuple[RouterSpec, ...]
    #: link name -> home-agent router name (every link has one)
    home_agents: Tuple[Tuple[str, str], ...]
    #: links designated for host placement, generator order
    leaf_links: Tuple[str, ...]
    hosts: Tuple[HostSpec, ...] = ()

    # -- serialization / identity --------------------------------------
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "params": {k: v for k, v in self.params},
            "links": [
                [l.name, l.prefix, l.delay, l.bandwidth_bps] for l in self.links
            ],
            "routers": [
                [r.name, [[a.link, a.host_id] for a in r.attachments]]
                for r in self.routers
            ],
            "home_agents": [list(pair) for pair in self.home_agents],
            "leaf_links": list(self.leaf_links),
            "hosts": [[h.name, h.home_link, h.host_id] for h in self.hosts],
        }

    def digest(self) -> str:
        canonical = json.dumps(
            self.to_jsonable(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- structure queries ---------------------------------------------
    def ha_of(self, link_name: str) -> str:
        try:
            return self._ha_by_link[link_name]
        except KeyError:
            raise KeyError(f"no home agent for link {link_name!r}") from None

    @cached_property
    def _ha_by_link(self) -> Dict[str, str]:
        """link name -> home-agent router, built once; the first pair
        for a link wins, as in ``home_agents`` order."""
        table: Dict[str, str] = {}
        for link, router in self.home_agents:
            table.setdefault(link, router)
        return table

    def __getstate__(self) -> Dict[str, Any]:
        # pickles carry the fields only, not the derived lookup table
        state = dict(self.__dict__)
        state.pop("_ha_by_link", None)
        return state

    def routers_on(self) -> Dict[str, List[str]]:
        """link name -> router names attached, attachment order."""
        table: Dict[str, List[str]] = {l.name: [] for l in self.links}
        for router in self.routers:
            for att in router.attachments:
                table[att.link].append(router.name)
        return table

    def adjacency(self) -> Dict[str, List[str]]:
        """Router adjacency via shared links (deduplicated, ordered)."""
        on_link = self.routers_on()
        adj: Dict[str, List[str]] = {r.name: [] for r in self.routers}
        for members in on_link.values():
            for a in members:
                for b in members:
                    if a != b and b not in adj[a]:
                        adj[a].append(b)
        return adj

    def is_connected(self) -> bool:
        if not self.routers:
            return False
        adj = self.adjacency()
        seen = {self.routers[0].name}
        frontier = [self.routers[0].name]
        while frontier:
            nxt: List[str] = []
            for name in frontier:
                for peer in adj[name]:
                    if peer not in seen:
                        seen.add(peer)
                        nxt.append(peer)
            frontier = nxt
        return len(seen) == len(self.routers)

    def diameter_estimate(self) -> int:
        """Double-BFS lower bound on the router-hop diameter."""
        adj = self.adjacency()
        if not adj:
            return 0

        def bfs(start: str) -> Tuple[str, int]:
            dist = {start: 0}
            frontier = [start]
            far, far_d = start, 0
            while frontier:
                nxt: List[str] = []
                for name in frontier:
                    for peer in adj[name]:
                        if peer not in dist:
                            dist[peer] = dist[name] + 1
                            if dist[peer] > far_d:
                                far, far_d = peer, dist[peer]
                            nxt.append(peer)
                frontier = nxt
            return far, far_d

        far, _ = bfs(self.routers[0].name)
        _, diameter = bfs(far)
        return diameter

    def validate(self) -> None:
        """Raise ``ValueError`` on structural inconsistencies."""
        link_names = [l.name for l in self.links]
        if len(set(link_names)) != len(link_names):
            raise ValueError("duplicate link names")
        router_names = [r.name for r in self.routers]
        if len(set(router_names)) != len(router_names):
            raise ValueError("duplicate router names")
        known = set(link_names)
        used_ids: Dict[str, set] = {name: set() for name in link_names}
        for router in self.routers:
            att_links = [a.link for a in router.attachments]
            if len(set(att_links)) != len(att_links):
                raise ValueError(f"router {router.name} attaches a link twice")
            for att in router.attachments:
                if att.link not in known:
                    raise ValueError(f"unknown link {att.link!r}")
                if att.host_id in used_ids[att.link]:
                    raise ValueError(
                        f"host id {att.host_id} reused on link {att.link}"
                    )
                used_ids[att.link].add(att.host_id)
        for host in self.hosts:
            if host.home_link not in known:
                raise ValueError(f"unknown home link {host.home_link!r}")
            if host.host_id in used_ids[host.home_link]:
                raise ValueError(
                    f"host id {host.host_id} reused on link {host.home_link}"
                )
            used_ids[host.home_link].add(host.host_id)
        ha_links = [link for link, _ in self.home_agents]
        if len(set(ha_links)) != len(ha_links):
            raise ValueError("duplicate home-agent assignment")
        on_link = self.routers_on()
        for link, router in self.home_agents:
            if router not in on_link.get(link, []):
                raise ValueError(f"home agent {router} not attached to {link}")
        for leaf in self.leaf_links:
            if leaf not in known:
                raise ValueError(f"unknown leaf link {leaf!r}")

    def describe(self) -> Dict[str, Any]:
        """Machine-readable summary (the ``repro topo`` payload)."""
        degrees = [len(r.attachments) for r in self.routers]
        return {
            "model": self.model,
            "params": self.params_dict(),
            "routers": len(self.routers),
            "links": len(self.links),
            "leaf_links": len(self.leaf_links),
            "interfaces": sum(degrees),
            "hosts": len(self.hosts),
            "degree": {
                "min": min(degrees) if degrees else 0,
                "max": max(degrees) if degrees else 0,
                "mean": (sum(degrees) / len(degrees)) if degrees else 0.0,
            },
            "connected": self.is_connected(),
            "diameter_estimate": self.diameter_estimate(),
            "digest": self.digest(),
        }


# ----------------------------------------------------------------------
# generator helpers
# ----------------------------------------------------------------------
def _prefix_for(index: int) -> str:
    """Unique /64 per link index (disjoint from the paper's 2001:db8:i::)."""
    hi = (index >> 16) & 0xFFFF
    lo = index & 0xFFFF
    return f"2001:db8:{hi + 16:x}:{lo:x}::/64"


def _jittered(base: float, jitter: float, rng: random.Random) -> float:
    """A link delay perturbed by the topology seed (rounded so the
    canonical JSON is stable against float-repr surprises)."""
    if jitter <= 0:
        return base
    return round(base * (1.0 + jitter * (2.0 * rng.random() - 1.0)), 9)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def hierarchical_graph(
    depth: int = 3,
    fanout: int = 4,
    seed: int = 0,
    link_delay: float = 0.5e-3,
    link_bandwidth_bps: float = 100e6,
    delay_jitter: float = 0.2,
) -> TopoGraph:
    """ISP-like tree: a core LAN, ``fanout`` children per router,
    ``depth`` levels below the core.  Routers: fanout + fanout² + ... +
    fanout^depth (fanout=10, depth=3 → 1110).  Each router owns a
    "down" LAN; the deepest LANs are the leaf links."""
    if depth < 1 or fanout < 1:
        raise ValueError("depth and fanout must be >= 1")
    rng = random.Random(derive_seed(seed, "topogen.hier"))
    links: List[LinkSpec] = [
        LinkSpec(
            "core",
            _prefix_for(0),
            delay=_jittered(link_delay, delay_jitter, rng),
            bandwidth_bps=link_bandwidth_bps,
        )
    ]
    routers: List[RouterSpec] = []
    home_agents: List[Tuple[str, str]] = []
    leaf_links: List[str] = []
    #: routers attached so far per link (for host-id assignment)
    attach_count: Dict[str, int] = {"core": 0}

    parents: List[Tuple[str, str]] = [("", "core")]  # (router name, down link)
    number = 0
    for level in range(1, depth + 1):
        next_parents: List[Tuple[str, str]] = []
        for _, up_link in parents:
            for _ in range(fanout):
                name = f"r{number:04d}"
                number += 1
                down_link = f"d{number - 1:04d}"
                links.append(
                    LinkSpec(
                        down_link,
                        _prefix_for(len(links)),
                        delay=_jittered(link_delay, delay_jitter, rng),
                        bandwidth_bps=link_bandwidth_bps,
                    )
                )
                attach_count[up_link] += 1
                attach_count[down_link] = 1
                routers.append(
                    RouterSpec(
                        name,
                        (
                            AttachmentSpec(up_link, attach_count[up_link]),
                            AttachmentSpec(down_link, 1),
                        ),
                    )
                )
                home_agents.append((down_link, name))
                if level == depth:
                    leaf_links.append(down_link)
                else:
                    next_parents.append((name, down_link))
        parents = next_parents
    home_agents.insert(0, ("core", routers[0].name))
    return TopoGraph(
        model="hier",
        params=(
            ("depth", depth),
            ("fanout", fanout),
            ("seed", seed),
            ("link_delay", link_delay),
            ("link_bandwidth_bps", link_bandwidth_bps),
            ("delay_jitter", delay_jitter),
        ),
        links=tuple(links),
        routers=tuple(routers),
        home_agents=tuple(home_agents),
        leaf_links=tuple(leaf_links),
    )


def fattree_graph(
    k: int = 4,
    seed: int = 0,
    link_delay: float = 0.5e-3,
    link_bandwidth_bps: float = 100e6,
    delay_jitter: float = 0.2,
) -> TopoGraph:
    """The k-ary fat-tree campus: (k/2)² core routers, k pods of k/2
    aggregation + k/2 edge routers, one host LAN per edge router."""
    if k < 2 or k % 2:
        raise ValueError("fat-tree k must be even and >= 2")
    rng = random.Random(derive_seed(seed, "topogen.fattree"))
    half = k // 2
    links: List[LinkSpec] = []
    routers: Dict[str, List[AttachmentSpec]] = {}
    home_agents: List[Tuple[str, str]] = []
    leaf_links: List[str] = []
    attach_count: Dict[str, int] = {}

    def new_link(name: str) -> None:
        links.append(
            LinkSpec(
                name,
                _prefix_for(len(links)),
                delay=_jittered(link_delay, delay_jitter, rng),
                bandwidth_bps=link_bandwidth_bps,
            )
        )
        attach_count[name] = 0

    def attach(router: str, link: str) -> None:
        attach_count[link] += 1
        routers.setdefault(router, []).append(
            AttachmentSpec(link, attach_count[link])
        )

    core_names = [f"c{i:02d}" for i in range(half * half)]
    for name in core_names:
        routers[name] = []
    for pod in range(k):
        for j in range(half):
            agg = f"a{pod:02d}-{j}"
            routers[agg] = []
            # one p2p link per (agg, core) pair: agg j of every pod
            # reaches core routers j*half .. j*half+half-1
            for c in range(half):
                core = core_names[j * half + c]
                link_name = f"ca{pod:02d}-{j}-{c}"
                new_link(link_name)
                attach(core, link_name)
                attach(agg, link_name)
                home_agents.append((link_name, core))
        for j in range(half):
            edge = f"e{pod:02d}-{j}"
            routers[edge] = []
            for a in range(half):
                agg = f"a{pod:02d}-{a}"
                link_name = f"ae{pod:02d}-{a}-{j}"
                new_link(link_name)
                attach(agg, link_name)
                attach(edge, link_name)
                home_agents.append((link_name, agg))
            lan = f"lan{pod:02d}-{j}"
            new_link(lan)
            attach(edge, lan)
            home_agents.append((lan, edge))
            leaf_links.append(lan)
    ordered = (
        core_names
        + [f"a{p:02d}-{j}" for p in range(k) for j in range(half)]
        + [f"e{p:02d}-{j}" for p in range(k) for j in range(half)]
    )
    return TopoGraph(
        model="fattree",
        params=(
            ("k", k),
            ("seed", seed),
            ("link_delay", link_delay),
            ("link_bandwidth_bps", link_bandwidth_bps),
            ("delay_jitter", delay_jitter),
        ),
        links=tuple(links),
        routers=tuple(
            RouterSpec(name, tuple(routers[name])) for name in ordered
        ),
        home_agents=tuple(home_agents),
        leaf_links=tuple(leaf_links),
    )


def waxman_graph(
    n: int = 50,
    alpha: float = 0.9,
    beta: float = 0.25,
    seed: int = 0,
    link_delay: float = 0.5e-3,
    link_bandwidth_bps: float = 100e6,
    delay_per_unit: float = 5e-3,
) -> TopoGraph:
    """Waxman random graph: n routers at seeded positions on the unit
    square; edge (u,v) with probability ``alpha·exp(−d/(beta·L))`` where
    L is the maximum pairwise distance.  A deterministic repair pass
    joins components by their closest router pair, so the result is
    always connected with no self-loops or parallel links.  Each router
    also gets one stub LAN (the leaf links); p2p delays grow with
    euclidean distance."""
    if n < 1:
        raise ValueError("waxman n must be >= 1")
    if not (0 < alpha <= 1) or beta <= 0:
        raise ValueError("waxman needs 0 < alpha <= 1 and beta > 0")
    rng = random.Random(derive_seed(seed, "topogen.waxman"))
    coords = [(rng.random(), rng.random()) for _ in range(n)]

    def dist(u: int, v: int) -> float:
        dx = coords[u][0] - coords[v][0]
        dy = coords[u][1] - coords[v][1]
        return math.sqrt(dx * dx + dy * dy)

    scale = max(
        (dist(u, v) for u in range(n) for v in range(u + 1, n)), default=1.0
    )
    scale = scale or 1.0
    edges: List[Tuple[int, int]] = []
    edge_set = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < alpha * math.exp(-dist(u, v) / (beta * scale)):
                edges.append((u, v))
                edge_set.add((u, v))

    # repair pass: union-find, then bridge closest pairs across components
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for u, v in edges:
        union(u, v)
    while True:
        roots = {find(i) for i in range(n)}
        if len(roots) <= 1:
            break
        best: Optional[Tuple[float, int, int]] = None
        main_root = find(0)
        for u in range(n):
            if find(u) != main_root:
                continue
            for v in range(n):
                if find(v) == main_root:
                    continue
                d = dist(u, v)
                if best is None or d < best[0]:
                    best = (d, u, v)
        assert best is not None
        _, u, v = best
        pair = (min(u, v), max(u, v))
        assert pair not in edge_set and pair[0] != pair[1]
        edges.append(pair)
        edge_set.add(pair)
        union(u, v)

    links: List[LinkSpec] = []
    router_atts: List[List[AttachmentSpec]] = [[] for _ in range(n)]
    home_agents: List[Tuple[str, str]] = []
    attach_count: Dict[str, int] = {}

    def attach(r: int, link: str) -> None:
        attach_count[link] = attach_count.get(link, 0) + 1
        router_atts[r].append(AttachmentSpec(link, attach_count[link]))

    for idx, (u, v) in enumerate(edges):
        name = f"w{idx:04d}"
        links.append(
            LinkSpec(
                name,
                _prefix_for(len(links)),
                delay=round(link_delay + delay_per_unit * dist(u, v), 9),
                bandwidth_bps=link_bandwidth_bps,
            )
        )
        attach(u, name)
        attach(v, name)
        home_agents.append((name, f"r{u:04d}" if u < v else f"r{v:04d}"))
    leaf_links: List[str] = []
    for r in range(n):
        lan = f"lan{r:04d}"
        links.append(
            LinkSpec(
                lan,
                _prefix_for(len(links)),
                delay=round(link_delay, 9),
                bandwidth_bps=link_bandwidth_bps,
            )
        )
        attach(r, lan)
        home_agents.append((lan, f"r{r:04d}"))
        leaf_links.append(lan)
    return TopoGraph(
        model="waxman",
        params=(
            ("n", n),
            ("alpha", alpha),
            ("beta", beta),
            ("seed", seed),
            ("link_delay", link_delay),
            ("link_bandwidth_bps", link_bandwidth_bps),
            ("delay_per_unit", delay_per_unit),
        ),
        links=tuple(links),
        routers=tuple(
            RouterSpec(f"r{r:04d}", tuple(router_atts[r])) for r in range(n)
        ),
        home_agents=tuple(home_agents),
        leaf_links=tuple(leaf_links),
    )


# ----------------------------------------------------------------------
# the paper's Figure 1
# ----------------------------------------------------------------------
#: Per-link IPv6 prefixes (Link i gets 2001:db8:i::/64).
LINK_PREFIXES: Dict[str, str] = {f"L{i}": f"2001:db8:{i}::/64" for i in range(1, 7)}

#: Router attachment map inferred from Figure 1 (see :func:`figure1_graph`).
ROUTER_LINKS: Dict[str, List[str]] = {
    "A": ["L1", "L2"],
    "B": ["L2", "L3"],
    "C": ["L2", "L3"],
    "D": ["L3", "L4", "L5"],
    "E": ["L3", "L6"],
}

#: Interface identifiers for the routers (A=1 ... E=5) on every link.
ROUTER_HOST_IDS: Dict[str, int] = {"A": 1, "B": 2, "C": 3, "D": 4, "E": 5}

#: Home agent of each link (paper §4.2: "Router A is home agent on
#: Link 1, Router B on Link 2, Router C on Link 3, Router D on Link 4
#: and 5, and Router E on Link 6").
HOME_AGENT_OF_LINK: Dict[str, str] = {
    "L1": "A",
    "L2": "B",
    "L3": "C",
    "L4": "D",
    "L5": "D",
    "L6": "E",
}

#: (home link, interface id) of each host of Figure 1.
HOST_HOMES: Dict[str, Tuple[str, int]] = {
    "S": ("L1", 100),
    "R1": ("L1", 101),
    "R2": ("L2", 102),
    "R3": ("L4", 103),
}


def figure1_graph(
    link_delay: float = 0.5e-3, link_bandwidth_bps: float = 100e6
) -> TopoGraph:
    """The paper's evaluation network (Figure 1) as a TopoGraph.

    Six links, five routers (each a PIM-DM router *and* home agent,
    §4.2), four hosts:

    * Link 1: Sender S, Receiver 1, Router A          (HA of Link 1: A)
    * Link 2: Router A, Router B, Router C, Receiver 2 (HA of Link 2: B)
    * Link 3: Router B, Router C, Router D, Router E   (HA of Link 3: C)
    * Link 4: Router D, Receiver 3                     (HA of Link 4: D)
    * Link 5: Router D                                 (HA of Link 5: D)
    * Link 6: Router E                                 (HA of Link 6: E)

    Routers B and C attach in parallel between Links 2 and 3 — the pair
    whose parallel forwarding exercises the PIM-DM assert election
    (§3.1).  See DESIGN.md §3 for the inference argument behind this
    reading of Figure 1.  The initial distribution tree for (S on
    Link 1, G) matches the figure: Link 1 → A → Link 2 → (B‖C,
    assert-elected) → Link 3 → D → Link 4; Links 5 and 6 stay off-tree.
    """
    links = tuple(
        LinkSpec(name, prefix, delay=link_delay, bandwidth_bps=link_bandwidth_bps)
        for name, prefix in LINK_PREFIXES.items()
    )
    routers = tuple(
        RouterSpec(
            name,
            tuple(
                AttachmentSpec(link, ROUTER_HOST_IDS[name])
                for link in link_names
            ),
        )
        for name, link_names in ROUTER_LINKS.items()
    )
    hosts = tuple(
        HostSpec(name, home_link, host_id)
        for name, (home_link, host_id) in HOST_HOMES.items()
    )
    return TopoGraph(
        model="figure1",
        params=(),
        links=links,
        routers=routers,
        home_agents=tuple(HOME_AGENT_OF_LINK.items()),
        leaf_links=("L1", "L2", "L4", "L5", "L6"),
        hosts=hosts,
    )


# ----------------------------------------------------------------------
# shared read-only graph cache
# ----------------------------------------------------------------------
_GRAPH_CACHE: Dict[str, TopoGraph] = {}


def _spec_key(spec: Dict[str, Any]) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def topo_graph(spec: Dict[str, Any]) -> TopoGraph:
    """Resolve a JSON-able ``{"model": ..., **params}`` spec to a graph.

    Results are cached per process keyed by the canonical spec, so
    campaign pool workers (which persist across cells) reuse one
    immutable graph for every cell sharing a topology instead of
    rebuilding it per cell.
    """
    key = _spec_key(spec)
    graph = _GRAPH_CACHE.get(key)
    if graph is None:
        params = dict(spec)
        model = params.pop("model")
        if model == "hier":
            graph = hierarchical_graph(**params)
        elif model == "fattree":
            graph = fattree_graph(**params)
        elif model == "waxman":
            graph = waxman_graph(**params)
        elif model == "figure1":
            if params:
                raise ValueError("figure1 takes no parameters")
            graph = figure1_graph()
        else:
            raise ValueError(f"unknown topology model {model!r}")
        _GRAPH_CACHE[key] = graph
    return graph


def clear_graph_cache() -> None:
    _GRAPH_CACHE.clear()


# ----------------------------------------------------------------------
# instantiation + placement
# ----------------------------------------------------------------------
@dataclass
class GeneratedTopology:
    """A built network plus placement helpers for HAs, sources, and
    mobile-receiver populations."""

    graph: TopoGraph
    net: Network
    routers: Dict[str, Any] = field(default_factory=dict)
    hosts: Dict[str, Any] = field(default_factory=dict)
    _host_serial: int = 0
    _mld_config: Any = None
    _mipv6_config: Any = None
    _recv_mode: Any = None
    _send_mode: Any = None

    # -- sugar ----------------------------------------------------------
    def link(self, name: str):
        return self.net.link(name)

    def router(self, name: str):
        return self.routers[name]

    def host(self, name: str):
        return self.hosts[name]

    @property
    def leaf_links(self) -> Tuple[str, ...]:
        return self.graph.leaf_links

    def home_agent_on(self, link_name: str):
        return self.routers[self.graph.ha_of(link_name)]

    # -- placement ------------------------------------------------------
    def add_host(self, name: str, link_name: str, host_id: Optional[int] = None):
        """Home one mobile host on ``link_name`` (HA per the graph)."""
        from ..mipv6 import MobileNode

        if host_id is None:
            host_id = HOST_ID_BASE + self._host_serial
        self._host_serial += 1
        link = self.net.link(link_name)
        ha = self.home_agent_on(link_name)
        host = MobileNode(
            self.net.sim,
            name,
            tracer=self.net.tracer,
            rng=self.net.rng,
            home_link=link,
            home_agent_address=ha.address_on(link),
            host_id=host_id,
            config=self._mipv6_config,
            mld_config=self._mld_config,
            recv_mode=self._recv_mode,
            send_mode=self._send_mode,
        )
        self.net.register_node(host)
        self.hosts[name] = host
        return host

    def place_source(self, name: str = "src", link_name: Optional[str] = None):
        """Home a sender on a leaf link (the first one by default)."""
        return self.add_host(name, link_name or self.graph.leaf_links[0])

    def place_receivers(
        self,
        count: int,
        name_prefix: str = "m",
        links: Optional[Sequence[str]] = None,
    ) -> List[Any]:
        """Home ``count`` mobile receivers round-robin over the leaf
        links (deterministic: placement is a pure function of count
        and link order)."""
        pool = list(links) if links is not None else list(self.graph.leaf_links)
        if not pool:
            raise ValueError("topology has no leaf links for receivers")
        return [
            self.add_host(f"{name_prefix}{i:05d}", pool[i % len(pool)])
            for i in range(count)
        ]

    def schedule_joins(
        self,
        hosts: Iterable[Any],
        group: Address,
        start: float = 1.0,
        spread: float = 5.0,
        stream: str = "topogen.joins",
    ) -> None:
        """Schedule each host's group join at a seeded time in
        ``[start, start + spread)``."""
        rng = self.net.rng.stream(stream)
        for host in hosts:
            at = start + rng.uniform(0.0, spread)
            self.net.sim.schedule_at(
                at, host.join_group, group, label=f"{host.name}.join"
            )

    def schedule_moves(
        self,
        hosts: Sequence[Any],
        moves_per_host: float,
        start: float,
        horizon: float,
        stream: str = "topogen.moves",
    ) -> int:
        """Schedule seeded handovers: on average ``moves_per_host``
        uniform moves per host to a uniformly-chosen other leaf link in
        ``[start, horizon)``.  Returns the number scheduled."""
        if moves_per_host <= 0 or horizon <= start or len(self.graph.leaf_links) < 2:
            return 0
        rng = self.net.rng.stream(stream)
        scheduled = 0
        for host in hosts:
            n = int(moves_per_host)
            if rng.uniform(0.0, 1.0) < (moves_per_host - n):
                n += 1
            for _ in range(n):
                at = start + rng.uniform(0.0, horizon - start)
                target = rng.choice(
                    [l for l in self.graph.leaf_links if l != host.home_link.name]
                )
                self.net.sim.schedule_at(
                    at,
                    host.move_to,
                    self.net.link(target),
                    label=f"{host.name}.move",
                )
                scheduled += 1
        return scheduled

    def make_group(self, group_id: int = 1) -> Address:
        return make_multicast_group(group_id)

    def tree_links(self, source: Address, group: Address) -> Dict[str, List[str]]:
        """Per-router forwarding links — the live distribution tree."""
        return {
            name: router.pim.forwarding_links(source, group)
            for name, router in sorted(self.routers.items())
        }


def build_network(
    graph: TopoGraph,
    seed: int = 0,
    pim_config=None,
    mld_config=None,
    mipv6_config=None,
    recv_mode=None,
    send_mode=None,
    trace_link_events: bool = False,
) -> GeneratedTopology:
    """Instantiate ``graph`` into a fresh :class:`Network`.

    Every router is a :class:`~repro.mipv6.HomeAgent` (PIM-DM + MLD +
    HA duty, as in the paper where each link has a designated home
    agent); pre-placed hosts (Figure 1) become
    :class:`~repro.mipv6.MobileNode`\\ s.  Construction follows graph
    order exactly, so equal graphs yield identical networks.
    """
    from ..mipv6 import DeliveryMode, HomeAgent, MobileNode

    recv_mode = DeliveryMode.LOCAL if recv_mode is None else recv_mode
    send_mode = DeliveryMode.LOCAL if send_mode is None else send_mode
    net = Network(seed=seed, trace_link_events=trace_link_events)
    built = GeneratedTopology(
        graph=graph,
        net=net,
        _mld_config=mld_config,
        _mipv6_config=mipv6_config,
        _recv_mode=recv_mode,
        _send_mode=send_mode,
    )
    for spec in graph.links:
        net.add_link(
            spec.name,
            spec.prefix,
            delay=spec.delay,
            bandwidth_bps=spec.bandwidth_bps,
        )
    for rspec in graph.routers:
        router = HomeAgent(
            net.sim,
            rspec.name,
            tracer=net.tracer,
            rng=net.rng,
            pim_config=pim_config,
            mld_config=mld_config,
            mipv6_config=mipv6_config,
        )
        for att in rspec.attachments:
            link = net.link(att.link)
            router.attach_to(link, link.prefix.address_for_host(att.host_id))
        net.register_node(router)
        net.on_start(router.start)
        built.routers[rspec.name] = router
    for hspec in graph.hosts:
        link = net.link(hspec.home_link)
        ha = built.routers[graph.ha_of(hspec.home_link)]
        host = MobileNode(
            net.sim,
            hspec.name,
            tracer=net.tracer,
            rng=net.rng,
            home_link=link,
            home_agent_address=ha.address_on(link),
            host_id=hspec.host_id,
            config=mipv6_config,
            mld_config=mld_config,
            recv_mode=recv_mode,
            send_mode=send_mode,
        )
        net.register_node(host)
        built.hosts[hspec.name] = host
    return built
