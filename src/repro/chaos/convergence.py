"""Post-fault convergence oracle.

PIM-DM is a soft-state protocol: after arbitrary link/node churn it is
supposed to *self-stabilize* — the broadcast-and-prune tree regrows to
exactly the shortest-path (RPF) tree for the healed topology.  This
module checks that claim mechanically.

:func:`evaluate_convergence` recomputes the **reference** forwarding
state for one (S,G) flow from first principles — a flood-and-prune
emulation over the healed topology's static FIBs, with forwarders
elected per link by the assert rules (lower metric to source, ties to
the numerically higher address) — and diffs it against the **live**
tree implied by every router's (S,G) state (an RPF-checked flood from
the source link through each router's ``outgoing_ifaces``).  The diff
reads live state only through the :mod:`repro.pimdm.state` surface
(``get_entry``, ``downstream.get``) and never creates state itself.

Divergence rules
================

=====================  ================================================
``member-not-tracked``  a joined host's link has no router with live
                        MLD membership for the group
``unreached-link``      the reference tree carries the flow over a
                        link the live tree never reaches
``stale-oif``           the live tree forwards onto a link the
                        reference flood does not cover (a prunable
                        oif that never got pruned)
``duplicate-forwarder`` two routers both forward onto one link
                        (assert election failed to converge)
``stale-rpf``           a router's (S,G) upstream iface disagrees with
                        its FIB's RPF iface
``graft-stuck``         pruned toward upstream while still having
                        local interest (graft never completed)
``prune-stuck``         a downstream iface marked pruned with no
                        running prune-hold timer
``assert-stuck``        an assert loser with no running assert timer
``no-rpf-path``         the reference flood cannot reach some joined
                        host's link at all (topology cut off)
=====================  ================================================

:class:`ConvergenceOracle` wraps the evaluation as a
:class:`repro.invariants.base.Oracle`: it passively timestamps the
last (S,G) state mutation seen in the trace (never scheduling events,
preserving the monitor's trace-invisibility contract), and at
``finalize()`` — called after the plan's last heal plus the settle
window — evaluates every flow and reports each residual divergence as
a violation.  ``convergence_time`` is the gap between the last heal
and the last state mutation, defined only when the flow converged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..invariants.base import Oracle
from ..sim.trace import TraceEvent

__all__ = [
    "ConvergenceOracle",
    "STATE_MUTATION_EVENTS",
    "evaluate_convergence",
]

#: PIM trace events that mutate (S,G)/neighbor state.  Message *sends*
#: (prune-sent, graft-sent, assert-sent, ...) are excluded: a periodic
#: retry is not a state change, and convergence means the state stops
#: moving, not that the protocol goes silent.
STATE_MUTATION_EVENTS = frozenset({
    "entry-created",
    "entry-expired",
    "oif-pruned",
    "oif-prune-expired",
    "oif-grafted",
    "oif-added",
    "oif-removed",
    "graft-acked",
    "prune-pending",
    "join-override-received",
    "assert-lost",
    "assert-winner-stored",
    "assert-expired",
    "neighbor-up",
    "neighbor-expired",
    "node-join",
    "node-leave",
})


def _rpf_link(router, source) -> Optional[Tuple[str, int]]:
    """(link name, metric) of the router's FIB route toward ``source``."""
    entry = router.routing.lookup(source)
    if entry is None or entry.iface.link is None:
        return None
    return entry.iface.link.name, entry.metric


def _routers_on(net, link_name: str) -> List[Any]:
    """Non-crashed routers attached to a link, attachment order."""
    return [
        iface.node
        for iface in net.link(link_name).interfaces
        if iface.node.is_router and not iface.node.crashed
    ]


def _member_links(net, group) -> Tuple[Set[str], Set[str], List[Dict[str, Any]]]:
    """(host-derived links, router-MLD-derived links, divergences).

    Host ``joined_groups`` is the ground truth; the router-MLD view may
    additionally hold *stale* memberships for hosts that moved away —
    legitimate interest under MLD's leave latency, so the reference
    tree must cover the union.  A joined host whose link no router
    tracks is a real divergence (membership lost across a fault).
    """
    host_links: Set[str] = set()
    divergences: List[Dict[str, Any]] = []
    for host in net.hosts():
        if group not in getattr(host, "joined_groups", ()):
            continue
        attached = [i for i in host.interfaces if i.link is not None]
        if not attached:
            continue  # still detached (blackout ran past the window)
        link_name = attached[0].link.name
        host_links.add(link_name)
        tracked = any(
            r.mld_router.has_members(r.iface_on(net.link(link_name)), group)
            for r in _routers_on(net, link_name)
        )
        if not tracked:
            divergences.append({
                "rule": "member-not-tracked", "node": host.name,
                "link": link_name,
            })
    mld_links: Set[str] = set()
    for router in net.routers():
        if router.crashed:
            continue
        for iface in router.interfaces:
            if iface.link is not None and router.mld_router.has_members(
                iface, group
            ):
                mld_links.add(iface.link.name)
    return host_links, mld_links, divergences


def _reference_links(
    net, source, source_link: str, member_links: Iterable[str],
    host_member_links: Iterable[str],
) -> Tuple[Set[str], List[Dict[str, Any]]]:
    """The reference link set: a flood-and-prune emulation on the
    healed topology.

    Dense mode converges to "flood minus prunes", not to the minimal
    member tree: a prune is only ever sent by a router whose *RPF*
    interface the data arrives on, so a cross-link whose routers all
    RPF elsewhere keeps carrying (and discarding) data forever — that
    is converged protocol state, and the reference must include it.
    A link ``M`` carries data iff its elected forwarder has data on
    its own RPF link and ``M`` is *wanted*:

    * ``M`` has local members (live MLD state), or
    * ``M`` has no RPF children to prune it but does have PIM
      neighbors (the permanent-flood case), or
    * some RPF child of ``M`` has downstream interest (it would
      graft/join-override any prune).

    Interest is computed first, bottom-up, by a monotone fixpoint with
    *ungated* elections — a router's downstream interest (what drives
    grafts and join overrides) does not depend on whether data is
    currently arriving.  The reached closure then floods from the
    source link with elections gated on data actually being available
    at the candidate forwarder, so a wanted-but-severed branch stays
    out of the reference.  Both passes are bounded, deterministic, and
    independent of any router's live (S,G) state.
    """
    members = set(member_links)
    routers = [r for r in net.routers() if not r.crashed]
    rpf: Dict[str, Optional[Tuple[str, int]]] = {
        r.name: _rpf_link(r, source) for r in routers
    }
    link_names = set(net.links.keys())
    rpf_children: Dict[str, List[Any]] = {L: [] for L in link_names}
    for r in routers:
        route = rpf[r.name]
        if route is not None:
            rpf_children[route[0]].append(r)
    multi_router = {L: len(_routers_on(net, L)) >= 2 for L in link_names}

    def elect(link_name: str, reached: Optional[Set[str]] = None):
        pool = []
        for r in _routers_on(net, link_name):
            route = rpf[r.name]
            if route is None or route[0] == link_name:
                continue
            if reached is not None and route[0] not in reached:
                continue  # no data at this candidate yet
            address = r.address_on(net.link(link_name))
            if address is None:
                continue
            pool.append((route[1], address, r))
        if not pool:
            return None
        best_metric = min(metric for metric, _, _ in pool)
        return max(
            (c for c in pool if c[0] == best_metric), key=lambda c: c[1]
        )[2]

    def wanted(link_name: str, want: Dict[str, bool]) -> bool:
        if link_name in members:
            return True
        children = rpf_children[link_name]
        if not children:
            return multi_router[link_name]
        return any(want[c.name] for c in children)

    want: Dict[str, bool] = {r.name: False for r in routers}
    changed = True
    while changed:
        changed = False
        for r in routers:
            if want[r.name]:
                continue
            route = rpf[r.name]
            for iface in r.interfaces:
                if iface.link is None:
                    continue
                link_name = iface.link.name
                if route is not None and link_name == route[0]:
                    continue
                if elect(link_name) is r and wanted(link_name, want):
                    want[r.name] = True
                    changed = True
                    break

    reached: Set[str] = {source_link}
    changed = True
    while changed:
        changed = False
        for link_name in link_names - reached:
            forwarder = elect(link_name, reached)
            if forwarder is not None and wanted(link_name, want):
                reached.add(link_name)
                changed = True
    divergences = [
        {"rule": "no-rpf-path", "node": link_name, "link": link_name}
        for link_name in sorted(set(host_member_links) - reached)
    ]
    return reached, divergences


def _live_links(
    net, source, group, source_link: str
) -> Tuple[Set[str], Dict[str, List[str]]]:
    """Links the live (S,G) state actually floods: an RPF-checked walk
    from the source link through each router's ``outgoing_ifaces``.
    Also returns forwarders per link for duplicate detection."""
    reached: Set[str] = {source_link}
    forwarders: Dict[str, List[str]] = {}
    frontier = [source_link]
    while frontier:
        link_name = frontier.pop()
        for router in _routers_on(net, link_name):
            entry = router.pim.get_entry(source, group)
            if entry is None or entry.upstream_iface is None:
                continue
            upstream = entry.upstream_iface.link
            if upstream is None or upstream.name != link_name:
                continue  # data arriving here would fail the RPF check
            for oif in router.pim.outgoing_ifaces(entry):
                if oif.link is None or not oif.link.up:
                    continue
                out = oif.link.name
                forwarders.setdefault(out, []).append(router.name)
                if out not in reached:
                    reached.add(out)
                    frontier.append(out)
    return reached, forwarders


def _liveness_sweep(net, source, group) -> List[Dict[str, Any]]:
    """Per-router residual-state checks: nothing stays pending forever."""
    divergences: List[Dict[str, Any]] = []
    for router in sorted(net.routers(), key=lambda r: r.name):
        if router.crashed:
            continue
        entry = router.pim.get_entry(source, group)
        if entry is None:
            continue
        rpf = _rpf_link(router, source)
        upstream = (
            entry.upstream_iface.link.name
            if entry.upstream_iface is not None
            and entry.upstream_iface.link is not None
            else None
        )
        if rpf is not None and upstream != rpf[0]:
            divergences.append({
                "rule": "stale-rpf", "node": router.name,
                "upstream": upstream, "expected": rpf[0],
            })
        interest = (
            entry.group in router.pim.node_groups
            or bool(router.pim.outgoing_ifaces(entry))
        )
        if entry.pruned_upstream and interest:
            divergences.append({
                "rule": "graft-stuck", "node": router.name,
                "graft_retry_running": (
                    entry.graft_retry_timer is not None
                    and entry.graft_retry_timer.running
                ),
            })
        for iface in router.interfaces:
            if iface.link is None:
                continue
            # .get() not .state_for(): the oracle must never create
            # downstream state as a side effect of observing it.
            state = entry.downstream.get(iface.uid)
            if state is None:
                continue
            if state.pruned and not (
                state.prune_hold_timer is not None
                and state.prune_hold_timer.running
            ) and not (
                state.prune_pending_timer is not None
                and state.prune_pending_timer.running
            ):
                divergences.append({
                    "rule": "prune-stuck", "node": router.name,
                    "iface_link": iface.link.name,
                })
            if state.assert_loser and not (
                state.assert_timer is not None and state.assert_timer.running
            ):
                divergences.append({
                    "rule": "assert-stuck", "node": router.name,
                    "iface_link": iface.link.name,
                })
    return divergences


def evaluate_convergence(net, source_name: str, group) -> Dict[str, Any]:
    """Diff the live (S,G) forwarding state against the healed-topology
    reference tree.  Returns a JSON-able verdict::

        {"converged": bool, "divergences": [...],
         "member_links": n, "reference_links": n, "live_links": n}

    Precondition: the fault plan has healed (no link down, no node
    crashed) — the reference is only defined for the healed topology.
    """
    source_node = net.node(source_name)
    attached = [i for i in source_node.interfaces if i.link is not None]
    if not attached:
        return {
            "converged": False,
            "divergences": [{"rule": "source-detached", "node": source_name}],
            "member_links": 0, "reference_links": 0, "live_links": 0,
        }
    source_link = attached[0].link.name
    source = source_node.primary_address()

    host_links, mld_links, divergences = _member_links(net, group)
    member_links = host_links | mld_links
    reference, ref_div = _reference_links(
        net, source, source_link, member_links, host_links
    )
    divergences.extend(ref_div)
    reached, forwarders = _live_links(net, source, group, source_link)

    for link_name in sorted(reference - reached):
        divergences.append({
            "rule": "unreached-link", "node": link_name, "link": link_name,
        })
    for link_name in sorted(reached - reference):
        divergences.append({
            "rule": "stale-oif",
            "node": forwarders.get(link_name, ["?"])[0],
            "link": link_name,
        })
    for link_name in sorted(forwarders):
        names = sorted(set(forwarders[link_name]))
        if len(names) > 1:
            divergences.append({
                "rule": "duplicate-forwarder", "node": link_name,
                "link": link_name, "forwarders": names,
            })
    divergences.extend(_liveness_sweep(net, source, group))
    return {
        "converged": not divergences,
        "divergences": divergences,
        "member_links": len(member_links),
        "reference_links": len(reference),
        "live_links": len(reached),
    }


class ConvergenceOracle(Oracle):
    """Arm on a chaos run; verdicts land in :attr:`results` at finalize.

    ``flows`` is a sequence of ``(source node name, group address)``
    pairs.  ``heal_at`` is the plan's declared last heal time
    (:meth:`repro.faults.FaultPlan.last_heal_time`); the run must
    extend at least ``settle`` seconds past it before ``finalize()``
    for the verdict to be meaningful.
    """

    name = "convergence"

    def __init__(
        self,
        flows: Sequence[Tuple[str, Any]],
        heal_at: float = 0.0,
        settle: float = 20.0,
    ) -> None:
        super().__init__()
        self.flows = list(flows)
        self.heal_at = heal_at
        self.settle = settle
        self.last_mutation = 0.0
        self.last_fault: Optional[float] = None
        self.results: List[Dict[str, Any]] = []

    def routes(self) -> Dict[str, Callable[[TraceEvent], None]]:
        return {
            "pim": self._on_pim,
            "pim.state": self._on_pim,
            "fault": self._on_fault,
        }

    def _on_pim(self, ev: TraceEvent) -> None:
        if ev.detail.get("event") in STATE_MUTATION_EVENTS:
            self.last_mutation = ev.time

    def _on_fault(self, ev: TraceEvent) -> None:
        self.last_fault = ev.time

    def finalize(self) -> None:
        for source_name, group in self.flows:
            verdict = evaluate_convergence(self.net, source_name, group)
            verdict["flow"] = {"source": source_name, "group": str(group)}
            verdict["heal_at"] = self.heal_at
            verdict["settle"] = self.settle
            verdict["convergence_time"] = (
                round(max(0.0, self.last_mutation - self.heal_at), 6)
                if verdict["converged"]
                else None
            )
            self.results.append(verdict)
            for divergence in verdict["divergences"]:
                detail = {
                    k: v for k, v in divergence.items()
                    if k not in ("rule", "node")
                }
                self.violate(
                    divergence["rule"], divergence["node"],
                    source=source_name, group=str(group), **detail,
                )
