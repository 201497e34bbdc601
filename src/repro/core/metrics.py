"""Scenario metrics: the quantities of the paper's §4.3 comparison.

Everything is derived from the structured trace and the per-link byte
accounting — the protocol code is not instrumented ad hoc:

* **join delay** — attachment of a mobile receiver to a link → first
  multicast delivery (paper §4.2.1-A); measured by
  :class:`~repro.traffic.apps.ReceiverApp`, with the handoff start
  available here,
* **leave delay** — departure of the last member from a link → the MLD
  router detecting the absence and PIM-DM stopping forwarding
  (paper §4.2.1-A),
* **bandwidth** — wasted multicast bytes on memberless links, tunnel
  overhead bytes, signaling bytes by protocol (§4.3 criteria),
* **routing optimality** — measured end-to-end latency against the
  shortest-path latency between the current sender and receiver links
  (stretch 1.0 = optimal; tunnels cross links twice → stretch > 1),
* **system load** — per-node encapsulation/forwarding counters, PIM
  state sizes, binding-cache sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..net import Address, Network
from ..net.link import Link

__all__ = ["StatsSnapshot", "ScenarioMetrics", "per_hop_latency"]


def per_hop_latency(link: Link, payload_bytes: int) -> float:
    """Idle-link crossing time for a datagram of ``payload_bytes`` app
    payload (+40-byte IPv6 header): serialization + propagation."""
    wire = payload_bytes + 40
    return wire * 8 / link.bandwidth_bps + link.delay


@dataclass
class StatsSnapshot:
    """A point-in-time copy of all link byte counters."""

    time: float
    data: Dict[str, Dict[str, int]]

    def bytes_on(self, link: str, category: Optional[str] = None) -> int:
        per_link = self.data.get(link, {})
        if category is None:
            return sum(per_link.values())
        return per_link.get(category, 0)

    def total(self, category: Optional[str] = None) -> int:
        return sum(self.bytes_on(link, category) for link in self.data)

    def delta(self, earlier: "StatsSnapshot") -> "StatsSnapshot":
        """Byte counts accumulated since ``earlier``."""
        out: Dict[str, Dict[str, int]] = {}
        for link, cats in self.data.items():
            base = earlier.data.get(link, {})
            out[link] = {c: v - base.get(c, 0) for c, v in cats.items()}
        return StatsSnapshot(time=self.time, data=out)


class ScenarioMetrics:
    """Trace/stats-backed metric queries for one simulation run.

    Every trace read goes through the tracer's indexed store
    (:class:`repro.obs.store.TraceStore`), so the per-category /
    per-node / time-window lookups below cost O(log k) instead of a
    scan over the whole event list.
    """

    def __init__(self, net: Network) -> None:
        self.net = net

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> StatsSnapshot:
        return StatsSnapshot(time=self.net.now, data=self.net.stats.snapshot())

    # ------------------------------------------------------------------
    # delays
    # ------------------------------------------------------------------
    def move_start_time(self, host: str, after: float = 0.0) -> Optional[float]:
        ev = self.net.tracer.first("mobility", node=host, since=after, event="detached")
        return ev.time if ev else None

    def attach_time(self, host: str, link: str, after: float = 0.0) -> Optional[float]:
        ev = self.net.tracer.first(
            "mobility", node=host, since=after, event="attached", link=link
        )
        return ev.time if ev else None

    def coa_ready_time(self, host: str, after: float = 0.0) -> Optional[float]:
        ev = self.net.tracer.first(
            "mobility", node=host, since=after, event="coa-configured"
        )
        return ev.time if ev else None

    def leave_delay(
        self, link: str, group: Address, departure_time: float
    ) -> Optional[float]:
        """Departure → MLD detecting no members left on ``link``.

        Bounded by T_MLI (260 s with defaults, paper §4.2.1-A).
        """
        ev = self.net.tracer.first(
            "mld",
            since=departure_time,
            event="members-gone",
            link=link,
            group=str(group),
        )
        return ev.time - departure_time if ev else None

    def binding_update_rtts(self, host: str) -> List[float]:
        node = self.net.node(host)
        return list(getattr(node, "bu_rtts", []))

    # ------------------------------------------------------------------
    # protocol event counts
    # ------------------------------------------------------------------
    def assert_count(self, since: float = 0.0) -> int:
        return self.net.tracer.count("pim", since=since, event="assert-sent")

    def graft_count(self, since: float = 0.0) -> int:
        return self.net.tracer.count("pim", since=since, event="graft-sent")

    def prune_count(self, since: float = 0.0) -> int:
        return self.net.tracer.count("pim", since=since, event="prune-sent")

    def entries_created(self, source: Optional[Address] = None, since: float = 0.0) -> int:
        kwargs = {"event": "entry-created"}
        if source is not None:
            kwargs["source"] = str(source)
        return self.net.tracer.count("pim.state", since=since, **kwargs)

    def flood_extent(self, source: Address, group: Address, since: float = 0.0) -> List[str]:
        """Distinct links that carried (S,G) data since ``since``."""
        links = set()
        for ev in self.net.tracer.query(
            "mcast.forward", since=since, source=str(source), group=str(group)
        ):
            links.update(ev.detail.get("links", []))
        return sorted(links)

    # ------------------------------------------------------------------
    # routing optimality
    # ------------------------------------------------------------------
    def optimal_latency(
        self, from_link: str, to_link: str, payload_bytes: int
    ) -> float:
        hops = self.net.shortest_path_links(from_link, to_link)
        link = self.net.link(from_link)
        return hops * per_hop_latency(link, payload_bytes)

    def stretch(
        self,
        measured_latency: float,
        from_link: str,
        to_link: str,
        payload_bytes: int,
    ) -> float:
        """Measured / shortest-path latency (1.0 = optimal routing)."""
        return measured_latency / self.optimal_latency(from_link, to_link, payload_bytes)

    # ------------------------------------------------------------------
    # system load
    # ------------------------------------------------------------------
    def system_load(self) -> Dict[str, Dict[str, int]]:
        """Per-node load counters (§4.3: processing/storage load)."""
        out: Dict[str, Dict[str, int]] = {}
        for name, node in sorted(self.net.nodes.items()):
            row = dict(node.load)
            pim = getattr(node, "pim", None)
            if pim is not None:
                row["pim_entries"] = len(pim.entries)
                row["node_groups"] = len(pim.node_groups)
            cache = getattr(node, "binding_cache", None)
            if cache is not None:
                row["bindings"] = len(cache)
                row["groups_on_behalf"] = len(cache.all_groups())
            out[name] = row
        return out

    def publish(self, registry) -> None:
        """Export the run's current state into a metrics registry.

        Publishes the per-link byte/packet counters (via
        ``NetworkStats.publish_to``) and the §4.3 per-node load rows as
        ``repro_node_load{node,counter}`` gauges.  ``registry`` is any
        :class:`repro.obs.registry.MetricsRegistry`-shaped object.
        """
        self.net.stats.publish_to(registry)
        load_gauge = registry.gauge(
            "repro_node_load",
            "Per-node processing/storage load counters (§4.3)",
            ("node", "counter"),
        )
        for name, row in self.system_load().items():
            for counter, value in row.items():
                load_gauge.labels(node=name, counter=counter).set(value)

    def total_encapsulations(self) -> int:
        return sum(n.load["encapsulations"] for n in self.net.nodes.values())

    def home_agent_encapsulations(self) -> int:
        return sum(
            n.load["encapsulations"]
            for n in self.net.nodes.values()
            if hasattr(n, "binding_cache")
        )
