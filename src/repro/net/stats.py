"""Per-link bandwidth accounting by traffic category.

Section 4.3 of the paper compares the four delivery approaches on
*bandwidth consumption*, split into

* useful vs. **wasted multicast data** (data forwarded onto links with
  no group members — the leave-delay and re-flood costs),
* **tunnel overhead** (extra outer IPv6 headers on every tunneled
  datagram),
* **signaling** (MLD Queries/Reports, PIM control, Mobile IPv6 Binding
  Updates).

Every transmission on a :class:`~repro.net.link.Link` is classified
here and charged to the link's counters; experiment code reads the
aggregates afterwards.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional

from .packet import Ipv6Packet

if TYPE_CHECKING:  # pragma: no cover
    from .link import Link

__all__ = [
    "classify_packet",
    "estimate_state_bytes",
    "LinkStats",
    "NetworkStats",
    "CATEGORIES",
    "FLUID_PROBE_CATEGORY",
    "STATE_BYTE_COSTS",
    "STATE_KINDS",
]

#: All categories charged by :func:`classify_packet`.
CATEGORIES = (
    "mcast_data",
    "unicast_data",
    "mld",
    "pim",
    "mipv6",
    "tunnel_overhead",
)

#: Fluid-mode probe datagrams are real transmissions but their bytes
#: belong to the analytic accounting, so they are diverted to this
#: category (outside ``CATEGORIES``) instead of ``mcast_data`` /
#: ``tunnel_overhead``.  See ``repro.traffic.fluid``.
FLUID_PROBE_CATEGORY = "fluid_probe"


#: Protocol-state entry kinds aggregated per topology.
STATE_KINDS = (
    "pim_sg",
    "pim_downstream",
    "pim_neighbor",
    "mld_membership",
    "mipv6_binding",
)

#: Analytic bytes-per-entry model for the memory-proxy gauges: one row
#: per *modelled* (S,G) state layout, the seed one and the compact one.
#: Deterministic documented constants — not ``sys.getsizeof`` — so
#: campaign results compare across machines and Python builds.  The
#: model (CPython 64-bit):
#:
#: * ``dict`` — the seed layout: an (S,G) entry is a dataclass instance
#:   with ``__dict__`` (~360 B), a key tuple of two 128-bit address ints
#:   (~160 B), and an entries-dict slot (~100 B) → 620 B; each
#:   downstream state is a ``__dict__`` dataclass (~320 B) plus its
#:   per-entry dict slot (~100 B) → 420 B.
#: * ``compact`` — same entry body but a small-int interned key
#:   (~28 B amortised) and a dense-dict slot → 450 B; each downstream
#:   state is slotted (~110 B), indexed by a list slot (8 B), with
#:   pruned/assert-loser flags pooled into two per-entry bitmask ints
#:   (amortised ~2 B) → 120 B.
#:
#: The simulator runs one layout (``repro.pimdm.state``); the two rows
#: are a model, and their ratio is EXP-S1's aggregation gain.
#: Neighbor, MLD-membership, and binding-cache entries cost the same in
#: both rows; they dilute the aggregation gain exactly as
#: unaggregatable state does in Helmy's study.
STATE_BYTE_COSTS: Dict[str, Dict[str, int]] = {
    "dict": {
        "pim_sg": 620,
        "pim_downstream": 420,
        "pim_neighbor": 180,
        "mld_membership": 250,
        "mipv6_binding": 280,
    },
    "compact": {
        "pim_sg": 450,
        "pim_downstream": 120,
        "pim_neighbor": 180,
        "mld_membership": 250,
        "mipv6_binding": 280,
    },
}


def estimate_state_bytes(counts: Dict[str, int], layout: str) -> int:
    """Total modelled bytes for ``counts`` under ``layout``'s costs."""
    costs = STATE_BYTE_COSTS[layout]
    return sum(costs.get(kind, 0) * value for kind, value in counts.items())


def classify_packet(packet: Ipv6Packet) -> str:
    """Classify a packet by its innermost payload.

    Tunneled packets classify as their inner content; the encapsulation
    bytes are charged separately to ``tunnel_overhead`` by the caller
    (see :meth:`LinkStats.account`).  The result is memoized on the
    (immutable) packet, which is charged once per hop.
    """
    category = packet._category
    if category is not None:
        return category
    message = packet.innermost_message()
    category = message.protocol
    if category == "app":
        if getattr(message, "probe", False):
            category = FLUID_PROBE_CATEGORY
        elif packet.inner.dst.is_multicast:
            category = "mcast_data"
        else:
            category = "unicast_data"
    packet._category = category
    return category


@dataclass
class LinkStats:
    """Byte/packet counters for one link."""

    bytes_by_category: Dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    packets_by_category: Dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    #: link-level frame drops by reason (``nd-failure``, ``link-loss``,
    #: ``link-down``, ``node-crashed``, ``receiver-detached``) — counted
    #: here so delivery ratios are computable without a tracer attached
    drops_by_reason: Dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    def account(self, packet: Ipv6Packet) -> str:
        """Charge one transmission; returns the category used."""
        category = classify_packet(packet)
        size = packet.size_bytes
        inner = packet._inner
        if inner is None or category == FLUID_PROBE_CATEGORY:
            # An untunnelled packet has no overhead to split off.  Probe
            # datagrams carry their whole wire size (tunnel headers
            # included) in the probe bucket: the analytic fluid charges
            # must stay exactly rate x dt per data category.
            self.bytes_by_category[category] += size
            self.packets_by_category[category] += 1
            return category
        inner_size = inner.size_bytes
        self.bytes_by_category[category] += inner_size
        self.packets_by_category[category] += 1
        # at least one outer header: never zero
        self.bytes_by_category["tunnel_overhead"] += size - inner_size
        return category

    def account_rate(self, category: str, nbytes: float, npackets: float) -> None:
        """Charge analytically integrated traffic (fluid model)."""
        self.bytes_by_category[category] += nbytes
        if npackets:
            self.packets_by_category[category] += npackets

    def bytes(self, category: Optional[str] = None) -> int:
        if category is None:
            return sum(self.bytes_by_category.values())
        return self.bytes_by_category.get(category, 0)

    def packets(self, category: Optional[str] = None) -> int:
        if category is None:
            return sum(self.packets_by_category.values())
        return self.packets_by_category.get(category, 0)

    def record_drop(self, reason: str) -> None:
        self.drops_by_reason[reason] += 1

    def drops(self, reason: Optional[str] = None) -> int:
        if reason is None:
            return sum(self.drops_by_reason.values())
        return self.drops_by_reason.get(reason, 0)


#: what a read of a link that carried nothing sees; never written
_NO_TRAFFIC = LinkStats()


class NetworkStats:
    """Aggregated accounting across all links of a topology."""

    def __init__(self) -> None:
        self._per_link: Dict[str, LinkStats] = {}
        #: aggregate protocol-state entry counts (kind -> entries),
        #: recorded by ``Network.collect_state`` — the topology-wide
        #: memory proxy (peak RSS stand-in) for the scaling study
        self.state_entries: Dict[str, int] = {}
        #: called before every read of the byte and packet counters
        #: (single counters, totals, snapshot, publish): a traffic model
        #: that integrates lazily (fluid) registers its ``sync`` here, so
        #: a read never sees counters that lag ``sim.now``
        self.sync_hook: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # aggregate protocol-state accounting (memory proxy)
    # ------------------------------------------------------------------
    def record_state(self, counts: Dict[str, int]) -> None:
        """Record a snapshot of per-kind state-entry counts.

        Keeps the per-kind **maximum** across snapshots so repeated
        collection during a run yields a peak-state proxy rather than
        whatever the final teardown left behind.
        """
        for kind, value in counts.items():
            if value > self.state_entries.get(kind, 0):
                self.state_entries[kind] = value

    def state_snapshot(self) -> Dict[str, object]:
        """JSON-able view of the aggregate state accounting: per-kind
        entry counts, the total, and the modelled byte cost under both
        modelled layouts (their ratio is the aggregation gain)."""
        entries = {kind: self.state_entries.get(kind, 0) for kind in STATE_KINDS}
        return {
            "entries": entries,
            "total_entries": sum(entries.values()),
            "bytes": {
                layout: estimate_state_bytes(entries, layout)
                for layout in sorted(STATE_BYTE_COSTS)
            },
        }

    def stats_for(self, link_name: str) -> LinkStats:
        """The link's counters, created on first use (writers only)."""
        stats = self._per_link.get(link_name)
        if stats is None:
            stats = self._per_link[link_name] = LinkStats()
        return stats

    def _read(self, link_name: str) -> LinkStats:
        """The link's counters for a read: an unknown link reads 0 and
        is not added to later snapshots."""
        return self._per_link.get(link_name, _NO_TRAFFIC)

    def account_drop(self, link_name: str, reason: str) -> None:
        self.stats_for(link_name).record_drop(reason)

    def account_fluid(
        self, link_name: str, category: str, nbytes: float, npackets: float = 0.0
    ) -> None:
        """Charge analytically integrated bytes/packets to a link.

        Used by :class:`repro.traffic.fluid.FluidModel`; counters become
        floats, which every reader (snapshots, deltas, JSON export)
        already tolerates.
        """
        self.stats_for(link_name).account_rate(category, nbytes, npackets)

    # ------------------------------------------------------------------
    def _sync(self) -> None:
        if self.sync_hook is not None:
            self.sync_hook()

    def link_bytes(self, link_name: str, category: Optional[str] = None) -> int:
        self._sync()
        return self._read(link_name).bytes(category)

    def link_packets(self, link_name: str, category: Optional[str] = None) -> int:
        self._sync()
        return self._read(link_name).packets(category)

    def total_bytes(
        self,
        category: Optional[str] = None,
        links: Optional[Iterable[str]] = None,
    ) -> int:
        self._sync()
        names = list(links) if links is not None else list(self._per_link)
        return sum(self._read(n).bytes(category) for n in names)

    def total_packets(
        self,
        category: Optional[str] = None,
        links: Optional[Iterable[str]] = None,
    ) -> int:
        self._sync()
        names = list(links) if links is not None else list(self._per_link)
        return sum(self._read(n).packets(category) for n in names)

    def signaling_bytes(self, links: Optional[Iterable[str]] = None) -> int:
        """All protocol-control bytes (MLD + PIM + Mobile IPv6)."""
        return sum(self.total_bytes(c, links) for c in ("mld", "pim", "mipv6"))

    def link_drops(self, link_name: str, reason: Optional[str] = None) -> int:
        return self._read(link_name).drops(reason)

    def total_drops(
        self,
        reason: Optional[str] = None,
        links: Optional[Iterable[str]] = None,
    ) -> int:
        names = list(links) if links is not None else list(self._per_link)
        return sum(self._read(n).drops(reason) for n in names)

    def drops_snapshot(self) -> Dict[str, Dict[str, int]]:
        """Copy of all drop counters: link -> reason -> frames."""
        return {
            name: dict(stats.drops_by_reason)
            for name, stats in self._per_link.items()
            if stats.drops_by_reason
        }

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Copy of all counters: link -> category -> bytes."""
        self._sync()
        return {
            name: dict(stats.bytes_by_category)
            for name, stats in self._per_link.items()
        }

    def publish_to(self, registry) -> None:
        """Export all counters as gauges into a metrics registry.

        ``registry`` is duck-typed (any
        :class:`repro.obs.registry.MetricsRegistry`-shaped object) so
        the net layer keeps no dependency on :mod:`repro.obs`.
        Idempotent: republishing overwrites the gauge values.
        """
        self._sync()
        bytes_gauge = registry.gauge(
            "repro_link_bytes",
            "Per-link bytes by traffic category",
            ("link", "category"),
        )
        packets_gauge = registry.gauge(
            "repro_link_packets",
            "Per-link packets by traffic category",
            ("link", "category"),
        )
        drops_gauge = registry.gauge(
            "repro_link_drops",
            "Per-link frame drops by reason",
            ("link", "reason"),
        )
        for name in sorted(self._per_link):
            stats = self._per_link[name]
            for category, value in stats.bytes_by_category.items():
                bytes_gauge.labels(link=name, category=category).set(value)
            for category, value in stats.packets_by_category.items():
                packets_gauge.labels(link=name, category=category).set(value)
            for reason, value in stats.drops_by_reason.items():
                drops_gauge.labels(link=name, reason=reason).set(value)
        if self.state_entries:
            entries_gauge = registry.gauge(
                "repro_state_entries",
                "Aggregate protocol-state entries by kind (peak snapshot)",
                ("kind",),
            )
            state_bytes_gauge = registry.gauge(
                "repro_state_bytes",
                "Modelled aggregate state bytes per modelled (S,G) layout",
                ("backend",),
            )
            snapshot = self.state_snapshot()
            for kind, value in snapshot["entries"].items():
                entries_gauge.labels(kind=kind).set(value)
            for layout, value in snapshot["bytes"].items():
                state_bytes_gauge.labels(backend=layout).set(value)

    def render(self) -> str:
        """Human-readable table of per-link byte counters."""
        lines = [f"{'link':<10}" + "".join(f"{c:>16}" for c in CATEGORIES)]
        for name in sorted(self._per_link):
            stats = self._per_link[name]
            lines.append(
                f"{name:<10}" + "".join(f"{stats.bytes(c):>16}" for c in CATEGORIES)
            )
        return "\n".join(lines)
