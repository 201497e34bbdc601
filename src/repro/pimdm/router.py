"""PIM-DM multicast router.

:class:`PimDmEngine` implements the broadcast-and-prune protocol of
paper §3.1 / draft-ietf-pim-v2-dm-03 on top of the node layer:

* **flood**: the first datagram of an (S,G) creates an entry whose
  incoming interface is the RPF interface toward S; the datagram is
  forwarded over every other interface with attached PIM routers or
  group members,
* **prune**: a router with no downstream interest sends a Prune on the
  incoming interface; the upstream router waits T_PruneDel (3 s) for a
  Join override from other routers on the link before pruning,
* **graft**: when membership appears on a pruned branch, a Graft
  (unicast, acknowledged, retransmitted) reinstates forwarding,
* **assert**: a datagram arriving on an *outgoing* interface signals
  parallel forwarders (Routers B and C of Figure 1) or a mobile sender
  transmitting with a stale source address (§4.3.1); Assert messages
  elect a single forwarder (best metric, then highest address) and
  downstream routers retarget Prunes/Grafts at the winner,
* **state expiry**: (S,G) entries for silent sources are deleted after
  the data timeout (210 s) — why a moved sender's old tree lingers.

:class:`MulticastRouter` composes the engine with the MLD router part
into the node type used for Routers A–E.

The ``pim`` events these mechanisms emit are transaction delimiters
for :mod:`repro.obs.spans`: ``graft-sent``/``graft-acked`` bound a
``graft`` span per (router, S, G), ``assert-sent`` /
``assert-lost`` / ``assert-winner-stored`` / ``assert-expired`` bound
an ``assert`` election span per (router, iface, S, G), and
``prune-pending`` / ``join-override-received`` / ``oif-pruned`` bound
the ``prune-override`` window.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..mld import MldConfig, MldRouter
from ..net.addressing import ALL_PIM_ROUTERS, Address
from ..net.interface import Interface
from ..net.node import Node
from ..net.packet import Ipv6Packet
from ..sim import Event, PeriodicTimer, Timer
from .config import PimDmConfig
from .messages import (
    PimAssert,
    PimGraft,
    PimGraftAck,
    PimHello,
    PimJoin,
    PimPrune,
    PimStateRefresh,
)
from .state import DownstreamState, SgEntry, sg_key

__all__ = ["PimDmEngine", "MulticastRouter"]

LocalDeliveryHook = Callable[[Ipv6Packet, Interface], None]


class PimDmEngine:
    """The PIM-DM state machine for one router node."""

    def __init__(
        self,
        node: Node,
        config: Optional[PimDmConfig] = None,
        mld: Optional[MldRouter] = None,
    ) -> None:
        self.node = node
        self.config = config or PimDmConfig()
        self.mld = mld
        #: (S,G) entries keyed by :func:`sg_key`
        self.entries: Dict[tuple, SgEntry] = {}
        #: per-iface neighbor table: iface uid -> {address: holdtime timer}
        self.neighbors: Dict[int, Dict[Address, Timer]] = {}
        #: groups this node itself subscribed to (home-agent on-behalf joins)
        self.node_groups: Set[Address] = set()
        self._local_hooks: List[LocalDeliveryHook] = []
        self._hello_timers: List[PeriodicTimer] = []
        self._join_override_events: Dict[tuple, Event] = {}
        self._last_assert_sent: Dict[Tuple[tuple, int], float] = {}
        #: bumped whenever a neighbor table or a membership changes: part
        #: of the stamp that validates each entry's cached oif tuple
        self._oif_version = 0
        self._rng = node.rng.stream(f"pim.{node.name}")

        node.register_message_handler(PimHello, self._on_hello)
        node.register_message_handler(PimJoin, self._on_join)
        node.register_message_handler(PimPrune, self._on_prune)
        node.register_message_handler(PimGraft, self._on_graft)
        node.register_message_handler(PimGraftAck, self._on_graft_ack)
        node.register_message_handler(PimAssert, self._on_assert)
        node.register_message_handler(PimStateRefresh, self._on_state_refresh)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin Hello advertisement on all attached interfaces."""
        for iface in self.node.interfaces:
            if not iface.attached:
                continue
            timer = PeriodicTimer(
                self.node.sim,
                lambda i=iface: self._send_hello(i),
                period=self.config.hello_period,
                name=f"{self.node.name}.pim.hello.{iface.name}",
            )
            timer.start(fire_immediately=True)
            self._hello_timers.append(timer)

    def on_local_delivery(self, hook: LocalDeliveryHook) -> None:
        """Register a hook fed with multicast data for node-level joins."""
        self._local_hooks.append(hook)

    def shutdown(self) -> None:
        """Crash support: cancel every timer and discard all protocol
        state (entries, neighbors, node-level joins).  A later
        :meth:`start` re-advertises Hellos from a cold state and the
        forwarding state is rebuilt by flood-and-prune."""
        for timer in self._hello_timers:
            timer.stop()
        self._hello_timers.clear()
        for table in self.neighbors.values():
            for timer in table.values():
                timer.stop()
        self.neighbors.clear()
        for entry in list(self.entries.values()):
            entry.stop_all_timers()
        self.entries.clear()
        for event in self._join_override_events.values():
            if event.pending:
                event.cancel()
        self._join_override_events.clear()
        self._last_assert_sent.clear()
        self.node_groups.clear()
        self._oif_version += 1

    # ------------------------------------------------------------------
    # neighbor discovery
    # ------------------------------------------------------------------
    def _send_hello(self, iface: Interface) -> None:
        src = self.node.address_on(iface.link) if iface.link else None
        if src is None:
            return
        packet = Ipv6Packet(
            src, ALL_PIM_ROUTERS, PimHello(self.config.hello_holdtime), hop_limit=1
        )
        self.node.send_on(iface, packet)

    def _on_hello(self, packet: Ipv6Packet, hello: PimHello, iface: Interface) -> None:
        table = self.neighbors.setdefault(iface.uid, {})
        timer = table.get(packet.src)
        if timer is None:
            timer = Timer(
                self.node.sim,
                lambda i=iface, a=packet.src: self._neighbor_expired(i, a),
                name=f"{self.node.name}.pim.nbr.{packet.src}",
            )
            table[packet.src] = timer
            self._oif_version += 1
            self.node.trace(
                "pim", event="neighbor-up", iface=iface.name, neighbor=str(packet.src)
            )
            self._on_new_neighbor(iface)
        timer.start(hello.holdtime)

    def _on_new_neighbor(self, iface: Interface) -> None:
        """A newly discovered neighbor makes ``iface`` a candidate oif
        again.  Any entry pruned toward upstream has regained downstream
        interest and must graft — without this, a router that pruned
        while its neighbor table was empty (e.g. just after a restart
        cleared it) starves the branch for the remainder of the
        upstream's prune-hold time."""
        for entry in list(self.entries.values()):
            if iface is entry.upstream_iface:
                continue
            if entry.pruned_upstream and self._has_interest(entry):
                self._graft_upstream(entry)

    def _neighbor_expired(self, iface: Interface, address: Address) -> None:
        table = self.neighbors.get(iface.uid, {})
        table.pop(address, None)
        self._oif_version += 1
        self.node.trace(
            "pim", event="neighbor-expired", iface=iface.name, neighbor=str(address)
        )

    def has_pim_neighbors(self, iface: Interface) -> bool:
        return bool(self.neighbors.get(iface.uid))

    # ------------------------------------------------------------------
    # RPF / forwarding set computation
    # ------------------------------------------------------------------
    def _rpf(self, source: Address) -> Tuple[Optional[Interface], Optional[Address], int]:
        entry = self.node.routing.lookup(source)
        if entry is None or entry.iface.link is None:
            return None, None, 0
        return entry.iface, entry.next_hop, entry.metric

    def _has_local_members(self, iface: Interface, group: Address) -> bool:
        return self.mld is not None and self.mld.has_members(iface, group)

    def outgoing_ifaces(self, entry: SgEntry) -> Tuple[Interface, ...]:
        """The entry's current outgoing interface list.

        Cached on the entry and stamped with everything the rule reads:
        the engine's neighbor/membership version, the upstream
        interface, and the pruned and assert-loser masks.
        """
        table = entry.downstream
        # the masks' ints read directly: this runs once per datagram
        stamp = (
            self._oif_version,
            entry.upstream_iface,
            table.pruned_oifs._bits,
            table.assert_loser_oifs._bits,
        )
        cached = entry.oif_cache
        if cached is not None and cached[0] == stamp:
            return cached[1]
        result = tuple(self._compute_oifs(entry))
        entry.oif_cache = (stamp, result)
        return result

    def _compute_oifs(self, entry: SgEntry) -> List[Interface]:
        """The oif rule: attached, not upstream, not an assert loser, and
        either local members or unpruned PIM neighbors."""
        result: List[Interface] = []
        for iface in self.node.interfaces:
            if not iface.attached or iface is entry.upstream_iface:
                continue
            ds = entry.downstream.get(iface.uid)
            if ds is not None and ds.assert_loser:
                continue
            if self._has_local_members(iface, entry.group):
                result.append(iface)
                continue
            if self.has_pim_neighbors(iface) and not (ds is not None and ds.pruned):
                result.append(iface)
        return result

    def _has_interest(self, entry: SgEntry) -> bool:
        return entry.group in self.node_groups or bool(self.outgoing_ifaces(entry))

    # ------------------------------------------------------------------
    # entry management
    # ------------------------------------------------------------------
    def get_entry(self, source: Address, group: Address) -> Optional[SgEntry]:
        return self.entries.get(sg_key(source, group))

    def _create_entry(self, source: Address, group: Address) -> Optional[SgEntry]:
        rpf_iface, next_hop, metric = self._rpf(source)
        if rpf_iface is None:
            self.node.trace(
                "pim", event="no-rpf", source=str(source), group=str(group)
            )
            return None
        entry = SgEntry(
            source=Address(source),
            group=Address(group),
            upstream_iface=rpf_iface,
            upstream_neighbor=next_hop,
            metric_to_source=metric,
        )
        entry.entry_timer = Timer(
            self.node.sim,
            lambda e=entry: self._expire_entry(e),
            name=f"{self.node.name}.pim.sg.{source}.{group}",
        )
        entry.entry_timer.start(self.config.data_timeout)
        self.entries[entry.key] = entry
        self.node.trace(
            "pim.state",
            event="entry-created",
            source=str(source),
            group=str(group),
            upstream=rpf_iface.name,
        )
        if self.config.state_refresh_enabled and next_hop is None:
            # First-hop router (RFC 3973 §4.5.1): originate State
            # Refresh down the broadcast tree every refresh interval.
            self.node.sim.schedule(
                self.config.state_refresh_interval,
                self._originate_state_refresh,
                entry,
                label=f"{self.node.name}.pim.sr",
            )
        return entry

    def _expire_entry(self, entry: SgEntry) -> None:
        entry.stop_all_timers()
        self.entries.pop(entry.key, None)
        self._join_override_events.pop(entry.key, None)
        for iface in self.node.interfaces:
            self._last_assert_sent.pop((entry.key, iface.uid), None)
        self.node.trace(
            "pim.state",
            event="entry-expired",
            source=str(entry.source),
            group=str(entry.group),
        )

    def entries_for_group(self, group: Address) -> List[SgEntry]:
        group = Address(group)
        return [e for e in self.entries.values() if e.group == group]

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def on_multicast_data(self, packet: Ipv6Packet, iface: Interface) -> None:
        source, group = packet.src, packet.dst
        # sg_key(source, group): packet addresses are Address already
        entry = self.entries.get((source._int, group._int))
        if entry is None:
            entry = self._create_entry(source, group)
            if entry is None:
                return
        if iface is entry.upstream_iface:
            if entry.entry_timer is not None:
                entry.entry_timer.start(self.config.data_timeout)
            outs = self.outgoing_ifaces(entry)
            if outs and packet.hop_limit > 1:
                forwarded = packet.with_decremented_hop_limit()
                for oif in outs:
                    self.node.send_on(oif, forwarded)
                entry.packets_forwarded += 1
                self.node.load["packets_forwarded"] += len(outs)
                tracer = self.node.tracer
                if tracer is not None and tracer.wanted["mcast.forward"]:
                    self.node.trace(
                        "mcast.forward",
                        source=str(source),
                        group=str(group),
                        links=[o.link.name for o in outs if o.link],
                        uid=packet.uid,
                    )
            elif not outs:
                entry.packets_discarded += 1
            if self.node_groups and group in self.node_groups:
                for hook in self._local_hooks:
                    hook(packet, iface)
            if not outs and not self._has_interest(entry):
                self._send_prune_upstream(entry)
            elif entry.pruned_upstream:
                # Upstream is forwarding to us although we believe the
                # branch is pruned — either it restarted and forgot the
                # prune, or our Graft (or its Ack) was lost.  Data on
                # the RPF interface is as good as a Graft-Ack: clear
                # the stale prune state instead of retrying into the
                # backoff cap.
                entry.pruned_upstream = False
                entry.graft_retries = 0
                if entry.graft_retry_timer is not None:
                    entry.graft_retry_timer.stop()
        else:
            # Datagram on a non-RPF interface.  If we are (also) a
            # forwarder onto that link, this is the parallel-forwarder /
            # stale-source situation: run the assert process (§3.1).
            if iface in self.outgoing_ifaces(entry):
                self._maybe_send_assert(entry, iface)
            else:
                entry.packets_discarded += 1

    # ------------------------------------------------------------------
    # prune / join
    # ------------------------------------------------------------------
    def _send_prune_upstream(self, entry: SgEntry) -> None:
        target = entry.upstream_target()
        if target is None or entry.upstream_iface is None:
            return  # first-hop router: nothing upstream to prune
        now = self.node.sim.now
        if now - entry.last_prune_sent < self.config.prune_retry_interval:
            return
        entry.last_prune_sent = now
        entry.pruned_upstream = True
        src = self.node.address_on(entry.upstream_iface.link)
        if src is None:
            return
        message = PimPrune(
            source=entry.source,
            group=entry.group,
            upstream_neighbor=target,
            holdtime=self.config.prune_hold_time,
        )
        self.node.send_on(
            entry.upstream_iface, Ipv6Packet(src, ALL_PIM_ROUTERS, message, hop_limit=1)
        )
        self.node.trace(
            "pim",
            event="prune-sent",
            source=str(entry.source),
            group=str(entry.group),
            target=str(target),
        )

    def _on_prune(self, packet: Ipv6Packet, prune: PimPrune, iface: Interface) -> None:
        entry = self.entries.get(sg_key(prune.source, prune.group))
        if entry is None:
            return
        my_addr = self.node.address_on(iface.link) if iface.link else None
        if prune.upstream_neighbor == my_addr:
            if iface is entry.upstream_iface:
                return
            if self._has_local_members(iface, entry.group):
                return  # local members keep the interface forwarding
            ds = entry.downstream_state(iface)
            if ds.pruned or ds.prune_pending:
                return
            ds.prune_pending_timer = Timer(
                self.node.sim,
                lambda e=entry, d=ds, h=prune.holdtime: self._prune_iface(e, d, h),
                name=f"{self.node.name}.pim.prunepend.{iface.name}",
            )
            ds.prune_pending_timer.start(self.config.prune_delay)
            self.node.trace(
                "pim",
                event="prune-pending",
                iface=iface.name,
                source=str(entry.source),
                group=str(entry.group),
            )
        elif iface is entry.upstream_iface:
            if self._has_interest(entry) and not entry.pruned_upstream:
                # A peer on our incoming link pruned traffic we still
                # need: schedule a Join override within T_PruneDel.
                self._schedule_join_override(entry)
            elif prune.upstream_neighbor == entry.upstream_target():
                # A peer already pruned toward our forwarder: suppress
                # our own duplicate Prune for another retry interval.
                entry.pruned_upstream = True
                entry.last_prune_sent = self.node.sim.now

    def _prune_iface(self, entry: SgEntry, ds: DownstreamState, holdtime: float) -> None:
        ds.prune_pending_timer = None
        ds.pruned = True
        ds.prune_hold_timer = Timer(
            self.node.sim,
            lambda e=entry, d=ds: self._prune_hold_expired(e, d),
            name=f"{self.node.name}.pim.prunehold.{ds.iface.name}",
        )
        ds.prune_hold_timer.start(min(holdtime, self.config.prune_hold_time))
        self.node.trace(
            "pim.state",
            event="oif-pruned",
            iface=ds.iface.name,
            source=str(entry.source),
            group=str(entry.group),
        )

    def _prune_hold_expired(self, entry: SgEntry, ds: DownstreamState) -> None:
        ds.clear_prune()
        self.node.trace(
            "pim.state",
            event="oif-prune-expired",
            iface=ds.iface.name,
            source=str(entry.source),
            group=str(entry.group),
        )

    def _schedule_join_override(self, entry: SgEntry) -> None:
        pending = self._join_override_events.get(entry.key)
        if pending is not None and pending.pending:
            return
        delay = self._rng.uniform(0.0, self.config.prune_delay * 0.8)
        self._join_override_events[entry.key] = self.node.sim.schedule(
            delay,
            self._send_join_override,
            entry,
            label=f"{self.node.name}.pim.joinoverride",
        )

    def _send_join_override(self, entry: SgEntry) -> None:
        if entry.key not in self.entries or not self._has_interest(entry):
            return
        target = entry.upstream_target()
        if target is None or entry.upstream_iface is None:
            return
        src = self.node.address_on(entry.upstream_iface.link)
        if src is None:
            return
        message = PimJoin(
            source=entry.source, group=entry.group, upstream_neighbor=target
        )
        self.node.send_on(
            entry.upstream_iface, Ipv6Packet(src, ALL_PIM_ROUTERS, message, hop_limit=1)
        )
        self.node.trace(
            "pim",
            event="join-sent",
            source=str(entry.source),
            group=str(entry.group),
            target=str(target),
        )

    def _on_join(self, packet: Ipv6Packet, join: PimJoin, iface: Interface) -> None:
        entry = self.entries.get(sg_key(join.source, join.group))
        if entry is None:
            return
        my_addr = self.node.address_on(iface.link) if iface.link else None
        if join.upstream_neighbor != my_addr:
            if iface is entry.upstream_iface and entry.pruned_upstream:
                # Another router keeps the incoming LAN alive: re-sending
                # our Prune would only be overridden again — back off.
                entry.last_prune_sent = self.node.sim.now
            return
        ds = entry.downstream.get(iface.uid)
        if ds is not None and ds.prune_pending:
            ds.prune_pending_timer.stop()
            ds.prune_pending_timer = None
            self.node.trace(
                "pim",
                event="join-override-received",
                iface=iface.name,
                source=str(entry.source),
                group=str(entry.group),
            )

    # ------------------------------------------------------------------
    # graft
    # ------------------------------------------------------------------
    def _graft_upstream(self, entry: SgEntry, *, from_timer: bool = False) -> None:
        if not entry.pruned_upstream:
            return
        target = entry.upstream_target()
        if target is None or entry.upstream_iface is None:
            entry.pruned_upstream = False
            return
        src = self.node.address_on(entry.upstream_iface.link)
        if src is None:
            return
        message = PimGraft(source=entry.source, group=entry.group)
        packet = Ipv6Packet(src, target, message, hop_limit=1)
        resolved = entry.upstream_iface.link.resolve(target)
        self.node.send_on(entry.upstream_iface, packet, l2_dst=resolved)
        self.node.trace(
            "pim",
            event="graft-sent",
            source=str(entry.source),
            group=str(entry.group),
            target=str(target),
        )
        if entry.graft_retry_timer is None:
            entry.graft_retry_timer = Timer(
                self.node.sim,
                lambda e=entry: self._graft_upstream(e, from_timer=True),
                name=f"{self.node.name}.pim.graftretry",
            )
        # Capped-exponential backoff: the first retry keeps the base
        # interval (factor**0), each unacked retry doubles it up to the
        # cap, and a Graft-Ack resets the count.  Only timer-fired
        # retries escalate — a burst of event-triggered Grafts (e.g.
        # several neighbor-up events after a restart) says nothing
        # about upstream reachability and must not inflate the delay.
        if from_timer:
            entry.graft_retries += 1
        retry_delay = min(
            self.config.graft_retry_interval
            * self.config.graft_backoff_factor ** entry.graft_retries,
            self.config.graft_retry_max_interval,
        )
        entry.graft_retry_timer.start(retry_delay)

    def _on_graft(self, packet: Ipv6Packet, graft: PimGraft, iface: Interface) -> None:
        entry = self.entries.get(sg_key(graft.source, graft.group))
        if entry is None:
            entry = self._create_entry(graft.source, graft.group)
            if entry is None:
                return
        ds = entry.downstream_state(iface)
        ds.clear_prune()
        self.node.trace(
            "pim.state",
            event="oif-grafted",
            iface=iface.name,
            source=str(entry.source),
            group=str(entry.group),
        )
        my_addr = self.node.address_on(iface.link) if iface.link else None
        if my_addr is not None:
            ack = PimGraftAck(source=entry.source, group=entry.group)
            resolved = iface.link.resolve(packet.src) if iface.link else None
            self.node.send_on(
                iface, Ipv6Packet(my_addr, packet.src, ack, hop_limit=1), l2_dst=resolved
            )
        if entry.pruned_upstream:
            self._graft_upstream(entry)

    def _on_graft_ack(
        self, packet: Ipv6Packet, ack: PimGraftAck, iface: Interface
    ) -> None:
        entry = self.entries.get(sg_key(ack.source, ack.group))
        if entry is None:
            return
        entry.pruned_upstream = False
        entry.last_prune_sent = float("-inf")
        entry.graft_retries = 0
        if entry.graft_retry_timer is not None:
            entry.graft_retry_timer.stop()
        self.node.trace(
            "pim",
            event="graft-acked",
            source=str(entry.source),
            group=str(entry.group),
        )

    # ------------------------------------------------------------------
    # assert
    # ------------------------------------------------------------------
    def _maybe_send_assert(self, entry: SgEntry, iface: Interface) -> None:
        key = (entry.key, iface.uid)
        now = self.node.sim.now
        if now - self._last_assert_sent.get(key, float("-inf")) < 0.05:
            return
        self._last_assert_sent[key] = now
        self._send_assert(entry, iface)

    def _send_assert(self, entry: SgEntry, iface: Interface) -> None:
        src = self.node.address_on(iface.link) if iface.link else None
        if src is None:
            return
        message = PimAssert(
            source=entry.source, group=entry.group, metric=entry.metric_to_source
        )
        self.node.send_on(iface, Ipv6Packet(src, ALL_PIM_ROUTERS, message, hop_limit=1))
        self.node.trace(
            "pim",
            event="assert-sent",
            iface=iface.name,
            source=str(entry.source),
            group=str(entry.group),
            metric=entry.metric_to_source,
        )

    @staticmethod
    def _assert_beats(challenger: Tuple[int, Address], incumbent: Tuple[int, Address]) -> bool:
        """True when ``challenger`` (metric, address) wins the election:
        lower metric, ties to the numerically higher address."""
        c_metric, c_addr = challenger
        i_metric, i_addr = incumbent
        if c_metric != i_metric:
            return c_metric < i_metric
        return c_addr > i_addr

    def _on_assert(self, packet: Ipv6Packet, a: PimAssert, iface: Interface) -> None:
        entry = self.entries.get(sg_key(a.source, a.group))
        if entry is None:
            return
        theirs = (a.metric, packet.src)
        if iface is entry.upstream_iface:
            # Remember the elected forwarder on our incoming link: it is
            # the router our Prunes/Grafts must target (§3.1).
            current = entry.upstream_assert_winner
            if current is None or self._assert_beats(
                theirs, (entry.upstream_assert_winner_metric, current)
            ):
                winner_changed = entry.upstream_assert_winner != packet.src
                entry.upstream_assert_winner = packet.src
                entry.upstream_assert_winner_metric = a.metric
                if winner_changed:
                    # A Prune addressed to the old forwarder is void; let
                    # the next unwanted datagram retarget the winner.
                    entry.last_prune_sent = float("-inf")
                self.node.trace(
                    "pim",
                    event="assert-winner-stored",
                    iface=iface.name,
                    winner=str(packet.src),
                    source=str(entry.source),
                    group=str(entry.group),
                )
            return
        my_addr = self.node.address_on(iface.link) if iface.link else None
        if my_addr is None:
            return
        mine = (entry.metric_to_source, my_addr)
        ds = entry.downstream_state(iface)
        if self._assert_beats(theirs, mine):
            ds.assert_loser = True
            ds.assert_winner = packet.src
            ds.assert_winner_metric = a.metric
            if ds.assert_timer is None:
                ds.assert_timer = Timer(
                    self.node.sim,
                    lambda e=entry, d=ds: self._assert_expired(e, d),
                    name=f"{self.node.name}.pim.assert.{iface.name}",
                )
            ds.assert_timer.start(self.config.assert_time)
            self.node.trace(
                "pim",
                event="assert-lost",
                iface=iface.name,
                winner=str(packet.src),
                source=str(entry.source),
                group=str(entry.group),
            )
        else:
            self._maybe_send_assert(entry, iface)

    def _assert_expired(self, entry: SgEntry, ds: DownstreamState) -> None:
        ds.clear_assert()
        self.node.trace(
            "pim",
            event="assert-expired",
            iface=ds.iface.name,
            source=str(entry.source),
            group=str(entry.group),
        )

    # ------------------------------------------------------------------
    # state refresh (RFC 3973 extension)
    # ------------------------------------------------------------------
    def _originate_state_refresh(self, entry: SgEntry) -> None:
        if entry.key not in self.entries:
            return  # entry expired; origination stops with it
        my_addr = (
            self.node.address_on(entry.upstream_iface.link)
            if entry.upstream_iface is not None and entry.upstream_iface.link
            else None
        )
        message = PimStateRefresh(
            source=entry.source,
            group=entry.group,
            originator=my_addr,
            metric=entry.metric_to_source,
            interval=self.config.state_refresh_interval,
        )
        self._propagate_state_refresh(entry, message)
        self.node.sim.schedule(
            self.config.state_refresh_interval,
            self._originate_state_refresh,
            entry,
            label=f"{self.node.name}.pim.sr",
        )

    def _propagate_state_refresh(self, entry: SgEntry, message: PimStateRefresh) -> None:
        """Send State Refresh on every downstream interface with PIM
        neighbors (pruned branches included — that is the point) and
        refresh local prune-hold state so forwarding does not resume."""
        hold = self.config.prune_hold_time
        for iface in self.node.interfaces:
            if not iface.attached or iface is entry.upstream_iface:
                continue
            ds = entry.downstream.get(iface.uid)
            if ds is not None and ds.pruned and ds.prune_hold_timer is not None:
                ds.prune_hold_timer.restart(hold)
            if not self.has_pim_neighbors(iface):
                continue
            src = self.node.address_on(iface.link)
            if src is None:
                continue
            self.node.send_on(
                iface, Ipv6Packet(src, ALL_PIM_ROUTERS, message, hop_limit=1)
            )
        self.node.trace(
            "pim",
            event="state-refresh-sent",
            source=str(entry.source),
            group=str(entry.group),
        )

    def _on_state_refresh(
        self, packet: Ipv6Packet, sr: PimStateRefresh, iface: Interface
    ) -> None:
        entry = self.entries.get(sg_key(sr.source, sr.group))
        if entry is None:
            entry = self._create_entry(sr.source, sr.group)
            if entry is None:
                return
        if iface is not entry.upstream_iface:
            return  # RPF check, as for data
        # the refresh keeps (S,G) state alive even for a silent source
        if entry.entry_timer is not None:
            entry.entry_timer.restart(self.config.data_timeout)
        # refresh our own negative cache: no need to re-prune upstream
        if entry.pruned_upstream:
            entry.last_prune_sent = self.node.sim.now
        if sr.ttl <= 1:
            return
        forwarded = PimStateRefresh(
            source=sr.source,
            group=sr.group,
            originator=sr.originator,
            metric=sr.metric,
            interval=sr.interval,
            ttl=sr.ttl - 1,
        )
        self._propagate_state_refresh(entry, forwarded)

    # ------------------------------------------------------------------
    # MLD integration
    # ------------------------------------------------------------------
    def on_membership_change(
        self, iface: Interface, group: Address, present: bool
    ) -> None:
        self._oif_version += 1
        for entry in self.entries_for_group(group):
            if present:
                ds = entry.downstream_state(iface)
                ds.clear_prune()
                if iface is not entry.upstream_iface:
                    self.node.trace(
                        "pim.state",
                        event="oif-added",
                        iface=iface.name,
                        source=str(entry.source),
                        group=str(group),
                    )
                if entry.pruned_upstream:
                    self._graft_upstream(entry)
            else:
                self.node.trace(
                    "pim.state",
                    event="oif-removed",
                    iface=iface.name,
                    source=str(entry.source),
                    group=str(group),
                )
                if not self._has_interest(entry):
                    self._send_prune_upstream(entry)

    # ------------------------------------------------------------------
    # node-level group interest (home agents)
    # ------------------------------------------------------------------
    def join_node_group(self, group: Address) -> None:
        group = Address(group)
        if group in self.node_groups:
            return
        self.node_groups.add(group)
        self.node.trace("pim.state", event="node-join", group=str(group))
        for entry in self.entries_for_group(group):
            if entry.pruned_upstream:
                self._graft_upstream(entry)

    def leave_node_group(self, group: Address) -> None:
        group = Address(group)
        if group not in self.node_groups:
            return
        self.node_groups.discard(group)
        self.node.trace("pim.state", event="node-leave", group=str(group))
        for entry in self.entries_for_group(group):
            if not self._has_interest(entry):
                self._send_prune_upstream(entry)

    # ------------------------------------------------------------------
    # introspection (for tests/experiments)
    # ------------------------------------------------------------------
    def state_counts(self) -> Dict[str, int]:
        """Live protocol-state entry counts for the memory-proxy gauges
        (``repro_state_entries{kind}``; see ``Network.collect_state``)."""
        return {
            "pim_sg": len(self.entries),
            "pim_downstream": sum(len(e.downstream) for e in self.entries.values()),
            "pim_neighbor": sum(len(t) for t in self.neighbors.values()),
        }

    def forwarding_links(self, source: Address, group: Address) -> List[str]:
        """Names of links this router currently forwards (S,G) onto."""
        entry = self.entries.get(sg_key(source, group))
        if entry is None:
            return []
        return sorted(
            oif.link.name for oif in self.outgoing_ifaces(entry) if oif.link is not None
        )


class MulticastRouter(Node):
    """A PIM-DM + MLD multicast router (Routers A–E of the paper)."""

    is_router = True

    def __init__(
        self,
        *args,
        pim_config: Optional[PimDmConfig] = None,
        mld_config: Optional[MldConfig] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.mld_router = MldRouter(self, mld_config)
        self.pim = PimDmEngine(self, pim_config, self.mld_router)
        self.mld_router.on_membership_change(self.pim.on_membership_change)

    def start(self) -> None:
        """Boot MLD querier duty and PIM Hello advertisement."""
        self.mld_router.start()
        self.pim.start()

    # Fault injection ----------------------------------------------------
    def crash(self) -> None:
        """Crash = drop all packets + cancel all protocol timers and
        discard all MLD/PIM state (repro.faults NodeCrash)."""
        super().crash()
        self.mld_router.shutdown()
        self.pim.shutdown()

    def restart(self) -> None:
        """Cold restart: protocol engines boot afresh; neighbors, trees,
        and memberships are relearned."""
        super().restart()
        self.start()

    def handle_multicast(self, packet: Ipv6Packet, iface: Interface) -> None:
        self.dispatch_message(packet, iface)
        # Address.is_link_scope_multicast and Ipv6Packet.innermost_message,
        # read off the slots: this runs for every multicast frame
        if (packet.dst._int >> 112) & 0xFF0F == 0xFF02:
            return
        inner = packet._inner
        if (packet if inner is None else inner).payload.protocol == "app":
            self.pim.on_multicast_data(packet, iface)

    # Convenience wrappers ------------------------------------------------
    def join_local_group(self, group: Address) -> None:
        """Subscribe this router itself to ``group`` (node-level join)."""
        self.pim.join_node_group(group)

    def leave_local_group(self, group: Address) -> None:
        self.pim.leave_node_group(group)
