"""Flow-level (fluid) traffic model.

Represents each (S,G) flow as a piecewise-constant rate and integrates
per-link byte counts **analytically** between protocol events instead
of simulating every datagram.  A 10⁴-receiver EXP-S1 cell needs ~10⁷
packet events per simulated minute in packet mode; fluid mode replaces
them with one rate recomputation per protocol-event timestamp, whose
cost follows what the timestamp's events changed rather than the size
of the tree — which is what makes 10⁶-receiver cells tractable.

How it works
------------

* **Probes.**  PIM-DM is data-driven: (S,G) state is created by data
  arrival, prunes/asserts are triggered by data on the wrong interface,
  and entries expire without data.  So each fluid flow still transmits
  *real* datagrams — sparse probes, one every ``probe_interval``
  (default ``100 x packet_interval``, well under the 210 s data
  timeout) — through the completely unmodified packet path.  Probes
  keep the control plane, spans, invariants and receiver apps alive.
  Their bytes are diverted to the ``fluid_probe`` stats category
  (:data:`repro.net.stats.FLUID_PROBE_CATEGORY`) so data categories
  stay analytic-exact.

* **Rate table.**  Between protocol events the flow's full rate
  ``R = (payload + 40) / packet_interval`` bytes/s is charged to every
  link of the current distribution tree: the tree is walked from the
  emission link following exactly the packet-mode forwarding rules
  (RPF check against ``entry.upstream_iface``, ``outgoing_ifaces``,
  home-agent tunnel relay per binding-cache subscriber, Mobile IPv6
  send modes).  Loss models become rate multipliers via ``mean_loss``
  (Gilbert–Elliott: stationary expected throughput).

* **Integration.**  A trace listener watches the protocol-event
  categories (pim/pim.state/mld/mipv6/mobility/fault).  The first event
  of a timestamp schedules one zero-delay recomputation, so the new
  table reflects every same-timestamp state change; direct link
  mutations (``set_down`` without a fault plan) are caught by
  ``Link.add_on_change``.  ``recomputes`` counts these boundary events.
  A recomputation that reproduces the installed table changes nothing.
  Only when the table differs is the constant-rate segment that ends
  here integrated, once, with the *old* table (no rate changed strictly
  inside it), and the new table installed; a reader mid-segment calls
  :meth:`FluidModel.sync`.  Synthetic boundary events are emitted under
  the ``fluid`` trace category whenever a link's rate changes, so
  offline analysis can still see tree boundaries.

* **Incremental recomputation.**  Each emitting flow keeps its walk: a
  root visit for the source, then its link visits in BFS order, each
  holding its plan operations, the visits it queued, and the link and
  node names it read.  Every event the listener hears marks its node
  dirty (quiet ones too, though they schedule nothing), and every
  ``Link.add_on_change`` marks its link.  A recomputation re-evaluates
  the roots, the visits that read a dirty mark (a dirty host also
  dirties its current link, which catches a host that just attached)
  and the visits that read state off the tree (a home agent's tunnel
  relay), keeps each child subtree whose visit arguments are unchanged,
  and re-folds only the table entries whose operations changed — over
  their contributions in flow order, then BFS order, as the full walk
  sums them, so every rate equals the full walk's float for float.

See ``docs/TRAFFIC.md`` for the packet-vs-fluid tolerance contract.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from ..mipv6.config import DeliveryMode
from ..mipv6.mobile_node import MobileNode
from ..net.addressing import Address
from ..net.messages import ApplicationData
from ..net.packet import IPV6_HEADER_BYTES
from ..pimdm.state import sg_key
from .base import TrafficModel, register_traffic_model
from .sources import CbrSource, OnOffSource

__all__ = ["FluidModel", "FluidSource", "FluidOnOffSource", "DEFAULT_PROBE_FACTOR"]

#: probe cadence relative to the flow's packet interval
DEFAULT_PROBE_FACTOR = 100.0

#: trace events in the subscribed categories that recur per-packet or
#: periodically without changing any forwarding state — they schedule
#: no recomputation, which keeps it off the probe/report fast paths, but
#: still mark their node dirty (a host's MLD ``join``/``leave`` changes
#: what the visit of its link delivers)
_QUIET_EVENTS = frozenset(
    {
        # periodic control chatter
        "state-refresh-sent",
        "query-sent",
        # per-report / per-host MLD noise (membership changes surface as
        # members-detected / members-gone on the router side)
        "report-sent",
        "done-sent",
        "join",
        "leave",
        "suppressed",
        # per-datagram Mobile IPv6 events (fire per probe in fluid mode)
        "decapsulate",
        "tunnel-mcast-received",
        "tunnel-mcast-to-mn",
        "reverse-tunnel-send",
        "route-optimized-send",
        "send-lost-detached",
        "erroneous-source-send",
        # retransmission timers (the state change traces separately)
        "bu-retransmit",
        "binding-request-sent",
        "binding-request-received",
    }
)

_LISTEN_CATEGORIES = frozenset(
    {"pim", "pim.state", "mld", "mipv6", "mobility", "fault"}
)

#: router-side MLD membership changes: a (re)joined listener is waiting
#: for data, so the model fires an out-of-cycle probe instead of letting
#: the join delay snap to the probe cadence (see ``_request_resync``)
_MEMBERSHIP_EVENTS = frozenset({"members-detected", "static-join"})

_MAX_HOPS = 64


class FluidSource(CbrSource):
    """CBR flow under the fluid model: analytic rate + sparse probes.

    Mirrors the :class:`~repro.traffic.sources.CbrSource` surface
    (``start``/``stop``/``bit_rate``/``flow``/``sent``) so scenario
    code is model-agnostic; ``sent`` counts *probes*.
    """

    def __init__(
        self,
        model: "FluidModel",
        node,
        group,
        packet_interval: float = 0.1,
        payload_bytes: int = 1000,
        flow: Optional[str] = None,
        probe_interval: Optional[float] = None,
    ) -> None:
        super().__init__(node, group, packet_interval, payload_bytes, flow)
        self.model = model
        if probe_interval is None:
            probe_interval = packet_interval * DEFAULT_PROBE_FACTOR
        if not math.isfinite(probe_interval):
            raise ValueError(
                f"probe_interval must be finite, got {probe_interval!r}"
            )
        if probe_interval < packet_interval:
            raise ValueError("probe_interval must be >= packet_interval")
        self.probe_interval = probe_interval

    @property
    def emitting(self) -> bool:
        """Is the flow contributing rate right now?"""
        return self._running

    def _begin(self) -> None:
        if self._running:
            return
        self._running = True
        self.model.on_flow_change(self)
        self._tick()

    def stop(self) -> None:
        was_running = self._running
        super().stop()
        if was_running:
            self.model.on_flow_change(self)

    def _tick(self) -> None:
        if not self._running:
            return
        self._send_one()
        self._event = self.node.sim.schedule(
            self.probe_interval, self._tick, label=f"{self.flow}.probe"
        )

    def _send_one(self) -> None:
        message = ApplicationData(
            seqno=self.sent,
            payload_bytes=self.payload_bytes,
            flow=self.flow,
            sent_at=self.node.sim.now,
            probe=True,
        )
        self.sent += 1
        if isinstance(self.node, MobileNode):
            self.node.send_app_multicast(self.group, message)
        else:
            self.node.send_multicast(self.group, message)


class FluidOnOffSource(FluidSource):
    """ON/OFF flow under the fluid model.

    Phase boundaries are rate boundaries: the model re-integrates on
    every toggle.  Probes are emitted only during ON phases.  Uses the
    same per-flow RNG stream name as the packet-mode
    :class:`~repro.traffic.sources.OnOffSource`.
    """

    def __init__(
        self,
        model,
        node,
        group,
        packet_interval: float = 0.1,
        payload_bytes: int = 1000,
        mean_on: float = 10.0,
        mean_off: float = 10.0,
        flow: Optional[str] = None,
        probe_interval: Optional[float] = None,
    ) -> None:
        super().__init__(
            model, node, group, packet_interval, payload_bytes, flow, probe_interval
        )
        if mean_on <= 0 or mean_off <= 0:
            raise ValueError("mean_on/mean_off must be positive")
        self.mean_on = mean_on
        self.mean_off = mean_off
        self._rng = node.rng.stream(f"onoff.{self.flow}")
        self._on_phase = True

    @property
    def duty_cycle(self) -> float:
        return self.mean_on / (self.mean_on + self.mean_off)

    @property
    def mean_bit_rate(self) -> float:
        return self.bit_rate * self.duty_cycle

    @property
    def emitting(self) -> bool:
        return self._running and self._on_phase

    def _begin(self) -> None:
        if self._running:
            return
        self._running = True
        self._on_phase = True
        self._schedule_phase_end()
        self.model.on_flow_change(self)
        self._tick()

    def _schedule_phase_end(self) -> None:
        mean = self.mean_on if self._on_phase else self.mean_off
        self.node.sim.schedule(
            self._rng.expovariate(1.0 / mean),
            self._toggle_phase,
            label=f"{self.flow}.phase",
        )

    def _toggle_phase(self) -> None:
        if not self._running:
            return
        self._on_phase = not self._on_phase
        self._schedule_phase_end()
        self.model.on_flow_change(self)

    def _tick(self) -> None:
        if not self._running:
            return
        if self._on_phase:
            self._send_one()
        self._event = self.node.sim.schedule(
            self.probe_interval, self._tick, label=f"{self.flow}.probe"
        )


@register_traffic_model("fluid")
class FluidModel(TrafficModel):
    name = "fluid"

    def __init__(self, probe_interval: Optional[float] = None) -> None:
        #: default probe interval for new flows (None: 100 x packet_interval)
        self.probe_interval = probe_interval
        self.net = None
        self.flows: List[FluidSource] = []
        self._last_sync = 0.0
        self._recompute_pending = False
        #: link name -> category -> (bytes/s, packets/s)
        self._link_rates: Dict[str, Dict[str, Tuple[float, float]]] = {}
        #: counter top-up rates: (kind, key) -> {obj: rate}, where kind
        #: is "load" (obj.load[key]) or "attr" (setattr on obj)
        self._counter_rates: Dict[Tuple[str, str], Dict[object, float]] = {}
        #: member-host delivery rates (bytes/s of inner packet)
        self._delivery_rates: Dict[str, float] = {}
        #: analytic loss rates by reason (bytes/s)
        self._loss_rates: Dict[str, float] = {}
        # accumulated analytic totals
        self.delivered_bytes: Dict[str, float] = defaultdict(float)
        self.lost_bytes: Dict[str, float] = defaultdict(float)
        self.analytic_bytes = 0.0
        self.analytic_packets = 0.0
        self.recomputes = 0
        #: link visits evaluated, over all recomputations
        self.visits_evaluated = 0
        # out-of-cycle probe dedup: flows already resynced at _resync_at
        self._resync_at = -1.0
        self._resync_flows: set = set()
        # the walk cache (see "Incremental recomputation" above)
        self._round = 0
        #: emitting flow -> the root visit of its walk
        self._walks: Dict[FluidSource, _Visit] = {}
        #: table slot -> {visit: its contributions, in operation order}
        self._contrib: Dict[tuple, Dict[_Visit, list]] = {}
        #: link or node name -> the visits that read it
        self._readers: Dict[object, set] = {}
        #: links and node names changed since the last recomputation
        self._dirty: set = set()
        #: visits that read state off the tree: evaluated every time
        self._volatile: set = set()

    # ------------------------------------------------------------------
    # TrafficModel interface
    # ------------------------------------------------------------------
    def attach(self, net) -> None:
        self.net = net
        self._last_sync = net.sim.now
        net.stats.sync_hook = self.sync
        net.tracer.add_listener(self._on_trace, categories=_LISTEN_CATEGORIES)
        for link in net.links.values():
            link.add_on_change(self._on_link_change)

    def add_cbr(
        self,
        node,
        group,
        packet_interval: float = 0.1,
        payload_bytes: int = 1000,
        flow: Optional[str] = None,
    ) -> FluidSource:
        src = FluidSource(
            self, node, group, packet_interval, payload_bytes, flow,
            probe_interval=self.probe_interval,
        )
        self.flows.append(src)
        return src

    def add_onoff(
        self,
        node,
        group,
        packet_interval: float = 0.1,
        payload_bytes: int = 1000,
        mean_on: float = 10.0,
        mean_off: float = 10.0,
        flow: Optional[str] = None,
    ) -> FluidOnOffSource:
        src = FluidOnOffSource(
            self, node, group, packet_interval, payload_bytes,
            mean_on, mean_off, flow, probe_interval=self.probe_interval,
        )
        self.flows.append(src)
        return src

    def sync(self) -> None:
        """Integrate accumulated rate-time up to ``sim.now``."""
        if self.net is None:
            return
        now = self.net.sim.now
        if now > self._last_sync:
            self._integrate(now)

    def probes_sent(self) -> int:
        return sum(src.sent for src in self.flows)

    def describe(self) -> Dict[str, object]:
        return {
            "traffic_model": self.name,
            "flows": len(self.flows),
            "probes_sent": self.probes_sent(),
            "recomputes": self.recomputes,
            "analytic_bytes": self.analytic_bytes,
            "analytic_packets": self.analytic_packets,
            "delivered_bytes": sum(self.delivered_bytes.values()),
            "lost_bytes": dict(self.lost_bytes),
        }

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def on_flow_change(self, _src) -> None:
        self._touch()

    def _on_trace(self, event) -> None:
        self._dirty.add(event.node)
        kind = event.detail.get("event")
        if kind in _QUIET_EVENTS:
            return
        if kind == "node-restart" and event.category == "fault":
            self._resync_after_restart()
        elif event.category == "mld" and kind in _MEMBERSHIP_EVENTS:
            # A listener (re)appeared on some router: in packet mode the
            # next datagram arrives within one packet_interval and drives
            # the graft machinery forward; fire an out-of-cycle probe so
            # fluid mode does the same instead of waiting out the probe
            # cadence (the §4.3 join-delay quantization bug).
            self._request_resync()
        self._touch()

    def _resync_after_restart(self) -> None:
        """Re-prime data-driven state after a cold router restart.

        A restarted router has no (S,G) entries, and
        :meth:`_router_receive` refuses to carry fluid rate through a
        router until a real packet rebuilds the entry.  Left alone,
        recovery would wait for the next scheduled probe — up to
        ``probe_interval`` (100× the packet interval by default),
        where the packet model recovers within one ``packet_interval``.
        Firing one immediate out-of-cycle probe per emitting flow
        resynchronizes the two models at the restart boundary without
        touching the regular probe cadence."""
        self._request_resync()

    def _request_resync(self) -> None:
        """Schedule one immediate out-of-cycle probe per emitting flow.

        Deduplicated per (flow, timestamp): membership changes at scale
        fire ``members-detected`` once per joining link, and the
        delivery-rate transition in :meth:`_recompute` may land at the
        same instant — one probe per flow per boundary is enough to
        resynchronize with packet mode."""
        now = self.net.sim.now
        if self._resync_at != now:
            self._resync_at = now
            self._resync_flows.clear()
        for src in self.flows:
            if src.emitting and id(src) not in self._resync_flows:
                self._resync_flows.add(id(src))
                self.net.sim.schedule(
                    0.0, self._resync_probe, src, label=f"{src.flow}.resync"
                )

    def _resync_probe(self, src: FluidSource) -> None:
        # Re-check at dispatch: a same-timestamp handler may have
        # stopped the flow between scheduling and firing.
        if src.emitting:
            src._send_one()

    def _on_link_change(self, link) -> None:
        if self.net is not None:
            self._dirty.add(link)
            self._touch()

    def _touch(self) -> None:
        """A protocol boundary at ``sim.now``: schedule one
        end-of-timestamp recomputation."""
        if not self._recompute_pending:
            self._recompute_pending = True
            self.net.sim.schedule(0.0, self._recompute_event, label="fluid.recompute")

    def _recompute_event(self) -> None:
        self._recompute_pending = False
        # The zero-delay event runs after every same-timestamp protocol
        # handler already queued, so the table reflects all of them.
        self._recompute()

    # ------------------------------------------------------------------
    # integration
    # ------------------------------------------------------------------
    def _integrate(self, until: float) -> None:
        dt = until - self._last_sync
        self._last_sync = until
        if dt <= 0.0:
            return
        stats = self.net.stats
        for link_name, cats in self._link_rates.items():
            for category, (brate, prate) in cats.items():
                stats.account_fluid(link_name, category, brate * dt, prate * dt)
                self.analytic_bytes += brate * dt
                self.analytic_packets += prate * dt
        for (kind, key), rates in self._counter_rates.items():
            if kind == "load":
                for obj, rate in rates.items():
                    load = obj.load
                    load[key] = load.get(key, 0) + rate * dt
            else:
                for obj, rate in rates.items():
                    setattr(obj, key, getattr(obj, key, 0) + rate * dt)
        for host_name, rate in self._delivery_rates.items():
            self.delivered_bytes[host_name] += rate * dt
        for reason, rate in self._loss_rates.items():
            self.lost_bytes[reason] += rate * dt

    # ------------------------------------------------------------------
    # rate-table recomputation
    # ------------------------------------------------------------------
    def _recompute(self) -> None:
        self.recomputes += 1
        self._round += 1
        touched: Dict[tuple, None] = {}
        work = set(self._volatile)
        for rank, src in enumerate(self.flows):
            root = self._walks.get(src)
            if not src.emitting:
                if root is not None:
                    del self._walks[src]
                    self._drop(root, touched)
            elif root is None:
                root = self._walks[src] = _Visit(src, None, rank)
                self._grow(root, touched)
            else:
                work.add(root)  # no mark tracks the source's own state
        readers, nodes = self._readers, self.net.nodes
        for mark in self._dirty:
            work.update(readers.get(mark, ()))
            node = nodes.get(mark)
            if node is not None and not node.is_router:
                # a host that just attached is not yet among the names
                # its new link's visits read
                for iface in node.interfaces:
                    if iface.link is not None:
                        work.update(readers.get(iface.link, ()))
        self._dirty.clear()
        for visit in sorted((v for v in work if v.alive), key=_position):
            # an ancestor re-evaluated earlier in this loop may have
            # dropped or regrown it
            if visit.alive and visit.stamp != self._round:
                self._reevaluate(visit, touched)
        if touched:
            self._install(touched)

    def _install(self, touched: Dict[tuple, None]) -> None:
        """Re-fold every touched slot and install the tables that
        changed.  A recomputation that reproduces the installed table
        changes nothing; otherwise the constant-rate segment that ends
        here is integrated with the old table first."""
        links = _TableEdit(self._link_rates)
        counters = _TableEdit(self._counter_rates)
        deliveries = _TableEdit(self._delivery_rates)
        losses = _TableEdit(self._loss_rates)
        ready = False  # some receiver's delivery rate went 0 -> positive
        for slot in touched:
            value = self._fold(slot)
            kind = slot[0]
            if kind == "link":
                links.put_in(slot[1], slot[2], value)
            elif kind == "deliver":
                old = deliveries.table.get(slot[1])
                if deliveries.put(slot[1], value) and value is not None:
                    ready = ready or (value > 0.0 and (old is None or old <= 0.0))
            elif kind == "loss":
                losses.put(slot[1], value)
            else:
                counters.put_in(slot[:2], slot[2], value)
        if not (links.copied or counters.copied or deliveries.copied or losses.copied):
            return  # the installed table still holds: the segment goes on
        self.sync()  # close the constant-rate segment with the old table
        old_rates = self._link_rates
        self._link_rates = links.table
        self._counter_rates = counters.table
        self._delivery_rates = deliveries.table
        self._loss_rates = losses.table
        self._emit_boundaries(old_rates, self._link_rates)
        # A receiver's delivery rate went 0 -> positive: the tree just
        # became ready for it (graft completed / oif added).  This is
        # the instant the next packet-mode datagram would arrive, so
        # fire an out-of-cycle probe to give the receiver app its first
        # real delivery now — span/app-derived join delays otherwise
        # quantize to the probe cadence.
        if ready:
            self._request_resync()

    def _emit_boundaries(self, old, new) -> None:
        tracer = self.net.tracer
        if not tracer.wants("fluid"):
            return
        # a fixed order: the new table's links, then those it dropped
        for link_name in [*new, *(name for name in old if name not in new)]:
            cats_before, cats_after = old.get(link_name, {}), new.get(link_name, {})
            if cats_before == cats_after:
                continue
            before = sum(b for b, _ in cats_before.values())
            after = sum(b for b, _ in cats_after.values())
            if abs(after - before) > 1e-9:
                tracer.record(
                    "fluid",
                    link_name,
                    event="rate-change",
                    rate=round(after, 6),
                    prev=round(before, 6),
                )

    # -- the walk cache ------------------------------------------------
    def _grow(self, visit: "_Visit", touched) -> None:
        """Evaluate ``visit`` and every visit below it afresh."""
        pending = [visit]
        for fresh in pending:  # grows while it is walked: BFS order
            fresh.ops, child_args, fresh.reads, fresh.volatile = self._evaluate(fresh)
            fresh.stamp = self._round
            self._index(fresh)
            self._assert(fresh, touched)
            fresh.children = [_Visit(args, fresh) for args in child_args]
            pending.extend(fresh.children)

    def _reevaluate(self, visit: "_Visit", touched) -> None:
        """Evaluate a visit again; keep each child subtree whose visit
        arguments are unchanged."""
        ops, child_args, reads, volatile = self._evaluate(visit)
        visit.stamp = self._round
        if reads != visit.reads or volatile != visit.volatile:
            self._unindex(visit)
            visit.reads, visit.volatile = reads, volatile
            self._index(visit)
        if ops != visit.ops:
            self._retract(visit, touched)
            visit.ops = ops
            self._assert(visit, touched)
        old = visit.children
        if len(old) == len(child_args) and all(
            child.args == args for child, args in zip(old, child_args)
        ):
            return
        spare: Dict[tuple, List[_Visit]] = {}
        for child in old:
            spare.setdefault(child.args, []).append(child)
        children, grown = [], []
        for args in child_args:
            same = spare.get(args)
            if same:
                children.append(same.pop(0))
            else:
                child = _Visit(args, visit)
                children.append(child)
                grown.append(child)
        visit.children = children
        for rest in spare.values():
            for child in rest:
                self._drop(child, touched)
        for child in grown:
            self._grow(child, touched)

    def _drop(self, visit: "_Visit", touched) -> None:
        """Retract ``visit`` and its whole subtree."""
        pending = [visit]
        for gone in pending:
            gone.alive = False
            self._retract(gone, touched)
            self._unindex(gone)
            pending.extend(gone.children)

    def _index(self, visit: "_Visit") -> None:
        readers = self._readers
        for mark in visit.reads:
            found = readers.get(mark)
            if found is None:
                readers[mark] = {visit}
            else:
                found.add(visit)
        if visit.volatile:
            self._volatile.add(visit)

    def _unindex(self, visit: "_Visit") -> None:
        readers = self._readers
        for mark in visit.reads:
            readers[mark].discard(visit)
        self._volatile.discard(visit)

    def _assert(self, visit: "_Visit", touched) -> None:
        contrib = self._contrib
        for slot, value in visit.ops:
            by_visit = contrib.get(slot)
            if by_visit is None:
                contrib[slot] = {visit: [value]}
            else:
                values = by_visit.get(visit)
                if values is None:
                    by_visit[visit] = [value]
                else:
                    values.append(value)
            touched[slot] = None

    def _retract(self, visit: "_Visit", touched) -> None:
        contrib = self._contrib
        for slot, _value in visit.ops:
            by_visit = contrib.get(slot)
            if by_visit is not None and by_visit.pop(visit, None) is not None:
                if not by_visit:
                    del contrib[slot]
            touched[slot] = None

    def _fold(self, slot: tuple):
        """The slot's value as the full walk sums it — its contributions
        in flow order, then BFS order, each visit's in operation order —
        or None when nothing contributes."""
        by_visit = self._contrib.get(slot)
        if by_visit is None:
            return None
        parts = by_visit.values()
        # float addition commutes, so the order matters from three terms on
        if len(parts) > 2 or (len(parts) == 2 and sum(map(len, parts)) > 2):
            parts = [by_visit[visit] for visit in sorted(by_visit, key=_position)]
        if slot[0] == "link":
            brate = prate = 0.0
            for values in parts:
                for b, p in values:
                    brate += b
                    prate += p
            return brate, prate
        total = 0.0
        for values in parts:
            for value in values:
                total += value
        return total

    # -- the planner ---------------------------------------------------
    def _evaluate(self, visit: "_Visit"):
        """One step of a flow's walk, applying the packet-mode
        forwarding rules analytically: ``(ops, child_args, reads,
        volatile)``.  A root visit plans the source and reads nothing
        the dirty set tracks (it is evaluated at every recomputation);
        a link visit reads its link and the nodes on it.  ``volatile``
        marks a visit that read state off the tree (a home agent's
        tunnel relay), which is then evaluated at every recomputation
        too."""
        ops = _Ops()
        children: List[tuple] = []
        if visit.parent is None:
            self._plan_source(visit.args, ops, children)
            return ops, children, (), False
        self.visits_evaluated += 1
        link, sender, key, group, b, p, l, hops = visit.args
        if link is None or hops <= 0:
            return ops, children, (), False
        if not link.up:
            ops.lose("link-down", b)
            return ops, children, (link,), False
        ops.charge(link.name, "mcast_data", b, p)
        keep = 1.0 - link.loss_rate
        if keep < 1.0:
            ops.lose("link-loss", b * (1.0 - keep))
        rb, rp, rl = b * keep, p * keep, l * keep
        reads = [link]
        relays = False
        for iface in link.interfaces:
            node = iface.node
            if node is sender:
                continue
            reads.append(node.name)
            if node.crashed:
                continue
            ops.count("load", node, "packets_processed", rl)
            if node.is_router:
                relays |= self._router_receive(
                    node, iface, key, group, rb, rp, rl, hops - 1, children, ops
                )
            elif group in getattr(node, "joined_groups", ()):
                ops.deliver(node.name, rb)
        return ops, children, tuple(reads), relays

    def _plan_source(self, src: FluidSource, ops: "_Ops", children) -> None:
        node = src.node
        pkt_rate = 1.0 / src.packet_interval
        inner_bytes = src.payload_bytes + IPV6_HEADER_BYTES
        brate = inner_bytes * pkt_rate
        # probes are real packets that already hit node counters, so the
        # analytic top-up of integer counters uses the residual rate
        lrate = max(pkt_rate - 1.0 / src.probe_interval, 0.0)

        if not isinstance(node, MobileNode):
            iface = next((i for i in node.interfaces if i.attached), None)
            if iface is None:
                ops.lose("handoff", brate)
                return
            source, link = node.primary_address(), iface.link
        elif not node.attached:
            ops.lose("handoff", brate)
            ops.count("attr", node, "handoff_losses", lrate)
            return
        else:
            link = node.iface.link
            if node.at_home:
                source = node.home_address
            elif node.care_of_address is None:
                # Stale (erroneous) source: RPF checks stop it naturally.
                source = node._active_source
            elif node.send_mode is DeliveryMode.LOCAL:
                source = node.care_of_address
            else:
                self._plan_reverse_tunnel(
                    src, node, brate, pkt_rate, lrate, ops, children
                )
                return
        children.append(
            (link, node, sg_key(source, src.group), Address(src.group),
             brate, pkt_rate, lrate, _MAX_HOPS)
        )

    def _plan_reverse_tunnel(
        self, src, node, brate, prate, lrate, ops, children
    ) -> None:
        """Figure 4 sending: MN --unicast tunnel--> HA --> home tree."""
        ops.count("load", node, "encapsulations", lrate)
        endpoint, factor = self._plan_unicast_path(
            node, node.home_agent_address, brate, prate, lrate, ops
        )
        if endpoint is None or factor <= 0.0:
            return
        # HomeAgent._on_reverse_tunnel: decapsulate, re-emit the inner
        # datagram on the home link, and run it through its own PIM
        # engine as if received on the home interface.
        ops.count("attr", endpoint, "reverse_tunneled", lrate * factor)
        home_iface = getattr(endpoint, "home_iface_for", lambda _a: None)(
            node.home_address
        )
        if home_iface is None or home_iface.link is None:
            return
        b, p, l = brate * factor, prate * factor, lrate * factor
        key = sg_key(node.home_address, src.group)
        self._router_receive(
            endpoint, home_iface, key, src.group, b, p, l, _MAX_HOPS, children, ops
        )
        children.append((home_iface.link, endpoint, key, src.group, b, p, l, _MAX_HOPS))

    def _router_receive(
        self, router, iface, key, group, b, p, l, hops, children, ops
    ) -> bool:
        """Apply the packet-mode forwarding rules of
        ``PimDmEngine.on_multicast_data`` analytically; ``key`` is the
        flow's :func:`~repro.pimdm.state.sg_key`.  True when the router
        relayed the flow through its home-agent tunnels."""
        pim = getattr(router, "pim", None)
        if pim is None:
            return False
        entry = pim.entries.get(key)
        if entry is None:
            # No (S,G) state: the next real probe creates it (and the
            # entry-created event triggers a recomputation), exactly
            # like the first datagram does in packet mode.
            return False
        if iface is not entry.upstream_iface:
            # Non-RPF arrival: discarded (assert resolution is driven by
            # the real probes).
            return False
        outs = pim.outgoing_ifaces(entry)
        if outs and hops > 0:
            ops.count("load", router, "packets_forwarded", l * len(outs))
            for oif in outs:
                if oif.link is not None:
                    children.append((oif.link, router, key, group, b, p, l, hops))
        node_groups = pim.node_groups
        if node_groups and group in node_groups:
            self._plan_ha_relay(router, group, b, p, l, ops)
            return True
        return False

    def _plan_ha_relay(self, router, group, b, p, l, ops) -> None:
        """HomeAgent._relay_group_traffic: tunnel a copy to every
        binding-cache subscriber of the group (Figure 2 delivery)."""
        cache = getattr(router, "binding_cache", None)
        if cache is None:
            return
        for entry in cache.subscribers_of(group):
            ops.count("load", router, "encapsulations", l)
            ops.count("attr", router, "tunneled_to_mobiles", l)
            endpoint, factor = self._plan_unicast_path(
                router, entry.care_of_address, b, p, l, ops
            )
            if endpoint is not None and factor > 0.0:
                ops.count("load", endpoint, "decapsulations", l * factor)
                ops.deliver(endpoint.name, b * factor)

    def _plan_unicast_path(self, from_node, dst, b, p, l, ops):
        """Walk the tunneled unicast route from ``from_node`` to ``dst``
        exactly as ``route_and_send``/``forward_unicast`` would, charging
        every traversed link its data and tunnel-header bytes.  Returns ``(endpoint_node, delivery_factor)``
        where the factor is the product of per-link keep-probabilities
        (None endpoint: the path dead-ends — routed nowhere, link down,
        or neighbor-discovery failure — and the loss is recorded)."""
        dst = Address(dst)
        node = from_node
        factor = 1.0
        for _hop in range(_MAX_HOPS):
            if getattr(node, "crashed", False):
                ops.lose("node-crashed", b * factor)
                return None, 0.0
            link = None
            target = None
            for iface in node.interfaces:
                if iface.link is not None and iface.link.prefix.contains(dst):
                    link = iface.link
                    target = link.resolve(dst)
                    break
            if link is None:
                entry = node.routing.lookup(dst)
                if entry is not None and entry.iface.link is not None:
                    next_hop = entry.next_hop if entry.next_hop is not None else dst
                    link = entry.iface.link
                    target = link.resolve(next_hop)
                elif not node.is_router:
                    link, target = self._default_gateway(node)
            if link is None:
                ops.lose("no-route", b * factor)
                return None, 0.0
            if not link.up:
                ops.lose("link-down", b * factor)
                return None, 0.0
            if target is None:
                ops.lose("nd-failure", b * factor)
                return None, 0.0
            ops.charge(link.name, "mcast_data", b * factor, p * factor)
            ops.charge(
                link.name, "tunnel_overhead", IPV6_HEADER_BYTES * p * factor, 0.0
            )
            factor *= 1.0 - link.loss_rate
            nxt = target.node
            if getattr(nxt, "crashed", False):
                return None, 0.0
            ops.count("load", nxt, "packets_processed", l * factor)
            if nxt.owns_address(dst) or nxt.intercepts(dst):
                return nxt, factor
            if not nxt.is_router:
                return None, 0.0
            ops.count("load", nxt, "packets_forwarded", l * factor)
            node = nxt
        return None, 0.0

    @staticmethod
    def _default_gateway(node):
        """Mirror ``Node._send_via_default_gateway``: the
        lowest-addressed router interface on an attached link."""
        for iface in node.interfaces:
            if iface.link is None:
                continue
            routers = [
                (other, addr)
                for other in iface.link.interfaces
                if other.node.is_router and other is not iface
                for addr in other.addresses
                if not addr.is_link_local and not addr.is_multicast
            ]
            if routers:
                gateway = min(routers, key=lambda pair: pair[1])
                return iface.link, gateway[0]
        return None, None


class _Visit:
    """One step of a flow's cached walk.

    A link visit's ``args`` are what the walk queued for it, ``(link,
    sender, key, group, brate, prate, lrate, hops)``; a flow's root
    visit has the flow's source as ``args`` and no parent.  ``ops`` are
    the visit's plan operations, ``children`` the visits it queued, in
    walk order, and ``reads`` the link and the names of the nodes on it
    whose state the evaluation read — the marks that make it dirty.
    """

    __slots__ = (
        "args", "parent", "rank", "children", "ops", "reads", "volatile",
        "alive", "stamp",
    )

    def __init__(self, args, parent: Optional["_Visit"], rank: int = 0) -> None:
        self.args = args
        self.parent = parent
        #: a root's flow index: flows fold in this order
        self.rank = rank
        self.children: List[_Visit] = []
        self.ops: List[tuple] = []
        self.reads: tuple = ()
        self.volatile = False
        self.alive = True
        #: the recomputation that last evaluated the visit
        self.stamp = 0


def _position(visit: _Visit) -> tuple:
    """The visit's place in the full walk: its flow, then BFS order —
    depth, then the child indices down from the root."""
    path = []
    while visit.parent is not None:
        parent = visit.parent
        path.append(parent.children.index(visit))
        visit = parent
    path.reverse()
    return visit.rank, len(path), path


class _Ops(list):
    """One visit's plan operations as ``(slot, value)`` pairs.

    A slot names one entry of the rate table: ``("link", link,
    category)`` (value ``(bytes/s, packets/s)``), ``(kind, key, obj)``
    for a counter top-up (``kind`` "load" or "attr"), ``("deliver",
    host)`` or ``("loss", reason)``.
    """

    __slots__ = ()

    def charge(self, link_name, category, brate, prate) -> None:
        self.append((("link", link_name, category), (brate, prate)))

    def count(self, kind, obj, key, rate) -> None:
        if rate > 0.0:
            self.append(((kind, key, obj), rate))

    def lose(self, reason, rate) -> None:
        self.append((("loss", reason), rate))

    def deliver(self, host_name, rate) -> None:
        self.append((("deliver", host_name), rate))


class _TableEdit:
    """Copy-on-write changes to one installed table (flat, or a dict of
    dicts): the model's dicts are replaced, never mutated, so a reader
    holding the old table keeps what it saw."""

    __slots__ = ("table", "copied", "_fresh")

    def __init__(self, table: dict) -> None:
        self.table = table
        self.copied = False
        self._fresh: set = set()  # outer keys whose inner dict is a copy

    def _own(self) -> dict:
        if not self.copied:
            self.table = dict(self.table)
            self.copied = True
        return self.table

    def put(self, key, value) -> bool:
        """Set ``key`` (drop it on None); True when that changed it."""
        if self.table.get(key) == value:
            return False
        table = self._own()
        if value is None:
            del table[key]
        else:
            table[key] = value
        return True

    def put_in(self, outer, key, value) -> None:
        rates = self.table.get(outer)
        if (None if rates is None else rates.get(key)) == value:
            return
        table = self._own()
        if rates is None or outer not in self._fresh:
            rates = table[outer] = {} if rates is None else dict(rates)
            self._fresh.add(outer)
        if value is None:
            del rates[key]
            if not rates:
                del table[outer]
        else:
            rates[key] = value
