"""Flow-level (fluid) traffic model.

Represents each (S,G) flow as a piecewise-constant rate and integrates
per-link byte counts **analytically** between protocol events instead
of simulating every datagram.  A 10⁴-receiver EXP-S1 cell needs ~10⁷
packet events per simulated minute in packet mode; fluid mode replaces
them with one O(tree) rate recomputation per protocol-event timestamp,
which is what makes 10⁶-receiver cells tractable (ROADMAP item 2).

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
  A recomputation that rebuilds the installed table changes nothing.
  Only when the table differs is the constant-rate segment that ends
  here integrated, once, with the *old* table (no rate changed strictly
  inside it), and the new table installed; a reader mid-segment calls
  :meth:`FluidModel.sync`.  Synthetic boundary events are emitted under
  the ``fluid`` trace category whenever a link's rate changes, so
  offline analysis can still see tree boundaries.

See ``docs/TRAFFIC.md`` for the packet-vs-fluid tolerance contract.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
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
#: periodically without changing any forwarding state — ignoring them
#: keeps recomputation off the probe/report fast paths
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
        # out-of-cycle probe dedup: flows already resynced at _resync_at
        self._resync_at = -1.0
        self._resync_flows: set = set()

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

    def _on_link_change(self, _link) -> None:
        if self.net is not None:
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
        plan = _RatePlan()
        for src in self.flows:
            if src.emitting:
                self._plan_flow(src, plan)
        counters = plan.counter_rates()
        if (
            plan.links == self._link_rates
            and counters == self._counter_rates
            and plan.deliveries == self._delivery_rates
            and plan.losses == self._loss_rates
        ):
            return  # the installed table still holds: the segment goes on
        self.sync()  # close the constant-rate segment with the old table
        old_rates = self._link_rates
        old_deliveries = self._delivery_rates
        self._link_rates = plan.links
        self._counter_rates = counters
        self._delivery_rates = dict(plan.deliveries)
        self._loss_rates = dict(plan.losses)
        self._emit_boundaries(old_rates, self._link_rates)
        # A receiver's delivery rate went 0 -> positive: the tree just
        # became ready for it (graft completed / oif added).  This is
        # the instant the next packet-mode datagram would arrive, so
        # fire an out-of-cycle probe to give the receiver app its first
        # real delivery now — span/app-derived join delays otherwise
        # quantize to the probe cadence.
        if any(
            rate > 0.0 and old_deliveries.get(host, 0.0) <= 0.0
            for host, rate in self._delivery_rates.items()
        ):
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

    # -- per-flow planning ---------------------------------------------
    def _plan_flow(self, src: FluidSource, plan: "_RatePlan") -> None:
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
                plan.losses["handoff"] += brate
                return
            self._plan_tree(
                node.primary_address(), src.group, iface.link, node,
                brate, pkt_rate, lrate, plan,
            )
            return

        if not node.attached:
            plan.losses["handoff"] += brate
            plan.add_counter("attr", node, "handoff_losses", lrate)
            return
        link = node.iface.link
        if node.at_home:
            self._plan_tree(
                node.home_address, src.group, link, node,
                brate, pkt_rate, lrate, plan,
            )
        elif node.care_of_address is None:
            # Stale (erroneous) source: RPF checks stop it naturally.
            self._plan_tree(
                node._active_source, src.group, link, node,
                brate, pkt_rate, lrate, plan,
            )
        elif node.send_mode is DeliveryMode.LOCAL:
            self._plan_tree(
                node.care_of_address, src.group, link, node,
                brate, pkt_rate, lrate, plan,
            )
        else:
            self._plan_reverse_tunnel(src, node, brate, pkt_rate, lrate, plan)

    def _plan_reverse_tunnel(
        self, src, node, brate, prate, lrate, plan
    ) -> None:
        """Figure 4 sending: MN --unicast tunnel--> HA --> home tree."""
        plan.add_counter("load", node, "encapsulations", lrate)
        endpoint, factor = self._plan_unicast_path(
            node, node.home_agent_address, brate, prate, lrate, plan
        )
        if endpoint is None or factor <= 0.0:
            return
        # HomeAgent._on_reverse_tunnel: decapsulate, re-emit the inner
        # datagram on the home link, and run it through its own PIM
        # engine as if received on the home interface.
        plan.add_counter("attr", endpoint, "reverse_tunneled", lrate * factor)
        home_iface = getattr(endpoint, "home_iface_for", lambda _a: None)(
            node.home_address
        )
        if home_iface is None or home_iface.link is None:
            return
        b, p, l = brate * factor, prate * factor, lrate * factor
        key = sg_key(node.home_address, src.group)
        queue = deque()
        self._router_receive(
            endpoint, home_iface, key, src.group, b, p, l, _MAX_HOPS, queue, plan
        )
        queue.append((home_iface.link, endpoint, key, src.group, b, p, l, _MAX_HOPS))
        self._drain_tree(queue, plan)

    def _plan_tree(
        self, source, group, first_link, sender_node, brate, prate, lrate, plan
    ) -> None:
        queue = deque()
        queue.append(
            (first_link, sender_node, sg_key(source, group), Address(group),
             brate, prate, lrate, _MAX_HOPS)
        )
        self._drain_tree(queue, plan)

    def _drain_tree(self, queue, plan) -> None:
        losses, processed = plan.losses, plan.processed
        while queue:
            link, sender, key, group, b, p, l, hops = queue.popleft()
            if link is None or hops <= 0:
                continue
            if not link.up:
                losses["link-down"] += b
                continue
            plan.charge(link.name, "mcast_data", b, p)
            keep = 1.0 - link.loss_rate
            if keep < 1.0:
                losses["link-loss"] += b * (1.0 - keep)
            rb, rp, rl = b * keep, p * keep, l * keep
            for iface in link.interfaces:
                node = iface.node
                if node is sender or node.crashed:
                    continue
                if rl > 0.0:
                    processed[node] = processed.get(node, 0.0) + rl
                if node.is_router:
                    self._router_receive(
                        node, iface, key, group, rb, rp, rl, hops - 1, queue, plan
                    )
                elif group in getattr(node, "joined_groups", ()):
                    plan.deliveries[node.name] += rb

    def _router_receive(
        self, router, iface, key, group, b, p, l, hops, queue, plan
    ) -> None:
        """Apply the packet-mode forwarding rules of
        ``PimDmEngine.on_multicast_data`` analytically; ``key`` is the
        flow's :func:`~repro.pimdm.state.sg_key`."""
        pim = getattr(router, "pim", None)
        if pim is None:
            return
        entry = pim.entries.get(key)
        if entry is None:
            # No (S,G) state: the next real probe creates it (and the
            # entry-created event triggers a recomputation), exactly
            # like the first datagram does in packet mode.
            return
        if iface is not entry.upstream_iface:
            # Non-RPF arrival: discarded (assert resolution is driven by
            # the real probes).
            return
        outs = pim.outgoing_ifaces(entry)
        if outs and hops > 0:
            if l > 0.0:
                forwarded = plan.forwarded
                forwarded[router] = forwarded.get(router, 0.0) + l * len(outs)
            for oif in outs:
                if oif.link is not None:
                    queue.append((oif.link, router, key, group, b, p, l, hops))
        node_groups = pim.node_groups
        if node_groups and group in node_groups:
            self._plan_ha_relay(router, group, b, p, l, plan)

    def _plan_ha_relay(self, router, group, b, p, l, plan) -> None:
        """HomeAgent._relay_group_traffic: tunnel a copy to every
        binding-cache subscriber of the group (Figure 2 delivery)."""
        cache = getattr(router, "binding_cache", None)
        if cache is None:
            return
        for entry in cache.subscribers_of(group):
            plan.add_counter("load", router, "encapsulations", l)
            plan.add_counter("attr", router, "tunneled_to_mobiles", l)
            endpoint, factor = self._plan_unicast_path(
                router, entry.care_of_address, b, p, l, plan
            )
            if endpoint is not None and factor > 0.0:
                plan.add_counter("load", endpoint, "decapsulations", l * factor)
                plan.deliveries[endpoint.name] += b * factor

    def _plan_unicast_path(self, from_node, dst, b, p, l, plan):
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
                plan.losses["node-crashed"] += b * factor
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
                plan.losses["no-route"] += b * factor
                return None, 0.0
            if not link.up:
                plan.losses["link-down"] += b * factor
                return None, 0.0
            if target is None:
                plan.losses["nd-failure"] += b * factor
                return None, 0.0
            plan.charge(link.name, "mcast_data", b * factor, p * factor)
            plan.charge(
                link.name, "tunnel_overhead", IPV6_HEADER_BYTES * p * factor, 0.0
            )
            factor *= 1.0 - link.loss_rate
            nxt = target.node
            if getattr(nxt, "crashed", False):
                return None, 0.0
            plan.add_counter("load", nxt, "packets_processed", l * factor)
            if nxt.owns_address(dst) or nxt.intercepts(dst):
                return nxt, factor
            if not nxt.is_router:
                return None, 0.0
            plan.add_counter("load", nxt, "packets_forwarded", l * factor)
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


class _RatePlan:
    """Accumulator for one rate-table recomputation."""

    __slots__ = ("links", "deliveries", "losses", "counters", "processed", "forwarded")

    def __init__(self) -> None:
        self.links: Dict[str, Dict[str, Tuple[float, float]]] = {}
        self.deliveries: Dict[str, float] = defaultdict(float)
        self.losses: Dict[str, float] = defaultdict(float)
        #: (kind, key) -> {obj: rate}, each filled in visit order
        self.counters: Dict[Tuple[str, str], Dict[object, float]] = {}
        # the two per-hop counters, added to inline by the tree walk
        self.processed = self.counters[("load", "packets_processed")] = {}
        self.forwarded = self.counters[("load", "packets_forwarded")] = {}

    def charge(self, link_name, category, brate, prate) -> None:
        cats = self.links.get(link_name)
        if cats is None:
            cats = self.links[link_name] = {}
        prev = cats.get(category)
        if prev is None:
            cats[category] = (brate, prate)
        else:
            cats[category] = (prev[0] + brate, prev[1] + prate)

    def add_counter(self, kind, obj, key, rate) -> None:
        if rate <= 0.0:
            return
        rates = self.counters.get((kind, key))
        if rates is None:
            rates = self.counters[(kind, key)] = {}
        rates[obj] = rates.get(obj, 0.0) + rate

    def counter_rates(self) -> Dict[Tuple[str, str], Dict[object, float]]:
        """The non-empty counter dicts: the table's counter part."""
        return {kind_key: rates for kind_key, rates in self.counters.items() if rates}
