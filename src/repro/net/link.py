"""Multi-access links.

A :class:`Link` models one of the paper's Links 1–6: a broadcast-capable
subnet (think Ethernet or a wireless cell) with

* one IPv6 prefix,
* a propagation delay and a bandwidth (serialization is FIFO per link),
* link-layer addressing: a unicast frame is delivered only to the
  resolved next hop; multicast/unresolved frames are delivered to every
  other attached interface (this is what lets MLD Reports reach all
  routers and lets parallel routers — B and C in Figure 1 — both pick
  up multicast data, triggering the PIM-DM assert process).

Address resolution is implicit (a neighbor-cache per link mapping each
attached interface's addresses to the interface).  Mobile IPv6's
home-agent intercept is modelled exactly the way the protocol does it:
the HA registers the mobile node's home address on the home link as a
*proxy* entry, so unicast frames for the MN resolve to the HA.

A frame hop is :meth:`Link.transmit`, one kernel event per receiving
interface queued with ``Simulator._push`` (no ``*args``/``**kwargs``
packing per frame), then ``Link._deliver_one``, which hands the frame
to ``Node.receive`` itself.  Both ends test attachment as
``iface.link is self``, which holds exactly while the interface is in
:attr:`Link.interfaces` (``Interface.attach``/``detach`` keep the two
in step), so a flood costs O(k) in the link's population k, not
O(k²).  The link's :class:`~repro.net.stats.LinkStats` is bound on
its first charge (docs/PERFORMANCE.md, "Per-frame path").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..sim import Simulator, Tracer
from .addressing import Address, Prefix
from .loss import BernoulliLoss
from .packet import Ipv6Packet
from .stats import LinkStats, NetworkStats

if TYPE_CHECKING:  # pragma: no cover
    from .interface import Interface

__all__ = ["Link"]


class Link:
    """A multi-access link with a prefix, delay, and bandwidth."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        prefix: Prefix,
        delay: float = 0.5e-3,
        bandwidth_bps: float = 100e6,
        tracer: Optional[Tracer] = None,
        stats: Optional[NetworkStats] = None,
        loss_rate: float = 0.0,
        rng=None,
    ) -> None:
        # written so that NaN fails: frame arrival times are queued
        # with Simulator._push, which does not check them again
        if not delay >= 0:
            raise ValueError("delay must be non-negative")
        if not bandwidth_bps > 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.prefix = Prefix(prefix)
        self.delay = delay
        self.bandwidth_bps = bandwidth_bps
        self.tracer = tracer
        self.stats = stats
        #: this link's counters in ``stats``, bound on the first charge
        #: (binding at construction would list never-used links)
        self._link_stats: Optional[LinkStats] = None
        #: retained so a loss model can be installed (or the loss rate
        #: mutated) after construction with a deterministic stream
        self._rng = rng
        self._loss_rng = rng.stream(f"link.loss.{name}") if rng else None
        #: pluggable frame-loss model (models a lossy wireless cell; the
        #: robustness machinery of MLD/Mobile IPv6 — repeated unsolicited
        #: Reports, Binding Update retransmission — exists for exactly
        #: this).  ``None`` means lossless.
        self._loss_model = None
        #: observers notified when administrative state or the loss
        #: model changes (the fluid traffic model re-integrates rates
        #: on such boundaries); see :meth:`add_on_change`
        self._on_change: List[object] = []
        self.loss_rate = loss_rate
        self.frames_lost = 0
        #: administrative state: a down link drops every frame
        #: (fault injection: LinkDown/LinkUp events)
        self.up = True
        self.interfaces: List["Interface"] = []
        #: kernel label of every frame delivery, formatted once
        self._rx_label = f"{name}.rx"
        #: neighbor cache: address -> owning interface (plus proxy entries)
        self._neighbor_cache: Dict[Address, "Interface"] = {}
        self._busy_until = 0.0

    # ------------------------------------------------------------------
    # loss model & administrative state
    # ------------------------------------------------------------------
    @property
    def loss_rate(self) -> float:
        """Effective mean frame-loss probability of the current model."""
        return 0.0 if self._loss_model is None else self._loss_model.mean_loss

    @loss_rate.setter
    def loss_rate(self, rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if rate == 0.0:
            self._loss_model = None
            self._notify_change()
            return
        self._require_loss_rng()
        self._loss_model = BernoulliLoss(rate)
        self._notify_change()

    @property
    def loss_model(self):
        return self._loss_model

    def set_loss_model(self, model) -> None:
        """Install a frame-loss model (``None`` restores losslessness)."""
        if model is not None:
            self._require_loss_rng()
        self._loss_model = model
        self._notify_change()

    def add_on_change(self, observer) -> None:
        """Register a callable ``observer(link)`` invoked after every
        administrative up/down flip or loss-model change."""
        self._on_change.append(observer)

    def _notify_change(self) -> None:
        for observer in self._on_change:
            observer(self)

    def _require_loss_rng(self) -> None:
        """Create the loss stream lazily — deterministically named, so a
        post-construction mutation draws the same sequence a
        construction-time ``loss_rate`` would have."""
        if self._loss_rng is not None:
            return
        if self._rng is None:
            raise ValueError(
                f"link {self.name!r} has no RNG registry; "
                "construct it with rng= to enable frame loss"
            )
        self._loss_rng = self._rng.stream(f"link.loss.{self.name}")

    def set_down(self) -> None:
        self.up = False
        self._notify_change()

    def set_up(self) -> None:
        self.up = True
        self._notify_change()

    def _drop(self, reason: str, **detail) -> None:
        if self.stats is not None:
            self.stats.account_drop(self.name, reason)
        if self.tracer is not None:
            self.tracer.record("drop", self.name, reason=reason, **detail)

    # ------------------------------------------------------------------
    # attachment & address resolution
    # ------------------------------------------------------------------
    def attach(self, iface: "Interface") -> None:
        if iface in self.interfaces:
            raise ValueError(f"{iface} already attached to {self.name}")
        self.interfaces.append(iface)
        for addr in iface.addresses:
            self._neighbor_cache[addr] = iface

    def detach(self, iface: "Interface") -> None:
        self.interfaces.remove(iface)
        stale = [a for a, i in self._neighbor_cache.items() if i is iface]
        for addr in stale:
            del self._neighbor_cache[addr]

    def register_address(self, iface: "Interface", address: Address) -> None:
        """Bind an address to an attached interface (autoconfiguration,
        or a home agent registering a proxy entry for a mobile node)."""
        if iface not in self.interfaces:
            raise ValueError(f"{iface} not attached to {self.name}")
        self._neighbor_cache[Address(address)] = iface

    def unregister_address(self, address: Address) -> None:
        self._neighbor_cache.pop(Address(address), None)

    def resolve(self, address: Address) -> Optional["Interface"]:
        """Neighbor-cache lookup: which attached interface owns ``address``?"""
        return self._neighbor_cache.get(Address(address))

    def nodes(self) -> List[object]:
        """The nodes currently attached via this link's interfaces."""
        return [iface.node for iface in self.interfaces]

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def transmit(
        self,
        sender: "Interface",
        packet: Ipv6Packet,
        l2_dst: Optional["Interface"] = None,
    ) -> None:
        """Send ``packet`` from ``sender`` onto the link.

        ``l2_dst`` selects unicast frame delivery; ``None`` floods the
        frame to every other attached interface (multicast/broadcast).
        Serialization is FIFO per link: back-to-back packets queue
        behind each other at the link's bandwidth.
        """
        if sender.link is not self:
            # The sending interface detached (mobile node moved away)
            # before the send fired — account it like every other loss
            # path so handoff losses are not undercounted.
            self._drop("sender-detached", dst=str(packet.dst))
            return
        if sender.node.crashed:
            # A crashed node transmits nothing — stray callbacks scheduled
            # before the crash (raw events, not cancellable timers) die here.
            self._drop("node-crashed", dst=str(packet.dst))
            return
        if not self.up:
            self._drop("link-down", dst=str(packet.dst))
            return
        if l2_dst is None and not packet.dst.is_multicast:
            # Unicast frames need a resolved link-layer destination; an
            # unresolvable neighbor (e.g. a stale care-of address after
            # the mobile left) means neighbor discovery fails -> drop.
            # Flooding unicast frames would bounce them between routers.
            l2_dst = self.resolve(packet.dst)
            if l2_dst is None:
                self._drop("nd-failure", dst=str(packet.dst))
                return
        stats = self.stats
        if stats is not None:
            link_stats = self._link_stats
            if link_stats is None:
                link_stats = self._link_stats = stats.stats_for(self.name)
            link_stats.account(packet)
        size = packet.size_bytes
        tracer = self.tracer
        if tracer is not None and tracer.wanted["link"]:
            # pre-filtered before the describe()/kwargs cost: "link" is
            # the one per-frame category and is routinely disabled for
            # long benchmark runs.
            tracer.record(
                "link",
                self.name,
                packet=packet.describe(),
                size=size,
                sender=sender.node.name,
            )

        sim = self.sim
        tx_time = size * 8 / self.bandwidth_bps
        start = max(sim.now, self._busy_until)
        self._busy_until = start + tx_time
        arrival = start + tx_time + self.delay

        push = sim._push
        deliver = self._deliver_one
        label = self._rx_label
        if l2_dst is not None:
            push(arrival, deliver, (l2_dst, packet), None, label)
        else:
            # Flood delivery: scheduling does not mutate the attachment
            # list, so iterate it directly — no per-frame list() copy.
            for iface in self.interfaces:
                if iface is not sender:
                    push(arrival, deliver, (iface, packet), None, label)

    def _deliver_one(self, iface: "Interface", packet: Ipv6Packet) -> None:
        # The interface may have detached (mobile node moved) while the
        # frame was in flight; such frames are lost, which is exactly the
        # packet loss during handoff the paper's join-delay metric counts.
        if iface.link is not self:
            if self.stats is not None:
                self.stats.account_drop(self.name, "receiver-detached")
            return
        node = iface.node
        if not self.up:
            # The link went down while the frame was in flight.
            self._drop("link-down", receiver=node.name)
            return
        if node.crashed:
            # Checked before the loss draw so fault-free runs consume an
            # identical RNG sequence whether or not crashes are plausible.
            self._drop("node-crashed", receiver=node.name)
            return
        if self._loss_model is not None and self._loss_model.should_drop(
            self._loss_rng
        ):
            self.frames_lost += 1
            self._drop("link-loss", receiver=node.name)
            return
        node.receive(packet, iface)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.prefix} n={len(self.interfaces)}>"
