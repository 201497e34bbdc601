"""Nodes: the common dispatch layer for hosts and routers.

A :class:`Node` owns interfaces and dispatches received packets:

* destination options are handed to registered option handlers
  (Mobile IPv6 Binding Updates and Acknowledgements),
* upper-layer messages are handed to registered message handlers
  (MLD, PIM, application data),
* tunneled packets (IPv6-in-IPv6) go to registered tunnel handlers,
* routers forward unicast packets they do not own via the FIB and hand
  multicast data to a pluggable multicast forwarding engine (PIM-DM).

:class:`Host` adds multicast group membership and application delivery;
the protocol-complete node types (multicast router, mobile host, home
agent) are composed in :mod:`repro.pimdm.router` and
:mod:`repro.mipv6`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple, Type

from ..sim import RngRegistry, Simulator, Tracer
from .addressing import Address
from .interface import Interface
from .link import Link
from .messages import ApplicationData, Message
from .packet import DestinationOption, Ipv6Packet
from .routing import RoutingTable

__all__ = ["Node", "Host"]

MessageHandler = Callable[[Ipv6Packet, Message, Interface], None]
OptionHandler = Callable[[Ipv6Packet, DestinationOption, Interface], None]
TunnelHandler = Callable[[Ipv6Packet, Interface], bool]


class Node:
    """Base network node."""

    is_router = False

    def __init__(
        self,
        sim: Simulator,
        name: str,
        tracer: Optional[Tracer] = None,
        rng: Optional[RngRegistry] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.tracer = tracer
        self.rng = rng or RngRegistry()
        self.interfaces: List[Interface] = []
        self._iface_uid = itertools.count(1)
        self.routing = RoutingTable()
        self._message_handlers: Dict[Type[Message], List[MessageHandler]] = {}
        #: concrete payload type -> every handler it runs, in dispatch order
        self._dispatch_cache: Dict[type, Tuple[MessageHandler, ...]] = {}
        self._option_handlers: Dict[Type[DestinationOption], List[OptionHandler]] = {}
        self._tunnel_handlers: List[TunnelHandler] = []
        #: counters exposed for the system-load comparison (§4.3)
        self.load = {
            "packets_processed": 0,
            "packets_forwarded": 0,
            "encapsulations": 0,
            "decapsulations": 0,
        }
        #: fault-injection state: a crashed node drops every packet and
        #: runs no protocol machinery until restarted
        self.crashed = False

    # ------------------------------------------------------------------
    # fault injection (repro.faults)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Stop processing packets.  Subclasses additionally cancel their
        protocol timers and discard protocol state (cold restart).  The
        ``fault`` trace event is emitted by the injector, not here."""
        self.crashed = True

    def restart(self) -> None:
        """Resume processing.  Subclasses re-boot their protocol engines
        from cold state."""
        self.crashed = False

    # ------------------------------------------------------------------
    # interfaces & addresses
    # ------------------------------------------------------------------
    def alloc_iface_uid(self) -> int:
        """Next per-node interface uid.  Per-node (not process-global) so
        auto-generated interface names depend only on the order this node
        created its interfaces — a trace-determinism requirement for the
        golden-trace suite."""
        return next(self._iface_uid)

    def new_interface(self, name: Optional[str] = None) -> Interface:
        iface = Interface(self, name=name)
        self.interfaces.append(iface)
        return iface

    def attach_to(self, link: Link, address: Optional[Address] = None) -> Interface:
        """Create an interface on ``link``, optionally with an address."""
        iface = self.new_interface()
        iface.attach(link)
        if address is not None:
            iface.add_address(address)
        return iface

    def iface_on(self, link: Link) -> Optional[Interface]:
        for iface in self.interfaces:
            if iface.link is link:
                return iface
        return None

    def addresses(self) -> List[Address]:
        return [a for iface in self.interfaces for a in iface.addresses]

    def owns_address(self, address: Address) -> bool:
        address = Address(address)
        return any(iface.has_address(address) for iface in self.interfaces)

    def primary_address(self) -> Address:
        for iface in self.interfaces:
            for addr in iface.addresses:
                if not addr.is_link_local:
                    return addr
        raise ValueError(f"{self.name} has no global address")

    def address_on(self, link: Link) -> Optional[Address]:
        iface = self.iface_on(link)
        if iface is None:
            return None
        for addr in iface.addresses:
            if not addr.is_link_local:
                return addr
        return None

    # ------------------------------------------------------------------
    # handler registration
    # ------------------------------------------------------------------
    def register_message_handler(
        self, message_type: Type[Message], handler: MessageHandler
    ) -> None:
        self._message_handlers.setdefault(message_type, []).append(handler)
        self._dispatch_cache.clear()

    def register_option_handler(
        self, option_type: Type[DestinationOption], handler: OptionHandler
    ) -> None:
        self._option_handlers.setdefault(option_type, []).append(handler)

    def register_tunnel_handler(self, handler: TunnelHandler) -> None:
        """Handlers are tried in order; the first returning True consumed
        the tunneled packet."""
        self._tunnel_handlers.append(handler)

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def trace(self, category: str, **detail) -> None:
        if self.tracer is not None:
            self.tracer.record(category, self.name, detail)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send_on(
        self,
        iface: Interface,
        packet: Ipv6Packet,
        l2_dst: Optional[Interface] = None,
    ) -> None:
        """Transmit on a specific interface (link-scope & multicast sends);
        dropped silently while ``iface`` is detached, as by
        :meth:`Interface.send`."""
        link = iface.link
        if link is not None:
            link.transmit(iface, packet, l2_dst)

    def route_and_send(self, packet: Ipv6Packet) -> bool:
        """Originate (or forward) a unicast packet via FIB / on-link routes.

        Returns False when no route exists (packet dropped).
        """
        dst = packet.dst
        # On-link delivery first: any attached link whose prefix covers dst.
        for iface in self.interfaces:
            if iface.link is not None and iface.link.prefix.contains(dst):
                target = iface.link.resolve(dst)
                iface.send(packet, l2_dst=target)
                return True
        entry = self.routing.lookup(dst)
        if entry is None or entry.iface.link is None:
            if not self.is_router:
                return self._send_via_default_gateway(packet)
            self.trace("drop", reason="no-route", dst=str(dst))
            return False
        next_hop = entry.next_hop if entry.next_hop is not None else dst
        target = entry.iface.link.resolve(next_hop)
        entry.iface.send(packet, l2_dst=target)
        return True

    def _send_via_default_gateway(self, packet: Ipv6Packet) -> bool:
        """Host fallback: hand off-link unicast traffic to the
        lowest-addressed router on the attached link."""
        for iface in self.interfaces:
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
                iface.send(packet, l2_dst=gateway[0])
                return True
        self.trace("drop", reason="no-gateway", dst=str(packet.dst))
        return False

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def receive(self, packet: Ipv6Packet, iface: Interface) -> None:
        if self.crashed:
            return  # links drop frames first; this guards direct delivery
        self.load["packets_processed"] += 1
        dst = packet.dst
        if dst.is_multicast:
            self.handle_multicast(packet, iface)
            return
        if self.owns_address(dst):
            self.local_deliver(packet, iface)
            return
        if self.intercepts(dst):
            self.intercept_deliver(packet, iface)
            return
        if self.is_router:
            self.forward_unicast(packet, iface)
        else:
            self.trace("drop", reason="not-mine", dst=str(dst))

    def handle_multicast(self, packet: Ipv6Packet, iface: Interface) -> None:
        """Default multicast handling: dispatch control messages; subclasses
        add group delivery (hosts) and forwarding (routers)."""
        self.dispatch_message(packet, iface)

    def intercepts(self, dst: Address) -> bool:
        """Proxy intercept hook — home agents override (Mobile IPv6 §2)."""
        return False

    def intercept_deliver(self, packet: Ipv6Packet, iface: Interface) -> None:
        raise NotImplementedError

    def local_deliver(self, packet: Ipv6Packet, iface: Interface) -> None:
        """Packet addressed to this node: options, then payload."""
        for option in packet.dest_options:
            for opt_type, handlers in self._option_handlers.items():
                if isinstance(option, opt_type):
                    for handler in handlers:
                        handler(packet, option, iface)
        if packet.is_tunneled:
            self.load["decapsulations"] += 1
            self.trace("mipv6", event="decapsulate", packet=packet.inner.describe())
            for handler in self._tunnel_handlers:
                if handler(packet, iface):
                    return
            # Default: act as tunnel endpoint, re-receive the inner packet.
            inner = packet.decapsulate()
            self.receive(inner, iface)
            return
        self.dispatch_message(packet, iface)

    def dispatch_message(self, packet: Ipv6Packet, iface: Interface) -> bool:
        """Invoke handlers registered for the payload's message type or
        any of its base classes, in registration order of the types.
        Returns whether any handler ran."""
        message = packet.payload
        handlers = self._dispatch_cache.get(type(message))
        if handlers is None:
            handlers = self._resolve_handlers(type(message))
        for handler in handlers:
            handler(packet, message, iface)
        return bool(handlers)

    def _resolve_handlers(self, cls: type) -> Tuple[MessageHandler, ...]:
        handlers: Tuple[MessageHandler, ...] = ()
        if issubclass(cls, Message):
            handlers = tuple(
                handler
                for msg_type, registered in self._message_handlers.items()
                if issubclass(cls, msg_type)
                for handler in registered
            )
        self._dispatch_cache[cls] = handlers
        return handlers

    # ------------------------------------------------------------------
    # unicast forwarding (routers)
    # ------------------------------------------------------------------
    def forward_unicast(self, packet: Ipv6Packet, iface: Interface) -> None:
        if packet.dst.is_link_local or packet.dst.is_link_scope_multicast:
            return
        if packet.hop_limit <= 1:
            self.trace("drop", reason="hop-limit", dst=str(packet.dst))
            return
        self.load["packets_forwarded"] += 1
        self.route_and_send(packet.with_decremented_hop_limit())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """An end host: multicast group membership + application delivery.

    The MLD host part (:class:`repro.mld.host.MldHost`) drives the
    signaling; this class tracks which groups the applications joined
    and delivers matching multicast data to application callbacks.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.joined_groups: Set[Address] = set()
        self._app_receivers: List[Callable[[Ipv6Packet, ApplicationData], None]] = []

    # ------------------------------------------------------------------
    def on_app_data(
        self, callback: Callable[[Ipv6Packet, ApplicationData], None]
    ) -> None:
        self._app_receivers.append(callback)

    def deliver_app_data(self, packet: Ipv6Packet) -> None:
        message = packet.inner.payload
        if isinstance(message, ApplicationData):
            tracer = self.tracer
            if tracer is not None and tracer.wanted["mcast.deliver"]:
                self.trace(
                    "mcast.deliver",
                    group=str(packet.inner.dst),
                    flow=message.flow,
                    seqno=message.seqno,
                    src=str(packet.inner.src),
                    latency=self.sim.now - message.sent_at,
                )
            for callback in self._app_receivers:
                callback(packet, message)

    # ------------------------------------------------------------------
    def handle_multicast(self, packet: Ipv6Packet, iface: Interface) -> None:
        self.dispatch_message(packet, iface)
        if packet.dst in self.joined_groups and isinstance(
            packet.payload, ApplicationData
        ):
            self.deliver_app_data(packet)

    def send_multicast(
        self,
        group: Address,
        message: Message,
        src: Optional[Address] = None,
        hop_limit: int = 64,
        iface: Optional[Interface] = None,
    ) -> Optional[Ipv6Packet]:
        """Originate a multicast datagram on the (single) attached link."""
        if iface is None:
            iface = next((i for i in self.interfaces if i.attached), None)
        if iface is None or not iface.attached:
            return None  # between links: datagram lost
        if src is None:
            src = self.address_on(iface.link) or self.primary_address()
        packet = Ipv6Packet(src, group, message, hop_limit=hop_limit)
        self.send_on(iface, packet)
        return packet
