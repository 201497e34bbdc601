"""Network interfaces binding nodes to links."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from .addressing import Address
from .link import Link
from .packet import Ipv6Packet

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

__all__ = ["Interface"]


class Interface:
    """One attachment point of a node.

    Routers have one interface per connected link; hosts have a single
    interface that re-attaches as the host moves between links (the
    Mobile IPv6 model: one physical interface, changing points of
    attachment).

    ``uid`` is allocated per *node* (if1, if2, ... in creation order),
    so interface identity — which feeds names into the trace stream —
    is a pure function of topology construction, never of how many
    networks the process built before (the golden-trace determinism
    contract).  Protocol state tables key on ``uid`` only within a
    single node, so per-node uniqueness is sufficient.
    """

    def __init__(self, node: "Node", name: Optional[str] = None) -> None:
        self.node = node
        self.uid = node.alloc_iface_uid()
        self.name = name or f"{node.name}.if{self.uid}"
        self.link: Optional[Link] = None
        self.addresses: List[Address] = []

    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self.link is not None

    def attach(self, link: Link) -> None:
        if self.link is not None:
            raise ValueError(f"{self.name} already attached to {self.link.name}")
        self.link = link
        link.attach(self)

    def detach(self) -> None:
        if self.link is None:
            return
        self.link.detach(self)
        self.link = None

    # ------------------------------------------------------------------
    def add_address(self, address: Address) -> None:
        """Configure an address; registers it in the link neighbor cache."""
        address = Address(address)
        if address not in self.addresses:
            self.addresses.append(address)
        if self.link is not None:
            self.link.register_address(self, address)

    def remove_address(self, address: Address) -> None:
        address = Address(address)
        if address in self.addresses:
            self.addresses.remove(address)
        if self.link is not None:
            self.link.unregister_address(address)

    def clear_addresses(self) -> None:
        for address in list(self.addresses):
            self.remove_address(address)

    def has_address(self, address: Address) -> bool:
        return Address(address) in self.addresses

    # ------------------------------------------------------------------
    def send(self, packet: Ipv6Packet, l2_dst: Optional["Interface"] = None) -> None:
        """Transmit on the attached link; silently dropped when detached
        (the host is between links — mid-handoff packet loss)."""
        link = self.link
        if link is not None:
            link.transmit(self, packet, l2_dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.link.name if self.link else "detached"
        return f"<Interface {self.name} on {where} addrs={self.addresses}>"
