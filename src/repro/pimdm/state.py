"""PIM-DM (S,G) forwarding state.

Each router keeps one :class:`SgEntry` per (Source, Group) pair it has
seen traffic (or control messages) for — the "(S, G) entry" of paper
§3.1 — holding:

* the **incoming (upstream) interface** — the RPF interface toward S,
* the **upstream neighbor** — target of Prunes/Grafts (None when the
  source's link is directly attached, i.e. this is a first-hop router),
* per-downstream-interface state: prune-pending (the T_PruneDel
  window), pruned (with hold timer), assert-loser (with assert timer),
* the entry **data timeout** (210 s default) after which state for a
  silent source is deleted — the reason a moved sender's old tree
  lingers (paper §4.2.2-A),
* upstream bookkeeping: whether we pruned upstream, graft-ack pending.

The engine keys its entries by :func:`sg_key`, the pair of 128-bit
address ints, so a key lives exactly as long as its entry.  Each
entry's per-interface state is a :class:`DownstreamTable`: a list
indexed by the per-node interface uid, with the pruned / assert-loser
flags pooled into two :class:`OifSet` bitmasks and slotted
:class:`DownstreamState` objects holding only timers and assert
bookkeeping.  The analytic per-object byte model used by the scaling
study lives in :mod:`repro.net.stats` (``STATE_BYTE_COSTS``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from ..net.addressing import Address
from ..net.interface import Interface
from ..sim import Timer

__all__ = [
    "DownstreamState",
    "DownstreamTable",
    "OifSet",
    "SgEntry",
    "sg_key",
]


def sg_key(source: Address, group: Address) -> tuple:
    """The entries key; the data path builds it from packet addresses
    as ``(src._int, dst._int)``."""
    return (Address(source).as_int(), Address(group).as_int())


class OifSet:
    """A set of small interface uids stored as one int bitmask.

    The per-node interface uid allocator hands out 1, 2, 3, ... so the
    mask stays a machine word for any realistic router degree.  This is
    the "array/bitset-backed oif set" of ROADMAP item 1: membership,
    add, and discard are single bit operations and the whole set costs
    one integer instead of a hash table.  The engine's per-datagram oif
    cache stamp reads ``_bits`` directly.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: int = 0) -> None:
        if bits < 0:
            raise ValueError("OifSet bits must be non-negative")
        self._bits = bits

    def add(self, uid: int) -> None:
        self._bits |= 1 << uid

    def discard(self, uid: int) -> None:
        self._bits &= ~(1 << uid)

    def clear(self) -> None:
        self._bits = 0

    def as_int(self) -> int:
        return self._bits

    def __contains__(self, uid: int) -> bool:
        return bool((self._bits >> uid) & 1)

    def __iter__(self) -> Iterator[int]:
        bits = self._bits
        uid = 0
        while bits:
            if bits & 1:
                yield uid
            bits >>= 1
            uid += 1

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __bool__(self) -> bool:
        return self._bits != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OifSet):
            return self._bits == other._bits
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OifSet({sorted(self)})"


# ----------------------------------------------------------------------
# downstream per-interface state
# ----------------------------------------------------------------------
class DownstreamState:
    """Per-(S,G)-per-downstream-interface state.

    ``pruned`` / ``assert_loser`` read and write the owning
    :class:`DownstreamTable`'s :class:`OifSet` masks; the object itself
    holds only timers and assert bookkeeping.  Create states through
    :meth:`DownstreamTable.state_for`.
    """

    __slots__ = (
        "iface",
        "prune_pending_timer",
        "prune_hold_timer",
        "assert_timer",
        "assert_winner",
        "assert_winner_metric",
        "_table",
    )

    def __init__(self, iface: Interface, table: "DownstreamTable") -> None:
        self.iface = iface
        #: Prune received, waiting T_PruneDel for a possible Join override.
        self.prune_pending_timer: Optional[Timer] = None
        #: Forwarding resumes on a pruned interface when this fires.
        self.prune_hold_timer: Optional[Timer] = None
        self.assert_timer: Optional[Timer] = None
        self.assert_winner: Optional[Address] = None
        self.assert_winner_metric: Optional[int] = None
        self._table = table

    @property
    def pruned(self) -> bool:
        return self.iface.uid in self._table.pruned_oifs

    @pruned.setter
    def pruned(self, value: bool) -> None:
        if value:
            self._table.pruned_oifs.add(self.iface.uid)
        else:
            self._table.pruned_oifs.discard(self.iface.uid)

    @property
    def assert_loser(self) -> bool:
        """This router lost an assert election on the interface."""
        return self.iface.uid in self._table.assert_loser_oifs

    @assert_loser.setter
    def assert_loser(self, value: bool) -> None:
        if value:
            self._table.assert_loser_oifs.add(self.iface.uid)
        else:
            self._table.assert_loser_oifs.discard(self.iface.uid)

    @property
    def prune_pending(self) -> bool:
        return (
            self.prune_pending_timer is not None and self.prune_pending_timer.running
        )

    def clear_prune(self) -> None:
        if self.prune_pending_timer is not None:
            self.prune_pending_timer.stop()
            self.prune_pending_timer = None
        if self.prune_hold_timer is not None:
            self.prune_hold_timer.stop()
            self.prune_hold_timer = None
        self.pruned = False

    def clear_assert(self) -> None:
        if self.assert_timer is not None:
            self.assert_timer.stop()
            self.assert_timer = None
        self.assert_loser = False
        self.assert_winner = None
        self.assert_winner_metric = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DownstreamState {self.iface.name}"
            f" pruned={self.pruned} assert_loser={self.assert_loser}>"
        )


class DownstreamTable:
    """Array-backed downstream table indexed by per-node iface uid.

    Lookups are list indexing (uids are dense small ints), and the
    per-interface pruned / assert-loser flags live in two shared
    :class:`OifSet` masks, so per-state objects shrink to timers and
    assert bookkeeping.
    """

    __slots__ = ("_states", "pruned_oifs", "assert_loser_oifs")

    def __init__(self) -> None:
        self._states: List[Optional[DownstreamState]] = []
        self.pruned_oifs = OifSet()
        self.assert_loser_oifs = OifSet()

    def get(self, uid: int) -> Optional[DownstreamState]:
        if 0 <= uid < len(self._states):
            return self._states[uid]
        return None

    def state_for(self, iface: Interface) -> DownstreamState:
        uid = iface.uid
        if uid >= len(self._states):
            self._states.extend([None] * (uid + 1 - len(self._states)))
        state = self._states[uid]
        if state is None:
            state = DownstreamState(iface, self)
            self._states[uid] = state
        return state

    def values(self) -> List[DownstreamState]:
        return [s for s in self._states if s is not None]

    def __len__(self) -> int:
        return sum(1 for s in self._states if s is not None)

    def __bool__(self) -> bool:
        return any(s is not None for s in self._states)

    def __iter__(self) -> Iterator[int]:
        return iter(s.iface.uid for s in self._states if s is not None)


# ----------------------------------------------------------------------
# (S,G) entry
# ----------------------------------------------------------------------
@dataclass
class SgEntry:
    """One (Source, Group) multicast forwarding entry."""

    source: Address
    group: Address
    upstream_iface: Optional[Interface]
    #: FIB next hop toward the source (None at a first-hop router).
    upstream_neighbor: Optional[Address]
    #: Assert winner on the upstream link overrides the FIB next hop as
    #: the target of Grafts/Prunes (paper §3.1: "downstream routers ...
    #: store the elected forwarder for later PIM-DM protocol actions").
    upstream_assert_winner: Optional[Address] = None
    upstream_assert_winner_metric: Optional[int] = None
    metric_to_source: int = 0
    entry_timer: Optional[Timer] = None
    downstream: DownstreamTable = field(default_factory=DownstreamTable)
    #: True after we sent a Prune upstream and before grafting back.
    pruned_upstream: bool = False
    last_prune_sent: float = float("-inf")
    graft_retry_timer: Optional[Timer] = None
    #: Grafts sent since the last Graft-Ack: drives the
    #: capped-exponential retry backoff (graceful degradation under
    #: sustained upstream loss).  Reset on ack.
    graft_retries: int = 0
    #: Statistics for the experiments.
    packets_forwarded: int = 0
    packets_discarded: int = 0
    #: ``(stamp, oifs)`` kept by ``PimDmEngine.outgoing_ifaces``
    oif_cache: Optional[tuple] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def key(self) -> tuple:
        return sg_key(self.source, self.group)

    def downstream_state(self, iface: Interface) -> DownstreamState:
        return self.downstream.state_for(iface)

    def upstream_target(self) -> Optional[Address]:
        """Whom to address Prunes/Grafts to (assert winner beats FIB)."""
        return (
            self.upstream_assert_winner
            if self.upstream_assert_winner is not None
            else self.upstream_neighbor
        )

    def stop_all_timers(self) -> None:
        if self.entry_timer is not None:
            self.entry_timer.stop()
        if self.graft_retry_timer is not None:
            self.graft_retry_timer.stop()
        for state in self.downstream.values():
            state.clear_prune()
            state.clear_assert()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        up = self.upstream_iface.name if self.upstream_iface else "?"
        return f"<SgEntry ({self.source},{self.group}) up={up}>"
