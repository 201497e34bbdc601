"""PIM-DM protocol configuration (draft-ietf-pim-v2-dm-03).

Defaults are the values the paper quotes:

* (S,G) data timeout = 210 s — how long state for a silent source is
  kept (paper §3.1; the stale-tree cost of a moving sender, §4.2.2-A),
* Prune Delay Time T_PruneDel = 3 s — the join-override window on
  multi-access links (paper §3.1, §4.3.1 bandwidth discussion).

Only timers and the State Refresh switch are tunable; the (S,G) state
layout is fixed (:mod:`repro.pimdm.state`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PimDmConfig"]


@dataclass(frozen=True)
class PimDmConfig:
    """Tunable PIM-DM timers; defaults match the draft/paper."""

    #: (S,G) entry lifetime for a silent source (s).  Paper: 210 s.
    data_timeout: float = 210.0
    #: T_PruneDel: delay before acting on a received Prune, giving other
    #: routers on the link the chance to send a Join (s).  Paper: 3 s.
    prune_delay: float = 3.0
    #: Lifetime of prune state on an interface before forwarding resumes
    #: (dense-mode periodic re-flood).
    prune_hold_time: float = 210.0
    #: Minimum interval between repeated Prunes for the same (S,G) while
    #: unwanted data keeps arriving.  Overheard Joins for the same flow
    #: on the incoming link refresh this limit (the LAN stays unpruned
    #: on purpose); an assert-winner change resets it so the next Prune
    #: retargets the elected forwarder immediately.
    prune_retry_interval: float = 60.0
    #: Hello period / holdtime for PIM neighbor discovery (s).
    hello_period: float = 30.0
    hello_holdtime: float = 105.0
    #: Graft retransmission interval while no Graft-Ack arrives (s).
    graft_retry_interval: float = 3.0
    #: Capped-exponential backoff on Graft retransmissions: retry *n*
    #: waits ``graft_retry_interval * graft_backoff_factor**n`` seconds,
    #: capped at ``graft_retry_max_interval``.  The first (re)try keeps
    #: the base interval, so loss-free runs are unaffected; under
    #: sustained faults the backoff stops a partitioned router from
    #: hammering a dead upstream (graceful degradation).  Factor 1.0
    #: restores the fixed-interval draft behaviour.
    graft_backoff_factor: float = 2.0
    graft_retry_max_interval: float = 30.0
    #: Lifetime of assert-loser state on an interface (s).
    assert_time: float = 180.0
    #: PIM-DM State Refresh (the RFC 3973 extension): first-hop routers
    #: periodically flood a control message down the broadcast tree that
    #: keeps downstream prune state alive, suppressing the periodic
    #: data re-flood of plain dense mode.  Off by default (the paper
    #: predates it); the ablation benchmark measures what it saves.
    state_refresh_enabled: bool = False
    #: Interval between State Refresh originations (s).
    state_refresh_interval: float = 60.0

    def __post_init__(self) -> None:
        if self.data_timeout <= 0:
            raise ValueError("data_timeout must be positive")
        if self.prune_delay < 0:
            raise ValueError("prune_delay must be non-negative")
        if self.hello_period <= 0 or self.hello_holdtime <= self.hello_period:
            raise ValueError("hello_holdtime must exceed hello_period")
        if self.graft_retry_interval <= 0:
            raise ValueError("graft_retry_interval must be positive")
        if self.graft_backoff_factor < 1.0:
            raise ValueError("graft_backoff_factor must be >= 1.0")
        if self.graft_retry_max_interval < self.graft_retry_interval:
            raise ValueError(
                "graft_retry_max_interval must be >= graft_retry_interval"
            )
        if self.state_refresh_interval <= 0:
            raise ValueError("state_refresh_interval must be positive")
