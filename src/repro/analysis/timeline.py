"""Trace timelines.

Debugging/analysis aids over the structured trace:

* :func:`handoff_timeline` — the ordered story of one mobile host's
  handoff (detach → attach → detection → CoA → BU/BA → first
  delivery), the sequence behind every join-delay number,
* :func:`render_timeline` — align any event list as a time-offset
  table.

Lossless trace export and re-import live in :mod:`repro.obs.export`
(``export_run`` / ``import_run``).
"""

from __future__ import annotations

from typing import List, Optional

from ..net import Network
from ..sim import TraceEvent

__all__ = ["handoff_timeline", "render_timeline"]

#: (category, event) pairs that tell the handoff story, in causal order.
_HANDOFF_EVENTS = (
    ("mobility", "detached"),
    ("mobility", "attached"),
    ("mobility", "movement-detected"),
    ("mobility", "coa-configured"),
    ("mobility", "returned-home"),
    ("mipv6", "bu-sent"),
    ("mipv6", "ba-received"),
    ("mipv6", "ha-failover"),
    ("mld", "report-sent"),
    ("mld", "done-sent"),
)


def handoff_timeline(
    net: Network, host: str, since: float = 0.0, until: Optional[float] = None
) -> List[TraceEvent]:
    """All handoff-relevant events of ``host``, plus its first multicast
    delivery after each attachment."""
    relevant = []
    for category, event in _HANDOFF_EVENTS:
        relevant.extend(
            net.tracer.query(category, node=host, since=since, until=until,
                             event=event)
        )
    relevant.sort(key=lambda ev: ev.time)
    # first delivery after the last attachment completes the story
    attaches = [ev for ev in relevant if ev.detail.get("event") == "attached"]
    if attaches:
        first = net.tracer.first(
            "mcast.deliver", node=host, since=attaches[-1].time, until=until
        )
        if first is not None:
            relevant.append(first)
            relevant.sort(key=lambda ev: ev.time)
    return relevant


def render_timeline(events: List[TraceEvent], origin: Optional[float] = None) -> str:
    """Render events as a +offset table from ``origin`` (default: first)."""
    if not events:
        return "(no events)"
    base = origin if origin is not None else events[0].time
    lines = []
    for ev in events:
        label = ev.detail.get("event", ev.category)
        extras = ", ".join(
            f"{k}={v}"
            for k, v in ev.detail.items()
            if k != "event" and v not in (None, [], "")
        )
        lines.append(f"  +{ev.time - base:9.3f}s  {label:<20} {extras}")
    return "\n".join(lines)
