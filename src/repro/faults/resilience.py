"""Resilience metrics: how the four approaches recover from faults.

Computed from receiver-side instrumentation
(:class:`~repro.traffic.apps.ReceiverApp`) and link accounting
(:class:`~repro.net.stats.NetworkStats` — drop counters make delivery
ratios computable without a tracer attached):

* **recovery time** — disruption start to the first subsequent
  delivery (the fault-injection analogue of the paper's join delay),
* **delivery ratio** — unique datagrams delivered over datagrams the
  CBR source emitted inside the measurement window (expected sequence
  numbers are arithmetic: seqno *k* leaves the source at
  ``traffic_start + k * packet_interval``),
* **duplicate ratio** — tunnel-plus-on-link double delivery under
  impairment (§4.3.2's redundancy observation),
* **longest outage** — the widest delivery gap in the window (a crash
  of the home agent stalls tunnel approaches for the crash duration
  plus the binding-refresh lag; the local approach rides through),
* **control overhead** — signaling bytes (MLD + PIM + Mobile IPv6)
  spent during the window, i.e. what loss-triggered retransmission
  machinery costs.

:func:`publish_resilience` surfaces rows as ``repro_resilience_*``
gauges on a metrics registry (duck-typed, any
:class:`repro.obs.MetricsRegistry`-shaped object).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "delivery_stats",
    "duplicate_stats",
    "expected_seqnos",
    "longest_outage",
    "publish_resilience",
    "recovery_time",
]


def expected_seqnos(
    traffic_start: float,
    packet_interval: float,
    window_start: float,
    window_end: float,
    total_sent: int,
) -> Tuple[int, int]:
    """Inclusive ``(first_seq, last_seq)`` emitted inside the window.

    Returns ``(0, -1)`` (empty) when the window contains no send times.
    Pure arithmetic from the CBR schedule — no tracer needed.
    """
    if packet_interval <= 0:
        raise ValueError("packet_interval must be positive")
    eps = packet_interval * 1e-9
    first = max(0, math.ceil((window_start - traffic_start - eps) / packet_interval))
    last = min(
        total_sent - 1,
        math.floor((window_end - traffic_start + eps) / packet_interval),
    )
    if last < first:
        return (0, -1)
    return (int(first), int(last))


def delivery_stats(
    app, flow: str, first_seq: int, last_seq: int
) -> Dict[str, Any]:
    """Unique-delivery accounting over ``[first_seq, last_seq]``."""
    expected = max(0, last_seq - first_seq + 1)
    if expected == 0:
        return {"expected": 0, "delivered": 0, "lost": 0, "delivery_ratio": None}
    got = set(app.delivered_seqnos(flow))
    delivered = sum(1 for s in range(first_seq, last_seq + 1) if s in got)
    return {
        "expected": expected,
        "delivered": delivered,
        "lost": expected - delivered,
        "delivery_ratio": delivered / expected,
    }


def recovery_time(app, disruption_at: float) -> Optional[float]:
    """Disruption start -> first delivery at/after it (None: never)."""
    return app.join_delay(disruption_at)


def duplicate_stats(app, window_start: float, window_end: float) -> Dict[str, Any]:
    deliveries = app.deliveries_between(window_start, window_end)
    total = len(deliveries)
    duplicates = sum(1 for d in deliveries if d.duplicate)
    return {
        "deliveries": total,
        "duplicates": duplicates,
        "duplicate_ratio": (duplicates / total) if total else 0.0,
    }


def longest_outage(app, window_start: float, window_end: float) -> float:
    """Widest delivery gap within the window (whole window if silent)."""
    times = sorted(
        d.time for d in app.deliveries_between(window_start, window_end)
    )
    if not times:
        return window_end - window_start
    edges = [window_start] + times + [window_end]
    return max(b - a for a, b in zip(edges, edges[1:]))


def publish_resilience(registry, rows: List[Dict[str, Any]]) -> None:
    """Export resilience rows as labelled gauges (idempotent)."""
    gauges = {
        "recovery_time": registry.gauge(
            "repro_resilience_recovery_seconds",
            "Disruption start to first subsequent delivery",
            ("approach", "scenario"),
        ),
        "delivery_ratio": registry.gauge(
            "repro_resilience_delivery_ratio",
            "Unique deliveries / datagrams sent in the window",
            ("approach", "scenario"),
        ),
        "duplicate_ratio": registry.gauge(
            "repro_resilience_duplicate_ratio",
            "Duplicate deliveries / total deliveries in the window",
            ("approach", "scenario"),
        ),
        "control_bytes": registry.gauge(
            "repro_resilience_control_bytes",
            "Signaling bytes spent during the measurement window",
            ("approach", "scenario"),
        ),
        "longest_outage": registry.gauge(
            "repro_resilience_outage_seconds",
            "Longest delivery gap in the measurement window",
            ("approach", "scenario"),
        ),
    }
    for row in rows:
        labels = {
            "approach": str(row.get("approach", "?")),
            "scenario": str(row.get("scenario", "?")),
        }
        for key, gauge in gauges.items():
            value = row.get(key)
            if value is not None:
                gauge.labels(**labels).set(float(value))
