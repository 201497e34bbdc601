"""JSONL trace persistence and offline re-analysis.

A run's full measurement state — every trace event plus the stats
snapshots the §4.3 bandwidth split is computed from — is persisted as
one JSON document per line, so a simulation can be analyzed offline
(or by external tooling) without re-running it::

    python -m repro trace --export run.jsonl     # live run + export
    python -m repro trace --import run.jsonl     # same numbers, offline

Schema (``version`` 1), one object per line:

=========  ==========================================================
``type``   payload
=========  ==========================================================
header     ``{"type": "header", "version": 1, "meta": {...}}``
stats      ``{"type": "stats", "time": t, "links": {link: {cat: bytes}}}``
event      ``{"type": "event", "time": t, "category": c, "node": n,
           "detail": {...}}``
=========  ==========================================================

The header is first; stats snapshots and events follow in time order.
Lines without a ``type`` key are treated as bare event records.

Imports from ``repro.sim`` / ``repro.core`` are deferred to call time:
``repro.sim.trace`` itself imports :mod:`repro.obs.store`, and a
module-level back-import here would be circular.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Optional, TextIO, Union

from .store import TraceQueryMixin, TraceStore

__all__ = [
    "EventDigest",
    "FORMAT_VERSION",
    "TraceArchive",
    "digest_events",
    "event_record",
    "export_run",
    "import_run",
    "summarize_mobility",
]

FORMAT_VERSION = 1

PathOrFile = Union[str, "TextIO"]


def _jsonable(detail: Dict[str, Any]) -> Dict[str, Any]:
    """Detail dict with every value reduced to a JSON scalar/list."""
    out: Dict[str, Any] = {}
    for key, value in detail.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [str(v) for v in value]
        else:
            out[key] = str(value)
    return out


def event_record(event: Any) -> Dict[str, Any]:
    """The schema-v1 JSONL record for one trace event."""
    return {
        "type": "event",
        "time": event.time,
        "category": event.category,
        "node": event.node,
        "detail": _jsonable(event.detail),
    }


class EventDigest:
    """:func:`digest_events` fed one event at a time, as a listener.

    ``tracer.add_listener(digest)`` hashes each event as it is recorded,
    so :meth:`hexdigest` gives a run's golden digest with
    ``Tracer.retain = False``: no stored trace is needed.
    """

    __slots__ = ("_hash",)

    def __init__(self) -> None:
        self._hash = hashlib.sha256(f"version:{FORMAT_VERSION}\n".encode())

    def __call__(self, event: Any) -> None:
        self._hash.update(json.dumps(event_record(event)).encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def digest_events(events: Iterable[Any]) -> str:
    """SHA-256 over the schema-v1 serialization of an event stream.

    The digest covers the exact bytes :func:`export_run` writes per
    event line (plus the format version), so two runs digest equal iff
    their exported JSONL event streams are byte-for-byte identical —
    the contract of the golden-trace regression suite
    (``tests/goldens/``).
    """
    digest = EventDigest()
    for event in events:
        digest(event)
    return digest.hexdigest()


def export_run(
    path: str,
    tracer: Any,
    snapshots: Iterable[Any] = (),
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write header + stats snapshots + all trace events; returns the
    number of event lines written.

    ``tracer`` is anything exposing ``events`` (live ``Tracer`` or a
    :class:`TraceArchive`); ``snapshots`` are
    :class:`~repro.core.metrics.StatsSnapshot` instances.
    """
    written = 0
    with open(path, "w") as fh:
        fh.write(
            json.dumps(
                {"type": "header", "version": FORMAT_VERSION, "meta": meta or {}}
            )
        )
        fh.write("\n")
        for snap in snapshots:
            fh.write(
                json.dumps({"type": "stats", "time": snap.time, "links": snap.data})
            )
            fh.write("\n")
        for event in tracer.events:
            fh.write(json.dumps(event_record(event)))
            fh.write("\n")
            written += 1
    return written


def import_run(path: str) -> "TraceArchive":
    """Load a JSONL trace into an offline, queryable archive."""
    from ..sim.trace import TraceEvent  # deferred: sim.trace imports obs.store

    meta: Dict[str, Any] = {}
    version = FORMAT_VERSION
    events: List[TraceEvent] = []
    snapshots: List[Dict[str, Any]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            kind = raw.get("type", "event")
            if kind == "header":
                version = raw.get("version", FORMAT_VERSION)
                if version > FORMAT_VERSION:
                    raise ValueError(
                        f"{path}:{lineno}: unsupported trace version {version}"
                    )
                meta = raw.get("meta", {})
            elif kind == "stats":
                snapshots.append(raw)
            elif kind == "event":
                events.append(
                    TraceEvent(
                        time=raw["time"],
                        category=raw["category"],
                        node=raw["node"],
                        detail=raw.get("detail", {}),
                    )
                )
            else:
                raise ValueError(f"{path}:{lineno}: unknown record type {kind!r}")
    return TraceArchive(events, snapshots=snapshots, meta=meta, version=version)


class TraceArchive(TraceQueryMixin):
    """An imported run: the full ``Tracer`` query API, offline.

    Analysis code written against :class:`~repro.sim.trace.Tracer`
    (``query``/``first``/``last``/``count``) runs unchanged against an
    archive; stats snapshots come back as real ``StatsSnapshot``
    objects so §4.3 delta arithmetic works too.
    """

    def __init__(
        self,
        events: Iterable[Any],
        snapshots: Iterable[Dict[str, Any]] = (),
        meta: Optional[Dict[str, Any]] = None,
        version: int = FORMAT_VERSION,
    ) -> None:
        self.meta = dict(meta or {})
        self.version = version
        self._store = TraceStore()
        for event in sorted(events, key=lambda ev: ev.time):
            self._store.append(event)
        self._raw_snapshots = sorted(snapshots, key=lambda s: s["time"])

    @property
    def snapshots(self) -> List[Any]:
        """Stats snapshots in time order, as ``StatsSnapshot`` objects."""
        from ..core.metrics import StatsSnapshot  # deferred: core imports sim

        return [
            StatsSnapshot(time=raw["time"], data=raw["links"])
            for raw in self._raw_snapshots
        ]

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceArchive events={len(self._store)} "
            f"snapshots={len(self._raw_snapshots)} meta={self.meta!r}>"
        )


def summarize_mobility(
    trace: Any,
    move_time: float,
    receiver: str,
    old_link: str,
    snapshots: Iterable[Any],
    group: Optional[str] = None,
) -> Dict[str, Any]:
    """Join/leave delay and the §4.3 bandwidth split, from any trace.

    ``trace`` is anything with the tracer query API — the live
    :class:`~repro.sim.trace.Tracer` or an offline
    :class:`TraceArchive` — so the *same* computation produces the live
    and the offline numbers (the reproducibility contract of
    ``python -m repro trace``).

    ``snapshots`` must contain at least a pre-move and an end-of-run
    stats snapshot; the earliest is the baseline for the deltas.
    """
    snaps = sorted(snapshots, key=lambda s: s.time)
    join_ev = trace.first("mcast.deliver", node=receiver, since=move_time)
    leave_kw: Dict[str, Any] = {"event": "members-gone", "link": old_link}
    if group is not None:
        leave_kw["group"] = group
    leave_ev = trace.first("mld", since=move_time, **leave_kw)

    out: Dict[str, Any] = {
        "move_time": move_time,
        "receiver": receiver,
        "old_link": old_link,
        "join_delay": join_ev.time - move_time if join_ev else None,
        "leave_delay": leave_ev.time - move_time if leave_ev else None,
        "prunes": trace.count("pim", since=move_time, event="prune-sent"),
        "grafts": trace.count("pim", since=move_time, event="graft-sent"),
        "asserts": trace.count("pim", since=move_time, event="assert-sent"),
        "deliveries": trace.count("mcast.deliver", node=receiver),
        "events_total": trace.count(),
    }
    if len(snaps) >= 2:
        delta = snaps[-1].delta(snaps[0])
        out["wasted_bytes_old_link"] = delta.bytes_on(
            old_link, "mcast_data"
        ) + delta.bytes_on(old_link, "tunnel_overhead")
        out["tunnel_overhead"] = delta.total("tunnel_overhead")
        out["mld_bytes"] = delta.total("mld")
        out["pim_bytes"] = delta.total("pim")
        out["mipv6_bytes"] = delta.total("mipv6")
    return out
