"""Observability: indexed trace store, metrics, profiling, trace export.

The measurement stack of the reproduction:

* :mod:`repro.obs.store` — :class:`TraceStore`, the indexed (and
  optionally ring-bounded) backing store behind
  :class:`repro.sim.trace.Tracer`,
* :mod:`repro.obs.registry` — :class:`MetricsRegistry` with counters,
  gauges and histograms, fed live from the trace stream by
  :class:`TraceCollector`, Prometheus-text exposition,
* :mod:`repro.obs.profiler` — :class:`KernelProfiler`, per-label
  dispatch count / wall-clock aggregation inside the simulation
  kernel,
* :mod:`repro.obs.export` — JSONL trace export/import,
  :class:`TraceArchive` for offline re-analysis of saved runs, and
  :class:`EventDigest`, a run's golden digest taken live,
* :mod:`repro.obs.spans` — causal span reconstruction: handover /
  graft / assert / prune-override transactions rebuilt from the trace
  stream (live via :class:`SpanRecorder` or offline via
  :func:`build_spans`), with Chrome trace-event export.

See ``docs/OBSERVABILITY.md`` for the guided tour.
"""

from .export import (
    FORMAT_VERSION,
    EventDigest,
    TraceArchive,
    digest_events,
    event_record,
    export_run,
    import_run,
    summarize_mobility,
)
from .profiler import KernelProfiler, ProfileEntry, profiled
from .registry import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    TraceCollector,
)
from .spans import (
    HANDOVER_PHASES,
    SPAN_CATEGORIES,
    Span,
    SpanBuilder,
    SpanRecorder,
    build_spans,
    chrome_trace,
    find_span,
    iter_spans,
    spans_enabled,
    spans_to_json,
    write_chrome_trace,
)
from .store import TraceQueryMixin, TraceStore

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EventDigest",
    "FORMAT_VERSION",
    "Gauge",
    "HANDOVER_PHASES",
    "Histogram",
    "KernelProfiler",
    "LATENCY_BUCKETS",
    "MetricFamily",
    "MetricsRegistry",
    "ProfileEntry",
    "SPAN_CATEGORIES",
    "Span",
    "SpanBuilder",
    "SpanRecorder",
    "TraceArchive",
    "TraceCollector",
    "TraceQueryMixin",
    "TraceStore",
    "build_spans",
    "chrome_trace",
    "digest_events",
    "event_record",
    "export_run",
    "find_span",
    "import_run",
    "iter_spans",
    "profiled",
    "spans_enabled",
    "spans_to_json",
    "summarize_mobility",
    "write_chrome_trace",
]
