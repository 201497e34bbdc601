"""Analytic models and report rendering."""

from .delays import (
    disruption_from_spans,
    expected_join_delay_unsolicited,
    expected_join_delay_wait_for_query,
    expected_leave_delay,
    handovers_of,
    join_delay_from_spans,
    leave_delay_bounds,
    leave_delay_from_spans,
    phase_breakdown,
    verify_span_equivalence,
)
from .figures import render_figure, render_tree, tree_edges
from .phases import (
    render_phase_table,
    run_span_breakdown,
    span_receiver_run,
)
from .tables import Column, fmt_bytes, fmt_float, fmt_seconds, render_table
from .timeline import handoff_timeline, render_timeline
from .timeseries import BandwidthRecorder, render_series, sparkline

__all__ = [
    "BandwidthRecorder",
    "Column",
    "disruption_from_spans",
    "expected_join_delay_unsolicited",
    "expected_join_delay_wait_for_query",
    "expected_leave_delay",
    "fmt_bytes",
    "fmt_float",
    "fmt_seconds",
    "handoff_timeline",
    "handovers_of",
    "join_delay_from_spans",
    "leave_delay_bounds",
    "leave_delay_from_spans",
    "phase_breakdown",
    "render_figure",
    "render_phase_table",
    "render_series",
    "render_table",
    "render_timeline",
    "render_tree",
    "run_span_breakdown",
    "span_receiver_run",
    "sparkline",
    "tree_edges",
    "verify_span_equivalence",
]
