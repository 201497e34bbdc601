"""Bytes held per delivery and per trace event in a Figure 2 run.

``tracemalloc`` attributes each live block to the source line that
allocated it; after ``gc.collect()`` that attribution repeats exactly
run to run, unlike peak RSS.  The receiver app keeps each delivery as a
row of typed columns, and the trace store only lists its events until
the first query builds the indexes; an object and a ``(flow, seqno)``
tuple per delivery (364 B each) or indexes kept on append (65 B per
event) fail these bounds.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.goldens import run_canned
from repro.obs import store
from repro.traffic import apps

#: bytes per delivery allocated in repro/traffic/apps.py
DELIVERY_BYTES = 48
#: bytes per recorded event allocated in repro/obs/store.py, no query yet
EVENT_BYTES = 16


@pytest.fixture(scope="module")
def fig2():
    gc.collect()
    tracemalloc.start()
    try:
        sc = run_canned("fig2")
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return sc, snapshot


def held_by(snapshot: tracemalloc.Snapshot, module) -> int:
    only = snapshot.filter_traces([tracemalloc.Filter(True, module.__file__)])
    return sum(stat.size for stat in only.statistics("filename"))


def test_receiver_apps_hold_columns(fig2):
    sc, snapshot = fig2
    deliveries = sum(len(app.deliveries) for app in sc.apps.values())
    assert deliveries > 10_000
    per_delivery = held_by(snapshot, apps) / deliveries
    assert per_delivery <= DELIVERY_BYTES, f"{per_delivery:.1f} B per delivery"


def test_trace_store_holds_no_index_before_a_query(fig2):
    sc, snapshot = fig2
    events = len(sc.net.tracer.events)
    assert events > 10_000
    per_event = held_by(snapshot, store) / events
    assert per_event <= EVENT_BYTES, f"{per_event:.1f} B per event"
