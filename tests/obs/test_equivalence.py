"""Equivalence of indexed / ring-buffer tracers with the seed behavior.

The seed's ``Tracer`` answered every query by a linear scan over a flat
event list.  The indexed :class:`~repro.obs.store.TraceStore` (and its
bounded ring mode) must be *observably identical*:

* a Hypothesis property drives random event streams and a query grid
  through a re-implementation of the seed's linear scan, the indexed
  tracer, and a ring tracer with capacity >= stream length;
* a paper scenario (the Figure 2 receiver move) is run with the
  default tracer and with a ring tracer, and every §4.3 metric must
  agree;
* a JSONL export -> import round trip must preserve event ordering and
  all ``ScenarioMetrics``-level outputs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LOCAL_MEMBERSHIP, PaperScenario, ScenarioConfig
from repro.obs import export_run, import_run, summarize_mobility
from repro.sim import Tracer
from repro.sim.trace import TraceEvent


# ----------------------------------------------------------------------
# the seed's list-backed query semantics, verbatim
# ----------------------------------------------------------------------
class LinearTrace:
    """Reference: the seed Tracer's flat-list linear-scan queries."""

    def __init__(self):
        self.events = []

    def query(self, category=None, node=None, since=None, until=None, **criteria):
        for ev in self.events:
            if category is not None and ev.category != category:
                continue
            if node is not None and ev.node != node:
                continue
            if since is not None and ev.time < since:
                continue
            if until is not None and ev.time > until:
                continue
            if criteria and not ev.matches(**criteria):
                continue
            yield ev

    def first(self, category=None, **kw):
        return next(self.query(category, **kw), None)

    def last(self, category=None, **kw):
        result = None
        for ev in self.query(category, **kw):
            result = ev
        return result

    def count(self, category=None, **kw):
        return sum(1 for _ in self.query(category, **kw))


class FakeClock:
    now = 0.0


def make_tracers(stream, capacity):
    linear = LinearTrace()
    clock_a, clock_b = FakeClock(), FakeClock()
    indexed = Tracer(clock_a)
    ring = Tracer(clock_b, capacity=capacity)
    for time, category, node, detail in stream:
        linear.events.append(TraceEvent(time, category, node, dict(detail)))
        clock_a.now = clock_b.now = time
        indexed.record(category, node, **detail)
        ring.record(category, node, **detail)
    return linear, indexed, ring


events_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),  # time delta
        st.sampled_from(["mld", "pim", "mobility"]),
        st.sampled_from(["A", "B", "C"]),
        st.sampled_from([{}, {"event": "x"}, {"event": "y", "link": "L4"}]),
    ),
    min_size=0,
    max_size=60,
)

QUERY_GRID = [
    {},
    {"category": "mld"},
    {"category": "pim"},
    {"node": "A"},
    {"category": "mld", "node": "B"},
    {"event": "x"},
    {"category": "pim", "event": "y"},
]


def as_tuples(events):
    return [(e.time, e.category, e.node, e.detail) for e in events]


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(events_strategy)
    def test_indexed_and_ring_match_linear_scan(self, deltas):
        stream = []
        now = 0.0
        for delta, category, node, detail in deltas:
            now += delta
            stream.append((now, category, node, detail))
        linear, indexed, ring = make_tracers(stream, capacity=len(stream) or 1)

        times = [t for t, _, _, _ in stream]
        midpoints = [None]
        if times:
            midpoints += [times[len(times) // 2], times[0], times[-1] + 1.0]
        for base in QUERY_GRID:
            for since in midpoints:
                for until in midpoints:
                    kw = dict(base)
                    if since is not None:
                        kw["since"] = since
                    if until is not None:
                        kw["until"] = until
                    expected = list(linear.query(**kw))
                    assert as_tuples(indexed.query(**kw)) == as_tuples(expected)
                    assert as_tuples(ring.query(**kw)) == as_tuples(expected)
                    assert indexed.count(**kw) == len(expected)
                    assert ring.count(**kw) == len(expected)
                    assert indexed.first(**kw) == linear.first(**kw)
                    assert ring.first(**kw) == linear.first(**kw)
                    assert indexed.last(**kw) == linear.last(**kw)
                    assert ring.last(**kw) == linear.last(**kw)

    @settings(max_examples=30, deadline=None)
    @given(events_strategy, st.integers(min_value=1, max_value=10))
    def test_small_ring_is_exact_suffix(self, deltas, capacity):
        stream = []
        now = 0.0
        for delta, category, node, detail in deltas:
            now += delta
            stream.append((now, category, node, detail))
        linear, _, ring = make_tracers(stream, capacity=capacity)
        assert as_tuples(ring.events) == as_tuples(linear.events[-capacity:])


# ----------------------------------------------------------------------
# paper scenario: every metric identical under the ring tracer
# ----------------------------------------------------------------------
def run_fig2(capacity=None, until=90.0):
    sc = PaperScenario(ScenarioConfig(seed=0, approach=LOCAL_MEMBERSHIP))
    if capacity is not None:
        sc.net.tracer.set_capacity(capacity)
    sc.converge()
    sc.move("R3", "L6", at=40.0)
    sc.run_until(until)
    return sc


def scenario_metric_values(sc):
    return {
        "join_delay": sc.join_delay("R3", 40.0),
        "asserts": sc.metrics.assert_count(),
        "grafts": sc.metrics.graft_count(),
        "prunes": sc.metrics.prune_count(),
        "entries": sc.metrics.entries_created(),
        "flood_extent": sc.metrics.flood_extent(
            sc.paper.host("S").home_address, sc.group
        ),
        "move_start": sc.metrics.move_start_time("R3"),
        "attach": sc.metrics.attach_time("R3", "L6"),
        "coa": sc.metrics.coa_ready_time("R3"),
        "category_counts": {
            c: sc.net.tracer.count(c) for c in sc.net.tracer.store.categories()
        },
    }


class TestPaperScenarioEquivalence:
    def test_ring_tracer_reproduces_all_metrics(self):
        baseline = run_fig2()
        ringed = run_fig2(capacity=200_000)  # larger than the event stream
        assert scenario_metric_values(ringed) == scenario_metric_values(baseline)

    def test_seed_linear_scan_agrees_with_indexed_queries(self):
        sc = run_fig2()
        linear = LinearTrace()
        linear.events = list(sc.net.tracer.events)
        for kw in (
            {"category": "pim", "event": "prune-sent"},
            {"category": "mld", "since": 40.0},
            {"category": "mcast.deliver", "node": "R3", "since": 40.0},
            {"category": "mobility", "node": "R3"},
            {"since": 40.0, "until": 60.0},
        ):
            assert as_tuples(sc.net.tracer.query(**kw)) == as_tuples(
                linear.query(**kw)
            )
            assert sc.net.tracer.count(**kw) == linear.count(**kw)


# ----------------------------------------------------------------------
# JSONL round trip on the full Figure 2 run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig2_run(tmp_path_factory):
    sc = PaperScenario(ScenarioConfig(seed=0, approach=LOCAL_MEMBERSHIP))
    sc.converge()
    before = sc.metrics.snapshot()
    sc.move("R3", "L6", at=40.0)
    sc.run_until(40.0 + 260.0 + 30.0)
    snapshots = [before, sc.metrics.snapshot()]
    path = str(tmp_path_factory.mktemp("trace") / "fig2.jsonl")
    export_run(
        path,
        sc.net.tracer,
        snapshots=snapshots,
        meta={"move_time": 40.0, "receiver": "R3", "old_link": "L4"},
    )
    return sc, snapshots, path


class TestJsonlRoundTrip:
    def test_event_ordering_preserved(self, fig2_run):
        sc, _, path = fig2_run
        archive = import_run(path)
        assert len(archive.events) == len(sc.net.tracer.events)
        assert [(e.time, e.category, e.node) for e in archive.events] == [
            (e.time, e.category, e.node) for e in sc.net.tracer.events
        ]

    def test_scenario_metrics_reproduced_offline(self, fig2_run):
        sc, snapshots, path = fig2_run
        archive = import_run(path)

        live = summarize_mobility(
            sc.net.tracer, 40.0, "R3", "L4", snapshots, group=str(sc.group)
        )
        offline = summarize_mobility(
            archive, 40.0, "R3", "L4", archive.snapshots, group=str(sc.group)
        )
        assert live == offline
        # the summary's delays are the ScenarioMetrics/App-level numbers
        assert live["join_delay"] == pytest.approx(sc.join_delay("R3", 40.0))
        assert live["leave_delay"] == pytest.approx(sc.leave_delay("L4", 40.0))

    def test_metric_queries_identical_offline(self, fig2_run):
        sc, _, path = fig2_run
        archive = import_run(path)
        metrics = sc.metrics
        assert archive.count("pim", event="prune-sent") == metrics.prune_count()
        assert archive.count("pim", event="graft-sent") == metrics.graft_count()
        assert archive.count("pim", event="assert-sent") == metrics.assert_count()
        assert (
            archive.count("pim.state", event="entry-created")
            == metrics.entries_created()
        )
        links = set()
        for ev in archive.query(
            "mcast.forward",
            source=str(sc.paper.host("S").home_address),
            group=str(sc.group),
        ):
            links.update(ev.detail.get("links", []))
        assert sorted(links) == metrics.flood_extent(
            sc.paper.host("S").home_address, sc.group
        )
