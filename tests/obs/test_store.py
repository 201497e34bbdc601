"""Unit tests for the indexed trace store."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs.store import TraceStore
from repro.sim.trace import TraceEvent


def ev(time, category="mld", node="A", **detail):
    return TraceEvent(time=time, category=category, node=node, detail=detail)


def fill(store, rows):
    for row in rows:
        store.append(ev(*row))
    return store


DEFAULT_ROWS = [
    (1.0, "mld", "A"),
    (2.0, "pim", "A"),
    (3.0, "mld", "B"),
    (4.0, "pim", "B"),
    (5.0, "mld", "A"),
]


class TestAppend:
    def test_len_and_order(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert len(store) == 5
        assert [e.time for e in store.events] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_out_of_order_rejected(self):
        store = fill(TraceStore(), [(2.0, "mld", "A")])
        with pytest.raises(ValueError, match="out-of-order"):
            store.append(ev(1.0))

    def test_equal_times_allowed(self):
        store = fill(TraceStore(), [(1.0, "mld", "A"), (1.0, "pim", "B")])
        assert len(store) == 2

    def test_categories_and_nodes(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert store.categories() == ["mld", "pim"]
        assert store.nodes() == ["A", "B"]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)

    def test_clear(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        store.clear()
        assert len(store) == 0
        assert store.count() == 0
        # appending after clear may go back in time (new run)
        store.append(ev(0.5))
        assert len(store) == 1


class TestSelect:
    def test_by_category(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert [e.time for e in store.select(category="mld")] == [1.0, 3.0, 5.0]

    def test_by_node(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert [e.time for e in store.select(node="B")] == [3.0, 4.0]

    def test_by_category_and_node(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert [e.time for e in store.select(category="mld", node="A")] == [1.0, 5.0]

    def test_time_window(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert [e.time for e in store.select(since=2.0, until=4.0)] == [2.0, 3.0, 4.0]

    def test_time_window_within_category(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert [e.time for e in store.select(category="mld", since=2.0)] == [3.0, 5.0]

    def test_reverse(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert [e.time for e in store.select(category="mld", reverse=True)] == [
            5.0,
            3.0,
            1.0,
        ]

    def test_unknown_category_empty(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert list(store.select(category="nope")) == []
        assert store.count(category="nope") == 0


class TestCount:
    def test_counts(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert store.count() == 5
        assert store.count(category="mld") == 3
        assert store.count(node="A") == 3
        assert store.count(category="pim", node="B") == 1
        assert store.count(since=2.0, until=4.0) == 3
        assert store.count(category="mld", since=2.0) == 2

    def test_count_matches_select(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        for kw in (
            {},
            {"category": "mld"},
            {"node": "B"},
            {"category": "pim", "node": "A"},
            {"since": 1.5},
            {"until": 3.5},
            {"category": "mld", "since": 0.0, "until": 3.0},
        ):
            assert store.count(**kw) == len(list(store.select(**kw)))


class TestRingMode:
    def test_eviction_keeps_newest(self):
        store = TraceStore(capacity=3)
        for i in range(10):
            store.append(ev(float(i), "c", "n", i=i))
        assert len(store) == 3
        assert [e.time for e in store.events] == [7.0, 8.0, 9.0]
        assert store.total_recorded == 10
        assert store.evicted == 7

    def test_indexes_respect_eviction(self):
        store = TraceStore(capacity=4)
        for i in range(12):
            store.append(ev(float(i), "even" if i % 2 == 0 else "odd", f"n{i % 3}"))
        # live window is events 8..11
        assert [e.time for e in store.select(category="even")] == [8.0, 10.0]
        assert [e.time for e in store.select(category="odd")] == [9.0, 11.0]
        assert store.count(node="n0") == len(
            [e for e in store.events if e.node == "n0"]
        )

    def test_ring_equals_tail_of_unbounded(self):
        unbounded, ring = TraceStore(), TraceStore(capacity=5)
        for i in range(37):
            for s in (unbounded, ring):
                s.append(ev(float(i), f"c{i % 4}", f"n{i % 3}"))
        assert ring.events == unbounded.events[-5:]
        for kw in ({}, {"category": "c1"}, {"node": "n2"}, {"since": 33.0}):
            tail = [e for e in unbounded.select(**kw) if e.time >= 32.0]
            assert list(ring.select(**kw)) == tail

    def test_compaction_bounds_memory(self):
        store = TraceStore(capacity=10)
        for i in range(1000):
            store.append(ev(float(i), "c", "n"))
        # internal array stays within 2x capacity after compaction
        assert len(store._events) <= 20
        assert len(store) == 10

    def test_capacity_larger_than_stream_is_lossless(self):
        unbounded, ring = TraceStore(), TraceStore(capacity=100)
        for row in DEFAULT_ROWS:
            unbounded.append(ev(*row))
            ring.append(ev(*row))
        assert ring.events == unbounded.events


class TestIndexOnFirstQuery:
    def test_append_builds_no_index(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert store._times == [] and store._by_category == {} and store._by_node == {}
        assert store.count(category="mld") == 3
        assert len(store._times) == 5

    def test_ring_compaction_builds_no_index(self):
        store = TraceStore(capacity=10)
        for i in range(1000):
            store.append(ev(float(i), f"c{i % 3}", "n"))
        assert len(store._events) <= 20
        assert store._times == [] and store._by_category == {}
        assert [e.time for e in store.select(category="c0")] == [990.0, 993.0, 996.0, 999.0]

    def test_later_query_sees_later_appends(self):
        store = fill(TraceStore(), DEFAULT_ROWS)
        assert store.count(category="pim") == 2
        store.append(ev(6.0, "pim", "C"))
        assert store.count(category="pim") == 3
        assert store.nodes() == ["A", "B", "C"]

    def test_ring_keys_are_live_only(self):
        store = TraceStore(capacity=2)
        fill(store, [(1.0, "old", "X"), (2.0, "new", "Y"), (3.0, "new", "Y")])
        assert store.categories() == ["new"]
        assert store.nodes() == ["Y"]


# ----------------------------------------------------------------------
# appends interleaved with every kind of query, against a flat list
# ----------------------------------------------------------------------
CATS = ("mld", "pim", "link")
NODES = ("A", "B", "C")
maybe_time = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 4.5, 9.0]))
appends = st.tuples(
    st.just("append"),
    st.sampled_from([0.0, 0.0, 0.5, 1.0]),  # time step: equal times too
    st.sampled_from(CATS),
    st.sampled_from(NODES),
)
queries = st.tuples(
    st.sampled_from(
        ["select", "reverse", "count", "categories", "nodes", "len", "open", "drain"]
    ),
    st.one_of(st.none(), st.sampled_from(CATS + ("absent",))),
    st.one_of(st.none(), st.sampled_from(NODES)),
    maybe_time,
    maybe_time,
)


def linear(live, category, node, since, until):
    return [
        e
        for e in live
        if (category is None or e.category == category)
        and (node is None or e.node == node)
        and (since is None or e.time >= since)
        and (until is None or e.time <= until)
    ]


#: a select opened over the 2-event ring, then drained after seven more
#: appends have compacted the ring under it
_APPEND = ("append", 1.0, "mld", "A")
_OPEN_ALL = ("open", None, None, None, None)
_OPEN_MLD = ("open", "mld", None, None, None)
_DRAIN = ("drain", None, None, None, None)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.none(), st.integers(1, 10)),
    st.lists(st.one_of(appends, queries), max_size=80),
)
@example(2, [_APPEND] * 3 + [_OPEN_ALL] + [_APPEND] * 7 + [_DRAIN])
@example(2, [_APPEND] * 3 + [_OPEN_MLD] + [_APPEND] * 7 + [_DRAIN])
def test_interleaved_queries_equal_linear_scan(capacity, ops):
    """``open`` starts a select and takes its first event; ``drain``
    finishes the oldest open one, which must yield the rest of the scan
    taken when it was opened, whatever was appended (and evicted) since."""
    store, flat, time = TraceStore(capacity=capacity), [], 0.0
    suspended = []  # (open select, the rest of its linear scan)
    for op in ops:
        if op[0] == "append":
            _, step, category, node = op
            time += step
            flat.append(ev(time, category, node))
            store.append(flat[-1])
            continue
        kind, category, node, since, until = op
        live = flat if capacity is None else flat[-capacity:]
        want = linear(live, category, node, since, until)
        if kind == "select":
            assert list(store.select(category, node, since, until)) == want
        elif kind == "reverse":
            got = list(store.select(category, node, since, until, reverse=True))
            assert got == want[::-1]
        elif kind == "count":
            assert store.count(category, node, since, until) == len(want)
        elif kind == "categories":
            assert store.categories() == sorted({e.category for e in live})
        elif kind == "nodes":
            assert store.nodes() == sorted({e.node for e in live})
        elif kind == "open":
            selected = store.select(category, node, since, until)
            assert next(selected, None) == (want[0] if want else None)
            suspended.append((selected, want[1:]))
        elif kind == "drain":
            if suspended:
                selected, rest = suspended.pop(0)
                assert list(selected) == rest
        else:
            assert len(store) == len(live) and store.events == live
