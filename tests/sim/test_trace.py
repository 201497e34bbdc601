"""Unit tests for the structured tracer."""

import pytest

from repro.sim import Simulator, Tracer


def make(sim=None, **kw):
    sim = sim or Simulator()
    return sim, Tracer(sim, **kw)


class TestRecording:
    def test_records_time_and_fields(self):
        sim, tr = make()
        sim.schedule(2.5, tr.record, "mld", "R3", event="join")
        sim.run()
        (ev,) = tr.events
        assert ev.time == 2.5
        assert ev.category == "mld"
        assert ev.node == "R3"
        assert ev.detail == {"event": "join"}

    def test_disabled_category_dropped(self):
        _, tr = make(disabled_categories=["link"])
        tr.record("link", "L1", x=1)
        tr.record("mld", "R1", x=1)
        assert len(tr.events) == 1

    def test_enabled_whitelist(self):
        _, tr = make(enabled_categories=["pim"])
        tr.record("pim", "A")
        tr.record("mld", "A")
        assert [e.category for e in tr.events] == ["pim"]

    def test_disable_at_runtime(self):
        _, tr = make()
        tr.record("x", "n")
        tr.disable("x")
        tr.record("x", "n")
        assert len(tr.events) == 1

    def test_listener_called_live(self):
        _, tr = make()
        seen = []
        tr.add_listener(seen.append)
        tr.record("pim", "A", event="prune-sent")
        assert len(seen) == 1 and seen[0].detail["event"] == "prune-sent"

    def test_enable_reverses_disable(self):
        _, tr = make(disabled_categories=["link"])
        tr.record("link", "L1")
        tr.enable("link")
        tr.record("link", "L1")
        assert len(tr.events) == 1

    def test_enable_extends_whitelist(self):
        _, tr = make(enabled_categories=["pim"])
        tr.record("mld", "A")
        tr.enable("mld")
        tr.record("mld", "A")
        assert [e.category for e in tr.events] == ["mld"]

    def test_is_enabled(self):
        _, tr = make(disabled_categories=["link"])
        assert not tr.is_enabled("link")
        assert tr.is_enabled("pim")
        tr.enable("link")
        assert tr.is_enabled("link")

    def test_overlapping_enable_disable_rejected(self):
        with pytest.raises(ValueError, match="both enabled and disabled"):
            make(enabled_categories=["pim", "mld"], disabled_categories=["pim"])


class TestRingCapacity:
    def test_capacity_bounds_retained_events(self):
        _, tr = make(capacity=3)
        for i in range(8):
            tr.record("x", "n", i=i)
        assert [e.detail["i"] for e in tr.events] == [5, 6, 7]
        assert tr.capacity == 3
        assert tr.count("x") == 3

    def test_set_capacity_keeps_newest(self):
        _, tr = make()
        for i in range(10):
            tr.record("x", "n", i=i)
        tr.set_capacity(4)
        assert [e.detail["i"] for e in tr.events] == [6, 7, 8, 9]
        tr.set_capacity(None)  # back to unbounded, events retained
        for i in range(10, 13):
            tr.record("x", "n", i=i)
        assert len(tr.events) == 7


class TestRetention:
    def test_retained_store_wants_every_enabled_category(self):
        _, tr = make(disabled_categories=["link"])
        assert tr.retain
        assert tr.wants("mcast.forward") and tr.wants("pim")
        assert not tr.wants("link")

    def test_listened_only_categories_are_heard_not_stored(self):
        _, tr = make()
        heard = []
        tr.add_listener(heard.append, categories=("pim",))
        tr.retain = False
        assert tr.wants("pim")
        assert not tr.wants("mcast.forward")
        tr.record("pim", "A", event="hello")
        tr.record("mcast.forward", "A", uid=1)
        assert [ev.category for ev in heard] == ["pim"]
        assert tr.events == []

    def test_neither_stored_nor_listened_is_unwanted(self):
        _, tr = make()
        tr.retain = False
        assert not tr.wants("mcast.deliver")
        tr.record("mcast.deliver", "R1", seqno=0)
        assert tr.events == []
        tr.retain = True  # the memo follows the setting
        assert tr.wants("mcast.deliver")

    def test_unfiltered_listener_wants_everything(self):
        _, tr = make(disabled_categories=["link"])
        tr.retain = False
        assert not tr.wants("mcast.forward")
        heard = []
        tr.add_listener(heard.append)
        assert tr.wants("mcast.forward")
        assert not tr.wants("link")  # a disabled category stays off
        tr.record("mcast.forward", "A")
        assert len(heard) == 1 and tr.events == []


class TestWantedOnLiveNetwork:
    """The per-frame producers read ``Tracer.wanted``; every input to
    it, changed mid-run, must change what they record from then on."""

    @pytest.mark.parametrize("category", ["link", "mcast.forward", "mcast.deliver"])
    def test_toggling_each_input_flips_what_is_recorded(self, category):
        from repro.core import PaperScenario, ScenarioConfig

        sc = PaperScenario(ScenarioConfig(seed=0))
        sc.converge()
        tracer = sc.net.tracer
        heard = []

        def window():
            """(stored any, heard any) over the next 2 simulated s."""
            stored, n_heard = tracer.count(category), len(heard)
            sc.run_until(sc.now + 2.0)
            return tracer.count(category) > stored, len(heard) > n_heard

        tracer.enable(category)
        assert window() == (True, False)
        tracer.disable(category)
        assert window() == (False, False)
        tracer.enable(category)
        assert window() == (True, False)
        tracer.retain = False
        assert window() == (False, False)
        tracer.add_listener(heard.append, categories=[category])
        assert window() == (False, True)
        tracer.retain = True
        assert window() == (True, True)


class TestQueries:
    def _populate(self):
        sim, tr = make()
        rows = [
            (1.0, "mld", "D", {"event": "join", "group": "g1"}),
            (2.0, "mld", "D", {"event": "leave", "group": "g1"}),
            (3.0, "pim", "E", {"event": "graft-sent"}),
            (4.0, "mld", "E", {"event": "join", "group": "g2"}),
        ]
        for t, cat, node, detail in rows:
            sim.schedule_at(t, tr.record, cat, node, **detail)
        sim.run()
        return tr

    def test_query_by_category(self):
        tr = self._populate()
        assert tr.count("mld") == 3

    def test_query_by_node(self):
        tr = self._populate()
        assert tr.count("mld", node="D") == 2

    def test_query_by_detail(self):
        tr = self._populate()
        assert tr.count("mld", event="join") == 2

    def test_query_time_window(self):
        tr = self._populate()
        assert tr.count(since=2.0, until=3.0) == 2

    def test_first(self):
        tr = self._populate()
        ev = tr.first("mld", event="join")
        assert ev.time == 1.0

    def test_first_none_when_absent(self):
        tr = self._populate()
        assert tr.first("mipv6") is None

    def test_last(self):
        tr = self._populate()
        assert tr.last("mld").time == 4.0

    def test_clear(self):
        tr = self._populate()
        tr.clear()
        assert tr.count() == 0

    def test_matches_helper(self):
        tr = self._populate()
        ev = tr.first("pim")
        assert ev.matches(event="graft-sent")
        assert not ev.matches(event="prune-sent")
