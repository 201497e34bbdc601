"""Unit tests for trace timelines and the JSONL trace round-trip."""

import pytest

from repro.analysis import handoff_timeline, render_timeline
from repro.core import LOCAL_MEMBERSHIP, PaperScenario, ScenarioConfig
from repro.obs import export_run, import_run
from repro.sim import Simulator, TraceEvent, Tracer


@pytest.fixture(scope="module")
def moved():
    sc = PaperScenario(ScenarioConfig(seed=41, approach=LOCAL_MEMBERSHIP))
    sc.converge()
    sc.move("R3", "L6", at=40.0)
    sc.run_until(60.0)
    return sc


class TestHandoffTimeline:
    def test_story_in_causal_order(self, moved):
        events = handoff_timeline(moved.net, "R3", since=39.0)
        labels = [ev.detail.get("event", ev.category) for ev in events]
        for must in ("detached", "attached", "movement-detected",
                     "coa-configured", "bu-sent", "ba-received"):
            assert must in labels, labels
        assert labels.index("detached") < labels.index("attached")
        assert labels.index("attached") < labels.index("coa-configured")
        assert labels.index("bu-sent") < labels.index("ba-received")

    def test_includes_first_delivery(self, moved):
        events = handoff_timeline(moved.net, "R3", since=39.0)
        assert any(ev.category == "mcast.deliver" for ev in events)

    def test_times_sorted(self, moved):
        events = handoff_timeline(moved.net, "R3", since=39.0)
        times = [ev.time for ev in events]
        assert times == sorted(times)

    def test_render(self, moved):
        events = handoff_timeline(moved.net, "R3", since=39.0)
        text = render_timeline(events, origin=40.0)
        assert "+" in text and "coa-configured" in text

    def test_render_empty(self):
        assert render_timeline([]) == "(no events)"


class TestJsonExport:
    def test_roundtrip(self, moved, tmp_path):
        path = tmp_path / "trace.jsonl"
        count = export_run(str(path), moved.net.tracer)
        assert count == len(moved.net.tracer.events)
        loaded = import_run(str(path)).events
        assert len(loaded) == count
        assert loaded[0].time == moved.net.tracer.events[0].time
        assert loaded[0].category == moved.net.tracer.events[0].category

    def test_detail_values_serializable(self, tmp_path):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.record("x", "n", links=["L1", "L2"], count=3, none=None)
        path = tmp_path / "t.jsonl"
        export_run(str(path), tracer)
        (ev,) = import_run(str(path)).events
        assert ev.detail["links"] == ["L1", "L2"]
        assert ev.detail["count"] == 3
