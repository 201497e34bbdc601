"""Unit tests for JSONL export/import and offline analysis."""

import json

import pytest

from repro.core.metrics import StatsSnapshot
from repro.obs.export import (
    FORMAT_VERSION,
    TraceArchive,
    export_run,
    import_run,
    summarize_mobility,
)
from repro.sim import Simulator, Tracer


def make_tracer():
    sim = Simulator()
    tracer = Tracer(sim)
    rows = [
        (1.0, "mobility", "R3", {"event": "detached", "link": "L4"}),
        (2.0, "mobility", "R3", {"event": "attached", "link": "L6"}),
        (3.5, "mcast.deliver", "R3", {"group": "ff1e::1", "latency": 0.002}),
        (4.0, "pim", "E", {"event": "graft-sent"}),
        (9.0, "mld", "C", {"event": "members-gone", "link": "L4", "group": "ff1e::1"}),
    ]
    for t, cat, node, detail in rows:
        sim.schedule_at(t, tracer.record, cat, node, **detail)
    sim.run()
    return tracer


SNAPSHOTS = [
    StatsSnapshot(time=1.0, data={"L4": {"mcast_data": 100, "mld": 10}}),
    StatsSnapshot(
        time=9.0, data={"L4": {"mcast_data": 400, "mld": 30, "tunnel_overhead": 8}}
    ),
]


class TestRoundTrip:
    def test_events_preserved_in_order(self, tmp_path):
        tracer = make_tracer()
        path = str(tmp_path / "run.jsonl")
        written = export_run(path, tracer)
        assert written == 5
        archive = import_run(path)
        assert len(archive) == 5
        assert [
            (e.time, e.category, e.node, e.detail) for e in archive.events
        ] == [(e.time, e.category, e.node, e.detail) for e in tracer.events]

    def test_header_meta_and_version(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        export_run(path, make_tracer(), meta={"scenario": "x", "seed": 3})
        first = json.loads(open(path).readline())
        assert first["type"] == "header"
        assert first["version"] == FORMAT_VERSION
        archive = import_run(path)
        assert archive.meta == {"scenario": "x", "seed": 3}

    def test_snapshots_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        export_run(path, make_tracer(), snapshots=SNAPSHOTS)
        archive = import_run(path)
        snaps = archive.snapshots
        assert [s.time for s in snaps] == [1.0, 9.0]
        assert snaps[1].delta(snaps[0]).bytes_on("L4", "mcast_data") == 300

    def test_archive_query_api_matches_tracer(self, tmp_path):
        tracer = make_tracer()
        path = str(tmp_path / "run.jsonl")
        export_run(path, tracer)
        archive = import_run(path)
        for kw in (
            {"category": "mobility"},
            {"category": "mobility", "node": "R3"},
            {"since": 2.0, "until": 4.0},
            {"category": "pim", "event": "graft-sent"},
        ):
            assert archive.count(**kw) == tracer.count(**kw)
        assert archive.first("mld").time == tracer.first("mld").time
        assert archive.last("mobility").detail == tracer.last("mobility").detail


class TestFormatEdges:
    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record type"):
            import_run(str(path))

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"type": "header", "version": 99}) + "\n")
        with pytest.raises(ValueError, match="unsupported trace version"):
            import_run(str(path))

    def test_seed_format_lines_without_type(self, tmp_path):
        # the pre-obs export format: bare event dicts, no type key
        path = tmp_path / "old.jsonl"
        path.write_text(
            json.dumps(
                {"time": 1.0, "category": "mld", "node": "A", "detail": {"x": 1}}
            )
            + "\n"
        )
        events = import_run(str(path)).events
        assert len(events) == 1
        assert events[0].category == "mld"

    def test_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        export_run(path, make_tracer())
        with open(path, "a") as fh:
            fh.write("\n\n")
        assert len(import_run(path)) == 5

    def test_unsorted_events_are_ordered_on_import(self):
        from repro.sim.trace import TraceEvent

        archive = TraceArchive(
            [
                TraceEvent(5.0, "a", "n", {}),
                TraceEvent(1.0, "b", "n", {}),
                TraceEvent(3.0, "a", "n", {}),
            ]
        )
        assert [e.time for e in archive.events] == [1.0, 3.0, 5.0]


class TestSummarizeMobility:
    def test_summary_from_live_tracer(self):
        tracer = make_tracer()
        summary = summarize_mobility(
            tracer,
            move_time=1.0,
            receiver="R3",
            old_link="L4",
            snapshots=SNAPSHOTS,
            group="ff1e::1",
        )
        assert summary["join_delay"] == pytest.approx(2.5)
        assert summary["leave_delay"] == pytest.approx(8.0)
        assert summary["grafts"] == 1
        assert summary["wasted_bytes_old_link"] == 308  # 300 data + 8 overhead
        assert summary["mld_bytes"] == 20

    def test_summary_identical_offline(self, tmp_path):
        tracer = make_tracer()
        path = str(tmp_path / "run.jsonl")
        export_run(path, tracer, snapshots=SNAPSHOTS)
        archive = import_run(path)
        live = summarize_mobility(
            tracer, 1.0, "R3", "L4", SNAPSHOTS, group="ff1e::1"
        )
        offline = summarize_mobility(
            archive, 1.0, "R3", "L4", archive.snapshots, group="ff1e::1"
        )
        assert live == offline

    def test_missing_events_give_none(self):
        sim = Simulator()
        tracer = Tracer(sim)
        summary = summarize_mobility(tracer, 1.0, "R3", "L4", [])
        assert summary["join_delay"] is None
        assert summary["leave_delay"] is None
        assert "wasted_bytes_old_link" not in summary
