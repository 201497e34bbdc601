"""Unit tests for the experiment CLI."""

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in COMMANDS:
            args = parser.parse_args([command] if command != "timers" else ["timers"])
            assert args.command == command

    def test_default_seed(self):
        args = build_parser().parse_args(["fig1"])
        assert args.seed == 0

    def test_custom_seed(self):
        args = build_parser().parse_args(["fig2", "--seed", "7"])
        assert args.seed == 7

    def test_timer_arguments(self):
        args = build_parser().parse_args(
            ["timers", "--intervals", "10", "20", "--repeats", "2"]
        )
        assert args.intervals == [10.0, 20.0]
        assert args.repeats == 2


class TestExecution:
    def test_list(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "fig1" in out and "compare" in out

    def test_no_command_lists(self, capsys):
        main([])
        assert "experiments:" in capsys.readouterr().out

    def test_table1(self, capsys):
        main(["table1"])
        out = capsys.readouterr().out
        assert "Bi-directional tunnel" in out

    def test_fig1_runs(self, capsys):
        main(["fig1", "--seed", "1"])
        out = capsys.readouterr().out
        assert "L1 --A--> L2" in out
        assert "asserts:" in out

    def test_timers_small(self, capsys):
        main(["timers", "--intervals", "10", "--repeats", "1"])
        out = capsys.readouterr().out
        assert "T_Query" in out and "10" in out


class TestJsonMode:
    def test_fig1_json(self, capsys):
        import json

        main(["fig1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fig1"
        assert "tree" in payload and "prunes" in payload

    def test_table1_json(self, capsys):
        import json

        main(["table1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["approaches"]) == 4

    def test_timers_json(self, capsys):
        import json

        main(["timers", "--intervals", "10", "--repeats", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        (point,) = payload["points"]
        assert point["query_interval"] == 10.0
        assert "mean_join_delay" in point

    @pytest.mark.parametrize("command", [["timers"], ["sweep", "timers"]])
    def test_timers_seed_picks_the_cells(self, capsys, command):
        """``--seed`` seeds the timer cells: 5 moves every point, 0 is
        the default."""
        import json

        def points(*extra):
            main([*command, "--intervals", "10", "--repeats", "1", "--json", *extra])
            return json.loads(capsys.readouterr().out)["points"]

        default = points()
        assert points("--seed", "0") == default
        assert points("--seed", "5") != default


class TestObservabilityCommands:
    def test_trace_export_import_same_numbers(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "run.jsonl")
        main(["trace", "--export", path, "--json"])
        live = json.loads(capsys.readouterr().out)
        main(["trace", "--import", path, "--json"])
        offline = json.loads(capsys.readouterr().out)
        for key in (
            "join_delay",
            "leave_delay",
            "wasted_bytes_old_link",
            "tunnel_overhead",
            "mld_bytes",
            "pim_bytes",
            "mipv6_bytes",
            "events_total",
        ):
            assert live[key] == offline[key], key

    def test_trace_metrics_prometheus(self, capsys):
        main(["trace", "--metrics"])
        out = capsys.readouterr().out
        assert "# TYPE repro_trace_events_total counter" in out
        assert "repro_link_bytes{" in out
        assert "repro_node_load{" in out

    def test_trace_ring_capacity(self, capsys):
        main(["trace", "--capacity", "1000", "--json"])
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["events_total"] == 1000

    def test_profile_fig1(self, capsys):
        main(["profile", "fig1", "--top", "3"])
        out = capsys.readouterr().out
        assert "kernel profile" in out
        assert "share" in out

    def test_profile_json(self, capsys):
        import json

        main(["profile", "fig1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_events"] > 0
        assert payload["entries"][0]["count"] > 0
