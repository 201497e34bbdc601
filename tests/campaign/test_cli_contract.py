"""CLI contract tests.

Two promises every subcommand makes:

* ``--json`` output parses as JSON and carries the documented
  top-level keys (downstream tooling depends on these names),
* bad arguments exit non-zero with a one-line error — never a
  traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import COMMANDS, build_parser, main


def run_json(capsys, argv) -> dict:
    # ``compare`` exits explicitly (0 = all claims hold); treat a clean
    # exit like a normal return.
    try:
        main(argv)
    except SystemExit as exc:
        assert exc.code in (None, 0), f"{argv} exited {exc.code}"
    return json.loads(capsys.readouterr().out)


#: argv → keys that must be present in the --json payload.  Fast
#: variants (small grids, single repeats) keep the contract suite quick
#: while still executing every command end to end.
JSON_CONTRACTS = [
    (["fig1", "--json"], {"experiment", "tree", "prunes"}),
    (["fig2", "--json"], {"experiment", "join_delay", "leave_delay"}),
    (["fig3", "--json"], {"experiment", "tunneled_datagrams", "groups_on_behalf"}),
    (["fig4", "--json"], {"experiment", "reverse_tunneled"}),
    (["table1", "--json"], {"experiment", "approaches"}),
    (["compare", "--json"], {"experiment", "receiver_rows", "sender_rows",
                             "claims", "all_claims_hold"}),
    (["scaling", "--json"], {"experiment", "mobiles", "groups"}),
    (["timers", "--intervals", "10", "--repeats", "1", "--json"],
     {"experiment", "points"}),
    (["sweep", "timers", "--intervals", "10", "--repeats", "1", "--json"],
     {"experiment", "grid", "seed", "jobs", "cache_dir", "points", "campaign"}),
    (["faults", "--loss", "0.02", "--approaches", "local", "--json"],
     {"experiment", "scenario", "seed", "loss_rows", "campaign"}),
    (["trace", "--json"], {"join_delay", "leave_delay", "events_total"}),
    (["spans", "--approaches", "local", "--json"],
     {"experiment", "seed", "rows", "campaign"}),
    (["profile", "fig1", "--json"], {"total_events", "entries"}),
    (["topo", "--model", "hier", "--depth", "2", "--fanout", "3", "--json"],
     {"experiment", "model", "routers", "links", "digest", "connected"}),
    (["bench", "--quick", "--scale", "0.01", "--output", "/dev/null",
      "--json"],
     {"schema", "schema_version", "env", "phases", "events_per_sec"}),
]


class TestJsonContract:
    @pytest.mark.parametrize(
        "argv,keys", JSON_CONTRACTS, ids=[" ".join(a) for a, _ in JSON_CONTRACTS]
    )
    def test_json_payload_has_documented_keys(self, capsys, argv, keys):
        payload = run_json(capsys, argv)
        assert keys <= set(payload), keys - set(payload)

    def test_every_registered_command_is_covered(self):
        covered = {argv[0] for argv, _ in JSON_CONTRACTS}
        # report is Markdown-only by design; everything else must be here.
        assert covered == set(COMMANDS) - {"report"}

    def test_sweep_campaign_summary_shape(self, capsys, tmp_path):
        payload = run_json(
            capsys,
            ["sweep", "timers", "--intervals", "10", "--repeats", "1",
             "--cache-dir", str(tmp_path), "--json"],
        )
        campaign = payload["campaign"]
        assert campaign["cells"] == 1
        assert campaign["executed"] == 1 and campaign["cached"] == 0
        warm = run_json(
            capsys,
            ["sweep", "timers", "--intervals", "10", "--repeats", "1",
             "--cache-dir", str(tmp_path), "--json"],
        )
        assert warm["campaign"]["executed"] == 0
        assert warm["campaign"]["cached"] == 1
        assert warm["points"] == payload["points"]


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bogus-command"],
            ["sweep", "bogus-grid"],
            ["sweep", "--jobs", "zero"],
            ["timers", "--intervals"],
            ["profile", "bogus-experiment"],
            ["trace", "--capacity", "many"],
            ["topo", "--model", "bogus"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_unparseable_args_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["sweep", "--jobs", "0"], "--jobs must be >= 1"),
            (["sweep", "--jobs", "-4"], "--jobs must be >= 1"),
            (["sweep", "scale", "--groups", "0"], "--groups must be >= 1"),
            (["sweep", "scale", "--receivers", "0"], "--receivers must be >= 1"),
            (["sweep", "scale", "--receivers", "20", "-3"],
             "--receivers must be >= 1"),
            (["sweep", "scale", "--duration", "0"], "--duration must be positive"),
            (["sweep", "scale", "--duration", "-5"],
             "--duration must be positive"),
            (["sweep", "scale", "--mobility", "-1"], "--mobility must be >= 0"),
            (["sweep", "fluid", "--mobility", "0.5", "-0.1"],
             "--mobility must be >= 0"),
            (["sweep", "scale", "--sizes", "0x3"],
             "bad --sizes token '0x3' for model 'hier' "
             "(depth and fanout must be >= 1)"),
            (["sweep", "scale", "--sizes", "2x3", "2x0"],
             "bad --sizes token '2x0' for model 'hier' "
             "(depth and fanout must be >= 1)"),
            (["sweep", "scale", "--sizes=-1x3"],
             "bad --sizes token '-1x3' for model 'hier' "
             "(depth and fanout must be >= 1)"),
            (["sweep", "scale", "--topo-model", "fattree", "--sizes", "3"],
             "bad --sizes token '3' for model 'fattree' "
             "(k must be even and >= 2)"),
            (["sweep", "scale", "--topo-model", "fattree", "--sizes", "0"],
             "bad --sizes token '0' for model 'fattree' "
             "(k must be even and >= 2)"),
            (["sweep", "scale", "--topo-model", "waxman", "--sizes", "0"],
             "bad --sizes token '0' for model 'waxman' (n must be >= 1)"),
            (["sweep", "fluid", "--sizes", "0x5"],
             "bad --sizes token '0x5' for model 'hier' "
             "(depth and fanout must be >= 1)"),
            (["sweep", "timers", "--repeats", "0"], "--repeats must be >= 1"),
            (["faults", "--loss", "1.5"], "--loss rates must be in [0, 1)"),
            (["faults", "--approaches", "bogus"], "unknown approach"),
            (["bench", "--scale", "0"], "--scale must be positive"),
            (["bench", "--tolerance", "1.5"], "--tolerance must be in [0, 1)"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_invalid_values_exit_nonzero_with_message(self, capsys, argv, needle):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code not in (0, None)
        assert needle in str(exc.value)

    def test_invalid_cache_dir_exits_cleanly(self, tmp_path):
        bogus = tmp_path / "file-not-dir"
        bogus.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "timers", "--intervals", "10", "--repeats", "1",
                  "--cache-dir", str(bogus)])
        assert exc.value.code not in (0, None)
        assert "invalid --cache-dir" in str(exc.value)
