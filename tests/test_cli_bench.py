"""Contract tests for ``repro bench`` and the perf-regression gate.

The CI ``bench-smoke`` job relies on exactly this behaviour: a
schema-stable ``BENCH_KERNEL.json`` and a non-zero exit when events/sec
regresses beyond the tolerance against the committed baseline
(``benchmarks/results/bench_kernel_baseline.json``).  Runs use
``--scale`` to keep the workloads tiny.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    SCHEMA,
    SCHEMA_VERSION,
    check_regression,
    run_benchmarks,
    write_report,
)
from repro.cli import main

SCALE = "0.01"  # ~2k events per kernel phase: milliseconds, not seconds


@pytest.fixture(scope="module")
def quick_payload():
    return run_benchmarks(quick=True, scale=0.01)


class TestBenchReport:
    def test_schema_and_phases(self, quick_payload):
        payload = quick_payload
        assert payload["schema"] == SCHEMA
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["quick"] is True
        for key in ("python", "implementation", "platform", "cpu_count"):
            assert key in payload["env"]
        # quick mode: kernel + scenario + fluid phases, campaign/topogen
        # skipped
        assert set(payload["phases"]) == {
            "dispatch", "timer_restart", "scenario", "traffic_fluid",
        }
        for phase in payload["phases"].values():
            assert phase["events"] > 0
            assert phase["wall_time_s"] > 0
            assert phase["events_per_sec"] > 0
        restart = payload["phases"]["timer_restart"]
        assert restart["peak_heap"] >= 1
        assert restart["final_heap"] == 0
        assert payload["events_per_sec"] == (
            payload["phases"]["dispatch"]["events_per_sec"]
        )

    def test_cli_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_KERNEL.json"
        main(["bench", "--quick", "--scale", SCALE, "--output", str(out)])
        payload = json.loads(out.read_text())
        assert payload["schema"] == SCHEMA
        assert "wrote" in capsys.readouterr().out

    def test_cli_json_mode(self, tmp_path, capsys):
        out = tmp_path / "BENCH_KERNEL.json"
        main(["bench", "--quick", "--scale", SCALE, "--output", str(out),
              "--json"])
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(out.read_text())

    def test_invalid_flags_rejected(self, tmp_path):
        for argv in (
            ["bench", "--scale", "0"],
            ["bench", "--tolerance", "1.5"],
        ):
            with pytest.raises(SystemExit):
                main(argv)


class TestRegressionGate:
    def test_within_tolerance_passes(self, quick_payload):
        assert check_regression(quick_payload, quick_payload) == []

    def test_regression_detected(self, quick_payload):
        inflated = copy.deepcopy(quick_payload)
        for phase in inflated["phases"].values():
            if phase.get("events_per_sec"):
                phase["events_per_sec"] *= 10.0
        failures = check_regression(quick_payload, inflated, tolerance=0.2)
        assert len(failures) == len(quick_payload["phases"])
        assert all("below the baseline" in f for f in failures)

    def test_new_phases_dont_break_old_baselines(self, quick_payload):
        baseline = copy.deepcopy(quick_payload)
        del baseline["phases"]["scenario"]
        assert check_regression(quick_payload, baseline) == []

    def test_profile_mismatch_is_a_failure(self, quick_payload):
        """A full-profile run gated on a quick baseline (or vice versa)
        compares different workloads; the gate must say so, not emit a
        bogus pass/fail verdict."""
        full_ish = copy.deepcopy(quick_payload)
        full_ish["quick"] = False
        failures = check_regression(full_ish, quick_payload)
        assert len(failures) == 1
        assert "profile mismatch" in failures[0]

    def test_invalid_tolerance_rejected(self, quick_payload):
        with pytest.raises(ValueError):
            check_regression(quick_payload, quick_payload, tolerance=1.0)

    def test_cli_gate_passes_against_own_run(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        out = tmp_path / "BENCH_KERNEL.json"
        main(["bench", "--quick", "--scale", SCALE, "--output", str(baseline)])
        # Baseline rates doctored down, so a host stall inside a tiny
        # phase cannot fail the run: this test pins the gate plumbing
        # (exit 0 on pass), not real throughput.
        doctored = json.loads(baseline.read_text())
        for phase in doctored["phases"].values():
            if phase.get("events_per_sec"):
                phase["events_per_sec"] /= 1000.0
        write_report(doctored, str(baseline))
        main(["bench", "--quick", "--scale", SCALE, "--output", str(out),
              "--baseline", str(baseline)])

    def test_cli_gate_fails_on_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        out = tmp_path / "BENCH_KERNEL.json"
        main(["bench", "--quick", "--scale", SCALE, "--output", str(baseline)])
        doctored = json.loads(baseline.read_text())
        for phase in doctored["phases"].values():
            if phase.get("events_per_sec"):
                phase["events_per_sec"] *= 1000.0
        write_report(doctored, str(baseline))
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quick", "--scale", SCALE, "--output", str(out),
                  "--baseline", str(baseline)])
        assert exc.value.code == 1
        assert "PERF REGRESSION" in capsys.readouterr().out

    def test_cli_gate_missing_baseline_errors(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quick", "--scale", SCALE,
                  "--output", str(tmp_path / "b.json"),
                  "--baseline", str(tmp_path / "missing.json")])
        assert exc.value.code == 1
