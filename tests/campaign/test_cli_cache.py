"""Cold/warm cache identity of every campaign-backed CLI command.

Each command line runs twice as ``python -m repro … --jobs 2
--cache-dir DIR --json`` against one cache directory.  The cold run
executes every cell; the warm run executes none, reads every cell from
the cache, and prints the same payload.  Each run is a subprocess
because ``--check-invariants`` arms the oracles through ``os.environ``
for the rest of the calling process.

Each row also pins the SHA-256 of its cold payload (without the
``campaign`` stats and ``cache_dir``), so a refactor that moves any
command's output fails here; a change that moves it on purpose
re-pins the row.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, GRIDS, build_parser
from repro.invariants import ENV_FLAG as INVARIANTS_ENV
from repro.obs.spans import ENV_FLAG as SPANS_ENV

SRC = Path(__file__).resolve().parents[2] / "src"

PHASES = (
    "phase_l2_handoff",
    "phase_movement_detection",
    "phase_coa_configuration",
    "phase_rejoin",
)


def check_faults(payload):
    by = {(r["approach"], r["loss_rate"]): r for r in payload["loss_rows"]}
    # zero-fault row is approach-neutral; under loss the tunnel's BU
    # retransmission beats the MLD unsolicited-Report cadence
    assert by[("local", 0.0)]["faults_fired"] == 0, by[("local", 0.0)]
    lossy_local, lossy_bidir = by[("local", 0.02)], by[("bidir", 0.02)]
    assert lossy_bidir["recovery_time"] < lossy_local["recovery_time"]
    assert lossy_bidir["delivery_ratio"] > lossy_local["delivery_ratio"]


def check_spans(payload):
    # for every §4.3 approach the four pipeline phases sum exactly to
    # the join delay
    for row in payload["rows"]:
        assert row["equivalent"], row
        assert row["delivered_in"] == "rejoin", row
        assert abs(sum(row[k] for k in PHASES) - row["join_delay"]) < 1e-9, row
        assert abs(row["join_delay"] - 1.6) < 0.05, row


def check_scale(payload):
    assert payload["report"]["gain_trend_increasing"] is True


def check_fluid(payload):
    report = payload["report"]
    (pair,) = report["pairs"]
    assert pair["mcast_bytes_rel_error"] <= 0.01, pair
    assert report["million_cell"]["traffic"]["delivered_bytes"] > 0, report


def check_chaos(payload):
    report = payload["report"]
    archetypes = {r["archetype"] for r in report["rows"]}
    assert archetypes == {
        "flaps", "partition", "bursts", "ha-storm", "mobility-storm"
    }, archetypes
    stuck = [
        (r["archetype"], r["seed"], r["divergence_rules"])
        for r in report["rows"]
        if not r["converged"] or r["divergences"]
    ]
    assert not stuck, stuck
    assert report["convergence_rate"] == 1.0, report


#: command -> (argv, cells, SHA-256 of the cold payload, extra check of it)
CASES = {
    "sweep compare": (
        ["sweep", "compare"],
        11,
        "f2558fbd00644687ade51f00f01e8ffbb463d10422d36e933fc0ffd87154395f",
        None,
    ),
    "sweep timers": (
        ["sweep", "timers", "--intervals", "10", "25", "--repeats", "2"],
        4,
        "b92b09d927fe33f5f4bdef0d8b45de49920da3ae8e60114d2055a3aea2d16e66",
        None,
    ),
    "sweep scaling": (
        ["sweep", "scaling"],
        10,
        "cabec760875c881a05da66b1e21d6c8c1f250439aa804478132c923ae9c33a80",
        None,
    ),
    # small EXP-S1 grid with the invariant oracles armed
    "sweep scale": (
        ["sweep", "scale", "--sizes", "2x3", "2x5", "--receivers", "20",
         "--groups", "1", "2", "--duration", "10", "--check-invariants"],
        4,
        "02f6dce5855f9f0e4c330bf5c3621271873c5e08c6730d395dd455370884d634",
        check_scale,
    ),
    # EXP-S2: one packet/fluid pair plus the weighted million cell
    "sweep fluid": (
        ["sweep", "fluid", "--sizes", "2x5", "--receivers", "50",
         "--duration", "30"],
        3,
        "a1c32130b24652aa1bf2de27bda08d3e42eae0f325508d30ef8a8eb1dec079fc",
        check_fluid,
    ),
    # EXP-R3: 5 archetypes x 2 topologies x 2 intensities, oracles armed
    "sweep chaos": (
        ["sweep", "chaos", "--check-invariants"],
        20,
        "b639a96b1bba4cc61117643ecdd971a38304c5f4c00e9233132476572e7615f9",
        check_chaos,
    ),
    "faults": (
        ["faults", "--scenario", "loss", "--loss", "0.0", "0.02",
         "--approaches", "local", "bidir"],
        4,
        "24eacdf0d7033d36d4dde606b6aba158588b3b4ee0ffa7728263d3da463340d2",
        check_faults,
    ),
    "spans": (
        ["spans", "--approaches", "local", "bidir", "ut-mh-ha", "ut-ha-mh"],
        4,
        "e6abd5fb8a0900eb0340f3018319c380edac4da8446ffabdf81b18301fd3f19f",
        check_spans,
    ),
}


def payload_digest(payload: dict) -> str:
    """SHA-256 of a payload without its run-specific ``campaign`` and
    ``cache_dir`` fields."""
    rest = {k: v for k, v in payload.items() if k not in ("campaign", "cache_dir")}
    return hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()


def run_cli(argv, cache_dir: Path, cwd: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(INVARIANTS_ENV, None)
    env.pop(SPANS_ENV, None)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv,
         "--jobs", "2", "--cache-dir", str(cache_dir), "--json"],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_every_campaign_command_is_covered():
    """A grid or command that runs through the campaign runner needs a
    row above."""
    parser = build_parser()
    takes_cache = {c for c in COMMANDS if "cache_dir" in parser.parse_args([c])}
    expected = (takes_cache - {"sweep"}) | {f"sweep {grid}" for grid in GRIDS}
    assert set(CASES) == expected


@pytest.mark.parametrize("command", sorted(CASES))
def test_warm_run_replays_every_cell_from_cache(command, tmp_path):
    argv, cells, digest, check = CASES[command]
    cold = run_cli(argv, tmp_path / "cache", tmp_path)
    warm = run_cli(argv, tmp_path / "cache", tmp_path)
    assert cold["experiment"] == argv[0]
    assert cold["campaign"]["cells"] == cells, cold["campaign"]
    assert cold["campaign"]["executed"] == cells, cold["campaign"]
    assert warm["campaign"]["executed"] == 0, warm["campaign"]
    assert warm["campaign"]["cached"] == cells, warm["campaign"]
    # the output itself is pinned: a change that moves it re-pins here
    assert payload_digest(cold) == digest
    cold.pop("campaign")
    warm.pop("campaign")
    assert cold == warm
    if check is not None:
        check(cold)
