"""CLI contract tests for ``repro topo`` and ``repro sweep scale``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[2] / "src"


class TestTopoCommand:
    def test_human_readable_describe(self, capsys):
        main(["topo", "--model", "hier", "--depth", "2", "--fanout", "3"])
        out = capsys.readouterr().out
        assert "model: hier" in out
        assert "routers: 12" in out
        assert "connected: yes" in out
        assert "digest: " in out

    def test_json_payload(self, capsys):
        main(["topo", "--model", "hier", "--depth", "2", "--fanout", "3",
              "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "topo"
        assert payload["model"] == "hier"
        assert payload["routers"] == 12
        assert payload["connected"] is True
        assert len(payload["digest"]) == 64

    def test_json_digest_is_seed_deterministic(self, capsys):
        def digest(seed: str) -> str:
            main(["topo", "--model", "waxman", "--nodes", "10",
                  "--seed", seed, "--json"])
            return json.loads(capsys.readouterr().out)["digest"]

        assert digest("3") == digest("3")
        assert digest("3") != digest("4")

    def test_digest_stable_across_processes(self):
        """Two processes with different string-hash seeds describe the
        same 155-router hier 3x5 graph; the seeded Waxman graph is
        connected too."""
        def describe(hash_seed: str, *argv: str) -> dict:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "topo", *argv, "--json"],
                capture_output=True, text=True, env=env, check=True,
            )
            return json.loads(proc.stdout)

        hier = ("--model", "hier", "--depth", "3", "--fanout", "5")
        a, b = describe("1", *hier), describe("2", *hier)
        assert a["digest"] == b["digest"]
        assert a["routers"] == 155 and a["connected"]
        waxman = describe("1", "--model", "waxman", "--nodes", "40", "--seed", "7")
        assert waxman["connected"]

    def test_figure1_model(self, capsys):
        main(["topo", "--model", "figure1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["routers"] == 5
        assert payload["links"] == 6
        assert payload["hosts"] == 4

    def test_invalid_params_exit_cleanly(self):
        with pytest.raises(SystemExit):
            main(["topo", "--model", "fattree", "--k", "3"])  # odd k
        with pytest.raises(SystemExit):
            main(["topo", "--model", "hier", "--depth", "0"])


class TestSweepScale:
    def test_scale_grid_json(self, capsys):
        main([
            "sweep", "scale",
            "--sizes", "1x3", "2x3",
            "--receivers", "10",
            "--groups", "1", "2",
            "--duration", "8",
            "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["grid"] == "scale"
        report = payload["report"]
        assert report["experiment"] == "EXP-S1"
        assert report["cells"] == 4
        assert set(report["curves"]) == {
            "state_vs_nodes",
            "messages_vs_nodes",
            "gain_vs_receivers",
            "gain_vs_groups",
        }
        assert report["gain_trend_increasing"] is True
        assert payload["campaign"]["cells"] == 4

    def test_bad_sizes_token_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "scale", "--sizes", "banana"])
