"""Tests for the EXP-S1 scaling study (repro.core.scalestudy).

The campaign contracts worth pinning: a cell is a pure function of its
parameters (so results cache and shard), running the sweep under
``jobs=1`` and ``jobs=N`` yields byte-identical reports, and the
report carries the machine-readable curves with the Helmy-shaped
aggregation-gain trend.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignRunner
from repro.core.fluidstudy import fluid_cell
from repro.core.scalestudy import (
    DEFAULT_SIZES,
    render_scale_report,
    run_scale_sweep,
    scale_cell,
)
from repro.invariants.pimdm import PimDmOracle
from repro.sim import Tracer

TINY = [{"depth": 1, "fanout": 3}, {"depth": 2, "fanout": 3}]


def tiny_sweep(runner=None):
    return run_scale_sweep(
        sizes=TINY,
        receivers=(12,),
        groups=(1, 2),
        mobility=(0.0,),
        seed=0,
        warmup=6.0,
        duration=8.0,
        runner=runner,
    )


class TestScaleCell:
    def test_cell_is_deterministic(self):
        kw = dict(
            model_params={"depth": 1, "fanout": 3},
            receivers=8,
            groups=1,
            warmup=4.0,
            duration=6.0,
        )
        a = scale_cell(**kw)
        b = scale_cell(**kw)
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_cell_reports_the_contract_fields(self):
        row = scale_cell(
            model_params={"depth": 1, "fanout": 2},
            receivers=4,
            warmup=4.0,
            duration=6.0,
        )
        assert row["routers"] == 2
        assert row["events"] > 0
        assert row["graph_digest"]
        snap = row["state"]
        assert snap["total_entries"] == sum(snap["entries"].values())
        assert snap["bytes"]["dict"] >= snap["bytes"]["compact"] > 0
        assert row["aggregation_gain"] >= 1.0
        assert row["control_packets"]["pim"] > 0
        assert row["control_packets"]["mld"] > 0
        # no wall-clock leakage: every value must be JSON-able and
        # reproducible, which the determinism test enforces; spot-check
        # that nothing looks like a timestamp
        assert "wall" not in json.dumps(row)

    def test_mobility_schedules_moves(self):
        row = scale_cell(
            model_params={"depth": 1, "fanout": 3},
            receivers=10,
            mobility=1.0,
            warmup=4.0,
            duration=6.0,
        )
        assert row["moves"] > 0
        assert row["control_packets"]["mipv6"] > 0


_RETAIN = Tracer.retain


def _cell_with_retention(monkeypatch, keep, cell, **kw):
    """Run ``cell``; with ``keep`` its tracer ignores the runner's
    request to keep nothing.  Returns the canonical result and the
    number of stored trace events."""
    tracers = []

    def set_retain(tracer, value):
        tracers.append(tracer)
        if not keep:
            _RETAIN.fset(tracer, value)

    monkeypatch.setattr(Tracer, "retain", property(_RETAIN.fget, set_retain))
    result = cell(**kw)
    (tracer,) = tracers
    return json.dumps(result, sort_keys=True), len(tracer.events)


class TestTraceRetention:
    """The cell runners read nothing back from their trace, so they
    store none of it; listeners still hear their categories."""

    @pytest.mark.parametrize(
        "cell,kw",
        [
            (scale_cell, dict(receivers=10, mobility=1.0)),
            (scale_cell, dict(receivers=10, mobility=1.0, traffic_model="fluid")),
            (fluid_cell, dict(receivers=10, mobility=1.0, probe_interval=2.0)),
        ],
        ids=["scale-packet", "scale-fluid", "fluid-cell"],
    )
    def test_result_is_identical_with_and_without_retention(
        self, monkeypatch, cell, kw
    ):
        kw = dict(
            model_params={"depth": 2, "fanout": 2}, warmup=4.0, duration=6.0, **kw
        )
        kept, stored = _cell_with_retention(monkeypatch, True, cell, **kw)
        dropped, none = _cell_with_retention(monkeypatch, False, cell, **kw)
        assert stored > 0 and none == 0
        assert kept == dropped

    def test_invariant_checked_cell_feeds_the_pimdm_oracles(self, monkeypatch):
        forwards = []
        on_forward = PimDmOracle._on_forward

        def spy(self, event):
            forwards.append(event)
            on_forward(self, event)

        monkeypatch.setattr(PimDmOracle, "_on_forward", spy)
        scale_cell(
            model_params={"depth": 2, "fanout": 2},
            receivers=6,
            warmup=4.0,
            duration=6.0,
            check_invariants=True,
        )
        assert forwards and all(ev.category == "mcast.forward" for ev in forwards)


class TestGridAndSweep:
    def test_grid_covers_the_axes(self):
        runner = CampaignRunner()
        report = run_scale_sweep(
            sizes=TINY, receivers=(5, 10), groups=(1,), warmup=4.0,
            duration=6.0, runner=runner,
        )
        assert report["cells"] == len(TINY) * 2
        assert {(r["routers"], r["receivers"]) for r in report["rows"]} == {
            (3, 5), (3, 10), (12, 5), (12, 10)
        }
        cells = [o.cell for o in runner.last_result.outcomes]
        assert all(c.task == "scale.cell" for c in cells)
        # forwarded cell parameters reach every cell; the report echoes
        # the model the cells ran
        assert all(c.params["duration"] == 6.0 for c in cells)
        assert report["model"] == "hier"

    def test_default_sizes_reach_a_thousand_routers(self):
        top = DEFAULT_SIZES[-1]
        n = sum(top["fanout"] ** d for d in range(1, top["depth"] + 1))
        assert n >= 1000

    def test_report_shape_and_gain_trend(self):
        report = tiny_sweep()
        assert report["cells"] == 4
        assert report["max_routers"] == 12
        curves = report["curves"]
        assert [p["routers"] for p in curves["state_vs_nodes"]] == [3, 12]
        assert [p["groups"] for p in curves["gain_vs_groups"]] == [1, 2]
        gains = [p["aggregation_gain"] for p in curves["gain_vs_groups"]]
        assert gains[1] > gains[0], "more groups must aggregate better"
        assert report["gain_trend_increasing"] is True

    def test_jobs_1_and_jobs_n_reports_identical(self):
        serial = tiny_sweep(CampaignRunner(jobs=1))
        parallel = tiny_sweep(CampaignRunner(jobs=2))
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_sweep_results_cache(self, tmp_path):
        runner = CampaignRunner(jobs=1, cache_dir=str(tmp_path), master_seed=0)
        tiny_sweep(runner=runner)
        stats = runner.stats()
        assert stats["executed"] == 4 and stats["cached"] == 0
        runner2 = CampaignRunner(jobs=1, cache_dir=str(tmp_path), master_seed=0)
        report2 = tiny_sweep(runner=runner2)
        assert runner2.stats()["cached"] == 4
        assert report2["cells"] == 4

    def test_render_report(self):
        report = tiny_sweep()
        text = render_scale_report(report)
        assert "EXP-S1" in text
        assert "matches Helmy" in text
        assert "routers" in text
