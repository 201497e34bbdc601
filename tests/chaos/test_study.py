"""EXP-R3 chaos cells and sweeps: convergence + determinism contract."""

import json

import pytest

from repro.campaign import CampaignRunner
from repro.chaos import ARCHETYPES, chaos_cell, run_chaos_sweep

SMALL_HIER = {"model": "hier", "depth": 2, "fanout": 3}


@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_cell_converges_per_archetype(archetype):
    row = chaos_cell(
        topo=SMALL_HIER, archetype=archetype, intensity=0.6,
        receivers=6, seed=2,
    )
    assert row["converged"], row["divergence_rules"]
    assert row["divergences"] == 0
    assert row["convergence_time"] is not None
    assert row["plan_events"] >= 1
    assert row["delivery_ratio"] > 0.5
    assert row["heal_at"] <= 20.0 + 1e-9  # healed inside the window


def test_cell_fluid_engine_converges():
    row = chaos_cell(
        topo=SMALL_HIER, archetype="flaps", intensity=0.6,
        receivers=6, seed=2, traffic_model="fluid",
    )
    assert row["converged"], row["divergence_rules"]
    assert row["traffic_model"] == "fluid"
    assert row["delivery_ratio"] > 0.5
    assert "traffic" in row


def test_cell_rejects_unknown_archetype():
    with pytest.raises(ValueError, match="unknown nemesis archetype"):
        chaos_cell(topo=SMALL_HIER, archetype="locusts")


def _sweep(**runner_kw):
    return run_chaos_sweep(
        topos=[SMALL_HIER],
        archetypes=("flaps", "ha-storm"),
        intensities=(0.5,),
        receivers=6,
        seed=7,
        runner=CampaignRunner(**runner_kw),
    )


def test_sweep_jobs_byte_identical():
    """jobs=1 vs jobs=2 must produce byte-identical reports — the
    campaign determinism contract extends to chaos cells."""
    serial = _sweep(jobs=1)
    sharded = _sweep(jobs=2)
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        sharded, sort_keys=True
    )
    assert serial["convergence_rate"] == 1.0


def test_sweep_cache_cold_warm_identical(tmp_path):
    cold = _sweep(jobs=1, cache_dir=tmp_path)
    warm = _sweep(jobs=1, cache_dir=tmp_path)
    assert json.dumps(cold, sort_keys=True) == json.dumps(
        warm, sort_keys=True
    )


def test_sweep_aggregates():
    report = _sweep(jobs=2)
    assert report["experiment"] == "EXP-R3"
    assert report["cells"] == 2
    assert set(report["by_archetype"]) == {"flaps", "ha-storm"}
    for stats in report["by_archetype"].values():
        assert stats["converged"] == stats["cells"]
        for point in stats["delivery_survival"]:
            assert 0.0 <= point["delivery_ratio"] <= 1.0
