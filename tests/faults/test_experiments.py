"""End-to-end resilience experiments: qualitative results + determinism.

The acceptance bar for the subsystem: under wireless loss the tunnel
approaches and the local-membership approaches must be *measurably*
different (recovery time and delivery ratio), the zero-fault row must
be approach-independent on the handoff pipeline, and the campaign
sharding (jobs=1 vs jobs=N) must produce byte-identical rows.
"""

import json

import pytest

from repro.analysis.phases import run_span_breakdown
from repro.campaign import CampaignResult, CampaignRunner, CellOutcome
from repro.core.strategies import (
    BIDIRECTIONAL_TUNNEL,
    LOCAL_MEMBERSHIP,
)
from repro.faults.experiments import (
    ha_crash_run,
    loss_receiver_run,
    render_crash_table,
    render_fault_table,
    run_crash_study,
    run_fault_sweep,
)

FAST = dict(run_until=70.0, packet_interval=0.2)


class TestLossReceiverRun:
    @pytest.fixture(scope="class")
    def rows(self):
        return {
            (ap.key, rate): loss_receiver_run(ap, loss_rate=rate, **FAST)
            for ap in (LOCAL_MEMBERSHIP, BIDIRECTIONAL_TUNNEL)
            for rate in (0.0, 0.02)
        }

    def test_zero_loss_is_approach_neutral(self, rows):
        local, bidir = rows[("local", 0.0)], rows[("bidir", 0.0)]
        # no faults fire; both recover on the bare handoff pipeline
        assert local["faults_fired"] == bidir["faults_fired"] == 0
        assert local["frames_lost"] == bidir["frames_lost"] == 0
        assert local["recovery_time"] == pytest.approx(
            bidir["recovery_time"], abs=0.05
        )

    def test_loss_separates_tunnel_from_local(self, rows):
        """The qualitative claim: under >=1% loss the BU retransmission
        machinery (1 s) beats the MLD unsolicited-Report cadence (10 s)."""
        local, bidir = rows[("local", 0.02)], rows[("bidir", 0.02)]
        assert bidir["recovery_time"] < local["recovery_time"] - 1.0
        assert bidir["delivery_ratio"] > local["delivery_ratio"] + 0.02
        assert local["longest_outage"] > bidir["longest_outage"]

    def test_loss_row_shape(self, rows):
        row = rows[("local", 0.02)]
        assert row["scenario"] == "loss" and row["model"] == "gilbert"
        assert row["frames_lost"] >= 0
        assert row["link_loss_drops"] == row["frames_lost"]
        assert row["expected"] == row["delivered"] + row["lost"]
        json.dumps(row)  # cache/JSON contract

    def test_bernoulli_model_supported(self):
        row = loss_receiver_run(
            LOCAL_MEMBERSHIP, loss_rate=0.05, model="bernoulli", **FAST
        )
        assert row["model"] == "bernoulli" and row["frames_lost"] > 0

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown loss model"):
            loss_receiver_run(LOCAL_MEMBERSHIP, loss_rate=0.1, model="laplace")


class TestHaCrashRun:
    @pytest.fixture(scope="class")
    def rows(self):
        return {
            ap.key: ha_crash_run(ap, packet_interval=0.2)
            for ap in (LOCAL_MEMBERSHIP, BIDIRECTIONAL_TUNNEL)
        }

    def test_local_rides_through(self, rows):
        # Router D (the HA) is not on the native path to L6
        assert rows["local"]["recovery_time"] < 0.5
        assert rows["local"]["delivery_ratio"] > 0.95

    def test_tunnel_stalls_for_crash_plus_refresh(self, rows):
        bidir = rows["bidir"]
        assert bidir["recovery_time"] > rows["local"]["recovery_time"] + 5.0
        assert bidir["delivery_ratio"] < rows["local"]["delivery_ratio"] - 0.2
        assert bidir["longest_outage"] >= bidir["crash_duration"]

    def test_binding_restored_after_restart(self, rows):
        assert rows["bidir"]["binding_restored"] is True

    def test_crash_drops_accounted(self, rows):
        assert rows["bidir"]["crash_drops"] > 0
        json.dumps(rows["bidir"])


class RecordingRunner:
    """Keeps the cells a study submits and answers each with ``{}``."""

    def run(self, cells):
        self.cells = list(cells)
        return CampaignResult(
            outcomes=[
                CellOutcome(cell=c, key="", result={}, cached=False, elapsed=0.0)
                for c in self.cells
            ]
        )


class TestCampaignIntegration:
    def test_cells_are_jsonable_and_ordered(self):
        runner = RecordingRunner()
        run_fault_sweep([0.0, 0.05], seed=3, runner=runner)
        cells = runner.cells
        assert len(cells) == 8  # 2 rates x 4 approaches
        assert cells[0].task == "faults.receiver"
        assert cells[0].params["loss_rate"] == 0.0
        assert all(c.params["seed"] == 3 for c in cells)
        json.dumps([c.params for c in cells])
        run_crash_study(seed=3, runner=runner)
        assert runner.cells[0].task == "faults.ha_crash"

    def test_span_breakdown_runs_the_loss_grid(self):
        """The span breakdown's cells are the loss sweep's, task aside."""
        losses, spans = RecordingRunner(), RecordingRunner()
        run_fault_sweep([0.0, 0.05], seed=3, runner=losses)
        run_span_breakdown(loss_rates=(0.0, 0.05), seed=3, runner=spans)
        assert [c.params for c in spans.cells] == [c.params for c in losses.cells]
        assert {c.task for c in spans.cells} == {"spans.receiver"}

    def test_jobs_parallelism_is_byte_identical(self, tmp_path):
        approaches = (LOCAL_MEMBERSHIP, BIDIRECTIONAL_TUNNEL)
        kw = dict(loss_rates=(0.0, 0.05), approaches=approaches, seed=1, **FAST)
        serial = run_fault_sweep(
            runner=CampaignRunner(jobs=1, master_seed=1), **kw
        )
        parallel = run_fault_sweep(
            runner=CampaignRunner(
                jobs=2, master_seed=1, cache_dir=tmp_path / "cache"
            ),
            **kw,
        )
        canon = lambda rows: json.dumps(rows, sort_keys=True)
        assert canon(serial) == canon(parallel)

    def test_render_tables(self):
        loss_row = loss_receiver_run(LOCAL_MEMBERSHIP, loss_rate=0.0, **FAST)
        text = render_fault_table([loss_row])
        assert "Resilience under wireless loss" in text and "local" in text
        crash_row = ha_crash_run(LOCAL_MEMBERSHIP, packet_interval=0.2)
        assert "Home-agent crash" in render_crash_table([crash_row])
