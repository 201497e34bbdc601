"""Supervision: retry, timeout, worker-death recovery, checkpoint/resume.

The campaign engine must degrade gracefully — one bad cell, one hung
cell, or one dead worker must never take down the campaign — and an
interrupted campaign resumed from its checkpoint journal must produce
the same result table as an uninterrupted one, byte-identically, for
``jobs=1`` and ``jobs=N`` alike.
"""

import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignError,
    CampaignRunner,
    CheckpointJournal,
)
from repro.campaign import runner as runner_module
from repro.obs import MetricsRegistry


def echo_cells(n):
    return [CampaignCell("selftest.echo", {"seed": s}) for s in range(n)]


def payload(result):
    return json.dumps(result.results(), sort_keys=True)


FAST = dict(backoff_base=0.01, backoff_cap=0.05)


# ----------------------------------------------------------------------
# failure isolation + quarantine
# ----------------------------------------------------------------------

class TestFailureIsolation:
    def test_raising_cell_records_failed_outcome(self):
        runner = CampaignRunner(retries=0, **FAST)
        result = runner.run(
            [
                CampaignCell("selftest.fail", {"seed": 1, "message": "seeded"}),
                CampaignCell("selftest.echo", {"seed": 2}),
            ]
        )
        bad, good = result.outcomes
        assert not bad.ok and bad.result is None and bad.status == "failed"
        assert "RuntimeError: seeded" in bad.error
        assert good.ok and good.result["seed"] == 2
        assert result.failed == 1 and result.executed == 1

    def test_pool_survives_raising_cell(self):
        runner = CampaignRunner(jobs=2, retries=0, **FAST)
        result = runner.run(
            [CampaignCell("selftest.fail", {"seed": 1})] + echo_cells(3)
        )
        assert result.failed == 1
        assert [o.ok for o in result.outcomes] == [False, True, True, True]

    def test_quarantine_after_exhausted_attempts(self):
        registry = MetricsRegistry()
        runner = CampaignRunner(retries=2, registry=registry, **FAST)
        result = runner.run([CampaignCell("selftest.fail", {"seed": 1})])
        assert result.outcomes[0].attempts == 3
        assert result.retries == 2
        text = registry.render_prometheus()
        assert "repro_campaign_quarantined_total" in text
        assert "repro_campaign_retries_total" in text

    def test_require_success_raises_manifest(self):
        runner = CampaignRunner(retries=0, **FAST)
        result = runner.run([CampaignCell("selftest.fail", {"seed": 1})])
        with pytest.raises(CampaignError) as excinfo:
            result.require_success()
        assert "selftest.fail" in str(excinfo.value)
        manifest = result.errors()
        assert manifest[0]["task"] == "selftest.fail"
        assert manifest[0]["attempts"] == 1
        assert "RuntimeError" in manifest[0]["error"]

    def test_failed_cells_never_poison_the_cache(self, tmp_path):
        cell = CampaignCell("selftest.fail", {"seed": 1})
        runner = CampaignRunner(retries=0, cache_dir=tmp_path, **FAST)
        runner.run([cell])
        rerun = CampaignRunner(retries=0, cache_dir=tmp_path, **FAST).run([cell])
        assert rerun.cached == 0  # re-executed, not served from cache


# ----------------------------------------------------------------------
# retry + deterministic backoff
# ----------------------------------------------------------------------

class TestRetry:
    def test_flaky_cell_heals_inline(self, tmp_path):
        runner = CampaignRunner(retries=2, **FAST)
        result = runner.run(
            [
                CampaignCell(
                    "selftest.flaky",
                    {"seed": 0, "state_dir": str(tmp_path), "fail_times": 2},
                )
            ]
        )
        assert result.failed == 0
        assert result.outcomes[0].attempts == 3
        assert result.outcomes[0].result["ok"] is True

    def test_flaky_cell_heals_in_pool(self, tmp_path):
        runner = CampaignRunner(jobs=2, retries=1, **FAST)
        result = runner.run(
            [
                CampaignCell(
                    "selftest.flaky",
                    {"seed": 0, "state_dir": str(tmp_path), "fail_times": 1},
                )
            ]
            + echo_cells(2)
        )
        assert result.failed == 0

    def test_backoff_is_deterministic_and_capped(self):
        a = CampaignRunner(master_seed=7, backoff_base=0.5, backoff_cap=2.0)
        b = CampaignRunner(master_seed=7, backoff_base=0.5, backoff_cap=2.0)
        delays = [a.backoff("cell-key", n) for n in range(1, 8)]
        assert delays == [b.backoff("cell-key", n) for n in range(1, 8)]
        assert all(d <= 2.0 for d in delays)
        assert all(d > 0.0 for d in delays)
        # a different master seed jitters differently
        c = CampaignRunner(master_seed=8, backoff_base=0.5, backoff_cap=2.0)
        assert delays != [c.backoff("cell-key", n) for n in range(1, 8)]


# ----------------------------------------------------------------------
# hung cells + dead workers
# ----------------------------------------------------------------------

class TestSupervision:
    def test_watchdog_kills_hung_cell(self):
        runner = CampaignRunner(
            jobs=2, retries=0, timeout=1.0, poll=0.1, **FAST
        )
        result = runner.run(
            [CampaignCell("selftest.sleep", {"seed": 0, "duration": 120.0})]
            + echo_cells(2)
        )
        hung = result.outcomes[0]
        assert not hung.ok and "timeout" in hung.error
        assert [o.ok for o in result.outcomes[1:]] == [True, True]
        assert result.pool_restarts >= 1

    def test_sigkilled_worker_recovers_and_matches_clean_run(self, tmp_path):
        clean = CampaignRunner(jobs=2, **FAST).run(echo_cells(4))
        chaotic = CampaignRunner(jobs=2, retries=2, **FAST).run(
            [
                CampaignCell(
                    "selftest.kill", {"seed": 0, "state_dir": str(tmp_path)}
                )
            ]
            + echo_cells(4)
        )
        assert chaotic.failed == 0
        assert chaotic.pool_restarts >= 1
        assert chaotic.outcomes[0].result["survived"] is True
        # the echo cells are byte-identical to the undisturbed campaign
        assert json.dumps(
            [o.result for o in chaotic.outcomes[1:]], sort_keys=True
        ) == payload(clean)

    # the first submit has no cell in flight, the second has one
    @pytest.mark.parametrize("broken_submit", [1, 2])
    def test_pool_broken_at_submit_keeps_the_cell(self, monkeypatch, broken_submit):
        """A worker can die between the runner's wait and its next
        submit; that submit raises instead of returning a future."""

        class BreaksOnce(ProcessPoolExecutor):
            submits = 0

            def submit(self, *args, **kwargs):
                type(self).submits += 1
                if type(self).submits == broken_submit:
                    raise BrokenProcessPool("worker died after the last wait")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", BreaksOnce)
        result = CampaignRunner(jobs=2, **FAST).run(echo_cells(4))
        clean = CampaignRunner(jobs=2, **FAST).run(echo_cells(4))
        assert result.failed == 0
        assert payload(result) == payload(clean)


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------

class TestCheckpointResume:
    def test_resume_replays_completed_cells(self, tmp_path):
        cells = echo_cells(6)
        journal = tmp_path / "campaign.jsonl"
        baseline = payload(CampaignRunner(**FAST).run(cells))

        CampaignRunner(checkpoint=journal, **FAST).run(cells[:3])
        resumed = CampaignRunner(checkpoint=journal, resume=True, **FAST).run(
            cells
        )
        assert resumed.cached == 3 and resumed.executed == 3
        assert payload(resumed) == baseline

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_resume_is_byte_identical_across_jobs(self, tmp_path, jobs):
        cells = echo_cells(8)
        baseline = payload(CampaignRunner(**FAST).run(cells))
        journal = tmp_path / f"j{jobs}.jsonl"
        CampaignRunner(jobs=jobs, checkpoint=journal, **FAST).run(cells[:5])
        resumed = CampaignRunner(
            jobs=jobs, checkpoint=journal, resume=True, **FAST
        ).run(cells)
        assert payload(resumed) == baseline

    def test_resume_retries_previously_failed_cells(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        flaky = CampaignCell(
            "selftest.flaky",
            {"seed": 0, "state_dir": str(tmp_path / "state"), "fail_times": 1},
        )
        first = CampaignRunner(retries=0, checkpoint=journal, **FAST).run([flaky])
        assert first.failed == 1
        resumed = CampaignRunner(
            retries=0, checkpoint=journal, resume=True, **FAST
        ).run([flaky])
        assert resumed.failed == 0  # failure was not replayed as final
        assert resumed.outcomes[0].result["ok"] is True

    def test_journal_rejects_wrong_master_seed(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        CampaignRunner(master_seed=1, checkpoint=journal, **FAST).run(
            echo_cells(1)
        )
        runner = CampaignRunner(
            master_seed=2, checkpoint=journal, resume=True, **FAST
        )
        with pytest.raises(ValueError, match="master"):
            runner.run(echo_cells(1))

    def test_journal_tolerates_torn_tail_write(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        CampaignRunner(checkpoint=journal, **FAST).run(echo_cells(2))
        with open(journal, "a") as fh:
            fh.write('{"type": "cell", "key": "tr')  # died mid-write
        loaded = CheckpointJournal(journal, 0).load()
        assert len(loaded) == 2
        resumed = CampaignRunner(checkpoint=journal, resume=True, **FAST).run(
            echo_cells(2)
        )
        assert resumed.cached == 2 and resumed.executed == 0

    def test_stats_include_supervision_counts(self, tmp_path):
        runner = CampaignRunner(retries=1, **FAST)
        runner.run(
            [
                CampaignCell(
                    "selftest.flaky",
                    {"seed": 0, "state_dir": str(tmp_path), "fail_times": 1},
                ),
                CampaignCell("selftest.fail", {"seed": 9}),
            ]
        )
        stats = runner.stats()
        assert stats["failed"] == 1
        assert stats["retries"] == 2  # one heal + one exhausted
        assert stats["pool_restarts"] == 0
