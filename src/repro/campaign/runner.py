"""The campaign engine: shard cells across processes, cache results,
and supervise the workers.

:class:`CampaignRunner` takes a list of
:class:`~repro.campaign.grid.CampaignCell` (usually from a
:class:`~repro.campaign.grid.CampaignGrid`), resolves a deterministic
seed for every cell, answers what it can from the on-disk
:class:`~repro.campaign.cache.ResultCache`, and executes the rest —
in-process for ``jobs=1``, across a supervised
``ProcessPoolExecutor`` otherwise.

Determinism contract (tested in ``tests/campaign/``):

* every cell's seed is either its explicit ``params["seed"]`` or
  :func:`repro.sim.rng.derive_seed` of the campaign master seed and
  the cell's canonical identity — never a function of scheduling,
* results are canonicalized through a JSON round-trip before they are
  aggregated, so an in-process run, a pickled pool run, a cache hit,
  and a checkpoint replay all yield byte-identical payloads,
* outcomes are returned in cell order regardless of completion order,
* retry backoff is jittered from :func:`derive_seed` of the master
  seed, cell key, and attempt number — it shapes wall-clock only,
  never payloads, so ``jobs=1`` and ``jobs=N`` stay byte-identical.

Supervision contract (tested in ``tests/campaign/test_supervisor.py``,
see docs/ROBUSTNESS.md):

* a raising cell records a failed :class:`CellOutcome` carrying the
  worker-side traceback instead of aborting the campaign,
* a cell exceeding ``timeout`` seconds of wall-clock is killed (the
  pool is terminated and restarted; in-flight innocents are resubmitted
  without burning an attempt),
* a worker death (``BrokenProcessPool`` — OOM kill, segfault, SIGKILL)
  restarts the pool and retries the affected cells,
* each cell gets ``1 + retries`` attempts with capped exponential
  backoff between them; a cell that exhausts its attempts is
  quarantined as a failed outcome and the campaign carries on,
* failed outcomes are never written to the result cache,
* with ``checkpoint=`` every executed outcome is appended to a JSONL
  journal; ``resume=True`` replays completed successes from the
  journal so an interrupted campaign continues where it stopped.

Progress is published to a :class:`repro.obs.MetricsRegistry` (cells
executed/cached/failed per task, retries, pool restarts, per-cell
wall-clock histogram) and to an optional
``progress(done, total, outcome)`` callback per finished shard.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..sim.rng import derive_seed
from .cache import ResultCache, cache_key
from .grid import CampaignCell, canonical_params
from .tasks import get_task

__all__ = [
    "CampaignError",
    "CampaignResult",
    "CampaignRunner",
    "CellOutcome",
    "CheckpointJournal",
    "resolve_cell",
    "run_cells",
]


def _canonical_result(result: Any) -> Any:
    """JSON round-trip: the single representation every path returns."""
    return json.loads(json.dumps(result, sort_keys=True))


def _execute_cell(
    task: str, params: Dict[str, Any]
) -> Tuple[Any, float, Optional[str]]:
    """Worker entry point (module-level so it pickles).

    Never raises: a failing task body returns ``(None, elapsed,
    traceback_text)`` so one bad cell cannot abort the campaign (the
    supervisor decides whether to retry or quarantine it).
    """
    started = time.perf_counter()
    try:
        result = get_task(task)(**params)
        return _canonical_result(result), time.perf_counter() - started, None
    except BaseException as exc:  # noqa: BLE001 - must survive anything
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return None, time.perf_counter() - started, traceback.format_exc()


def resolve_cell(cell: CampaignCell, master_seed: int) -> CampaignCell:
    """Pin the cell's seed: explicit wins, otherwise derived.

    The derived seed hashes the master seed together with the cell's
    task and canonical parameters, so it is stable across runs, key
    order, and shard placement.
    """
    if cell.params.get("seed") is not None:
        return cell
    rest = {k: v for k, v in cell.params.items() if k != "seed"}
    seed = derive_seed(master_seed, f"{cell.task}:{canonical_params(rest)}")
    return cell.with_params(seed=seed)


@dataclass(frozen=True)
class CellOutcome:
    """One finished cell: where its result came from and what it cost."""

    cell: CampaignCell
    key: str
    result: Any
    cached: bool
    elapsed: float
    #: worker-side traceback text when the cell failed permanently
    error: Optional[str] = None
    #: how many times the cell was attempted (1 = first try succeeded)
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def status(self) -> str:
        if self.error is not None:
            return "failed"
        return "cached" if self.cached else "executed"


class CampaignError(RuntimeError):
    """A campaign finished with permanently failed cells."""

    def __init__(self, failures: List[CellOutcome]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} campaign cell(s) failed:"]
        for o in self.failures[:5]:
            last = (o.error or "").strip().splitlines()
            lines.append(
                f"  {o.cell.task} {canonical_params(o.cell.params)} "
                f"(attempts={o.attempts}): {last[-1] if last else '?'}"
            )
        if len(self.failures) > 5:
            lines.append(f"  ... and {len(self.failures) - 5} more")
        super().__init__("\n".join(lines))


@dataclass
class CampaignResult:
    """All outcomes of one :meth:`CampaignRunner.run`, in cell order."""

    outcomes: List[CellOutcome] = field(default_factory=list)
    wall_clock: float = 0.0
    jobs: int = 1
    #: pool restarts forced by timeouts or worker deaths during the run
    pool_restarts: int = 0

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if not o.cached and o.ok)

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def retries(self) -> int:
        return sum(o.attempts - 1 for o in self.outcomes)

    def results(self) -> List[Any]:
        return [o.result for o in self.outcomes]

    def failures(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def errors(self) -> List[Dict[str, Any]]:
        """The error manifest: one JSON-able record per failed cell."""
        return [
            {
                "task": o.cell.task,
                "params": dict(o.cell.params),
                "key": o.key,
                "attempts": o.attempts,
                "error": o.error,
            }
            for o in self.failures()
        ]

    def require_success(self) -> "CampaignResult":
        """Raise :class:`CampaignError` if any cell failed permanently."""
        failures = self.failures()
        if failures:
            raise CampaignError(failures)
        return self

    def summary(self) -> Dict[str, Any]:
        return {
            "cells": len(self.outcomes),
            "executed": self.executed,
            "cached": self.cached,
            "failed": self.failed,
            "retries": self.retries,
            "jobs": self.jobs,
            "wall_clock": self.wall_clock,
        }


class CheckpointJournal:
    """Append-only JSONL journal of executed cell outcomes.

    Line 1 is a header binding the journal to the campaign master seed
    (resuming under a different seed would silently mix incompatible
    results, so it is an error).  Every other line is one executed
    cell, keyed by its cache key.  A torn final line — the process died
    mid-write — is tolerated and ignored on load.
    """

    VERSION = 1

    def __init__(self, path: os.PathLike, master_seed: int) -> None:
        self.path = str(path)
        self.master_seed = master_seed
        self._fh = None

    # -- writing -------------------------------------------------------
    def _open(self):
        if self._fh is None:
            fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
            self._fh = open(self.path, "a", encoding="utf-8")
            if fresh:
                self._write(
                    {
                        "type": "header",
                        "version": self.VERSION,
                        "master_seed": self.master_seed,
                    }
                )
        return self._fh

    def _write(self, record: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def append(self, outcome: CellOutcome) -> None:
        self._open()
        self._write(
            {
                "type": "cell",
                "key": outcome.key,
                "task": outcome.cell.task,
                "params": dict(outcome.cell.params),
                "result": outcome.result,
                "elapsed": outcome.elapsed,
                "attempts": outcome.attempts,
                "error": outcome.error,
            }
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- loading -------------------------------------------------------
    def load(self) -> Dict[str, Dict[str, Any]]:
        """Completed-cell records by cache key; ``{}`` if no journal yet."""
        if not os.path.exists(self.path):
            return {}
        records: Dict[str, Dict[str, Any]] = {}
        with open(self.path, "r", encoding="utf-8") as fh:
            for n, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break  # torn tail write: everything before it is good
                if n == 0:
                    if (
                        record.get("type") != "header"
                        or record.get("version") != self.VERSION
                    ):
                        raise ValueError(
                            f"{self.path}: not a campaign checkpoint journal"
                        )
                    if record.get("master_seed") != self.master_seed:
                        raise ValueError(
                            f"{self.path}: journal was written with master "
                            f"seed {record.get('master_seed')}, cannot resume "
                            f"with {self.master_seed}"
                        )
                    continue
                if record.get("type") == "cell" and record.get("key"):
                    records[record["key"]] = record
        return records


class _Attempt:
    """Supervisor bookkeeping for one in-flight cell attempt."""

    __slots__ = ("index", "attempt", "started")

    def __init__(self, index: int, attempt: int) -> None:
        self.index = index
        self.attempt = attempt
        self.started: Optional[float] = None  # first observed running()


class CampaignRunner:
    """Execute campaign cells with sharding, seeding, caching, and
    supervision (retry, timeout, checkpoint/resume)."""

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[os.PathLike] = None,
        master_seed: int = 0,
        registry: Optional[Any] = None,
        progress: Optional[Callable[[int, int, CellOutcome], None]] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        poll: float = 0.2,
        checkpoint: Optional[os.PathLike] = None,
        resume: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.master_seed = master_seed
        self.registry = registry
        self.progress = progress
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.poll = poll
        self.checkpoint = (
            CheckpointJournal(checkpoint, master_seed)
            if checkpoint is not None
            else None
        )
        self.resume = resume
        #: Every completed campaign, newest last (CLI reporting reads this).
        self.history: List[CampaignResult] = []

    # ------------------------------------------------------------------
    # deterministic backoff
    # ------------------------------------------------------------------
    def backoff(self, key: str, attempt: int) -> float:
        """Capped exponential backoff with deterministic jitter.

        The jitter stream is derived from the master seed, the cell's
        cache key, and the attempt number — independent of scheduling,
        so reruns pause identically.  Affects wall-clock only.
        """
        base = min(self.backoff_cap, self.backoff_base * (2.0 ** (attempt - 1)))
        jitter = derive_seed(self.master_seed, f"backoff:{key}:{attempt}")
        return base * (0.5 + 0.5 * ((jitter % 1024) / 1024.0))

    # ------------------------------------------------------------------
    # metrics plumbing
    # ------------------------------------------------------------------
    def _record(self, outcome: CellOutcome) -> None:
        if self.registry is None:
            return
        self.registry.counter(
            "repro_campaign_cells_total",
            help="Campaign cells finished, by task and result source.",
            label_names=("task", "status"),
        ).labels(task=outcome.cell.task, status=outcome.status).inc()
        if outcome.attempts > 1:
            self.registry.counter(
                "repro_campaign_retries_total",
                help="Cell attempts beyond the first, by task.",
                label_names=("task",),
            ).labels(task=outcome.cell.task).inc(outcome.attempts - 1)
        if outcome.error is not None:
            self.registry.counter(
                "repro_campaign_quarantined_total",
                help="Cells that exhausted their attempts and were "
                "quarantined as failures.",
                label_names=("task",),
            ).labels(task=outcome.cell.task).inc()
        elif not outcome.cached:
            self.registry.histogram(
                "repro_campaign_cell_seconds",
                help="Wall-clock seconds per executed campaign cell.",
                label_names=("task",),
            ).labels(task=outcome.cell.task).observe(outcome.elapsed)

    def _record_restart(self, reason: str) -> None:
        if self.registry is None:
            return
        self.registry.counter(
            "repro_campaign_pool_restarts_total",
            help="Worker-pool restarts forced by timeouts or worker deaths.",
            label_names=("reason",),
        ).labels(reason=reason).inc()

    def _finish(self, result: CampaignResult) -> CampaignResult:
        if self.registry is not None:
            self.registry.gauge(
                "repro_campaign_wall_seconds",
                help="Wall-clock seconds of the last campaign run.",
            ).set(result.wall_clock)
        if self.checkpoint is not None:
            self.checkpoint.close()
        self.history.append(result)
        return result

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, cells: Iterable[CampaignCell]) -> CampaignResult:
        started = time.perf_counter()
        resolved = [resolve_cell(cell, self.master_seed) for cell in cells]
        keys = [cache_key(cell.task, cell.params) for cell in resolved]
        total = len(resolved)
        outcomes: List[Optional[CellOutcome]] = [None] * total
        done = 0
        restarts = 0

        journal = {}
        if self.checkpoint is not None and self.resume:
            journal = self.checkpoint.load()

        def complete(index: int, outcome: CellOutcome) -> None:
            nonlocal done
            outcomes[index] = outcome
            done += 1
            if self.checkpoint is not None and not outcome.cached:
                self.checkpoint.append(outcome)
            self._record(outcome)
            if self.progress is not None:
                self.progress(done, total, outcome)

        pending: List[int] = []
        for i, (cell, key) in enumerate(zip(resolved, keys)):
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                complete(
                    i,
                    CellOutcome(
                        cell=cell,
                        key=key,
                        result=hit["result"],
                        cached=True,
                        elapsed=hit.get("elapsed", 0.0),
                    ),
                )
                continue
            replay = journal.get(key)
            if replay is not None and replay.get("error") is None:
                # Completed before the interruption: replay, don't re-run.
                complete(
                    i,
                    CellOutcome(
                        cell=cell,
                        key=key,
                        result=replay["result"],
                        cached=True,
                        elapsed=replay.get("elapsed", 0.0),
                        attempts=replay.get("attempts", 1),
                    ),
                )
                continue
            pending.append(i)

        if pending and self.jobs == 1:
            for i in pending:
                complete(i, self._run_inline(resolved[i], keys[i]))
        elif pending:
            restarts = self._run_pool(resolved, keys, pending, complete)

        final = [o for o in outcomes if o is not None]
        assert len(final) == total
        return self._finish(
            CampaignResult(
                outcomes=final,
                wall_clock=time.perf_counter() - started,
                jobs=self.jobs,
                pool_restarts=restarts,
            )
        )

    # -- jobs=1: supervised inline execution ---------------------------
    def _run_inline(self, cell: CampaignCell, key: str) -> CellOutcome:
        attempts = 1 + self.retries
        for attempt in range(1, attempts + 1):
            result, elapsed, error = _execute_cell(cell.task, dict(cell.params))
            if error is None:
                return self._store(cell, key, result, elapsed, attempts=attempt)
            if attempt < attempts:
                time.sleep(self.backoff(key, attempt))
        return CellOutcome(
            cell=cell, key=key, result=None, cached=False,
            elapsed=elapsed, error=error, attempts=attempts,
        )

    # -- jobs>1: supervised process pool -------------------------------
    def _run_pool(
        self,
        resolved: List[CampaignCell],
        keys: List[str],
        pending: List[int],
        complete: Callable[[int, CellOutcome], None],
    ) -> int:
        workers = min(self.jobs, len(pending))
        max_attempts = 1 + self.retries
        now = time.perf_counter()
        #: (index, attempt, not-before) — cells awaiting (re)submission
        queue: List[Tuple[int, int, float]] = [(i, 1, now) for i in pending]
        active: Dict[Any, _Attempt] = {}
        restarts = 0
        pool = ProcessPoolExecutor(max_workers=workers)

        def fail_or_requeue(state: _Attempt, error: str, burn: bool = True) -> None:
            """One attempt ended badly: retry with backoff or quarantine."""
            index, attempt = state.index, state.attempt
            if not burn:
                queue.append((index, attempt, time.perf_counter()))
                return
            if attempt < max_attempts:
                delay = self.backoff(keys[index], attempt)
                queue.append((index, attempt + 1, time.perf_counter() + delay))
            else:
                complete(
                    index,
                    CellOutcome(
                        cell=resolved[index], key=keys[index], result=None,
                        cached=False, elapsed=0.0, error=error,
                        attempts=max_attempts,
                    ),
                )

        def restart_pool(reason: str) -> None:
            nonlocal pool, restarts
            restarts += 1
            self._record_restart(reason)
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.kill()
                except OSError:
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
            pool = ProcessPoolExecutor(max_workers=workers)

        try:
            while queue or active:
                now = time.perf_counter()
                # submit everything whose backoff delay has elapsed
                ready = [q for q in queue if q[2] <= now]
                if ready and len(active) < workers:
                    for index, attempt, _ in ready[: workers - len(active)]:
                        try:
                            future = pool.submit(
                                _execute_cell, resolved[index].task,
                                dict(resolved[index].params),
                            )
                        except BrokenProcessPool:
                            # a worker died after the last wait: the cell
                            # stays queued, and the wait below collects the
                            # dead worker's future and restarts the pool
                            if not active:
                                restart_pool("worker-death")
                            break
                        queue.remove((index, attempt, _))
                        active[future] = _Attempt(index, attempt)
                if not active:
                    # nothing in flight: sleep until the nearest backoff ends
                    time.sleep(
                        max(0.0, min(q[2] for q in queue) - time.perf_counter())
                    )
                    continue

                finished, _ = wait(
                    set(active), timeout=self.poll, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in finished:
                    state = active.pop(future)
                    try:
                        result, elapsed, error = future.result()
                    except BrokenProcessPool:
                        broken = True
                        fail_or_requeue(
                            state,
                            "worker process died (BrokenProcessPool): killed "
                            "by the OS or crashed mid-cell",
                        )
                        continue
                    if error is None:
                        complete(
                            state.index,
                            self._store(
                                resolved[state.index], keys[state.index],
                                result, elapsed, attempts=state.attempt,
                            ),
                        )
                    else:
                        fail_or_requeue(state, error)
                if broken:
                    # every other in-flight future is doomed with the pool
                    for future, state in list(active.items()):
                        burn = future.done() and future.exception() is not None
                        fail_or_requeue(
                            state,
                            "worker process died (BrokenProcessPool)",
                            burn=burn,
                        )
                    active.clear()
                    restart_pool("worker-death")
                    continue

                # watchdog: hung cells past the wall-clock budget
                if self.timeout is None:
                    continue
                now = time.perf_counter()
                expired = []
                for future, state in active.items():
                    if state.started is None and future.running():
                        state.started = now
                    if (
                        state.started is not None
                        and now - state.started > self.timeout
                    ):
                        expired.append((future, state))
                if expired:
                    # the pool must die to reclaim the stuck workers;
                    # innocents are resubmitted without burning an attempt
                    for future, state in expired:
                        active.pop(future)
                        fail_or_requeue(
                            state,
                            f"cell exceeded timeout={self.timeout}s "
                            f"(attempt {state.attempt})",
                        )
                    for future, state in list(active.items()):
                        fail_or_requeue(state, "", burn=False)
                    active.clear()
                    restart_pool("timeout")
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return restarts

    def _store(
        self,
        cell: CampaignCell,
        key: str,
        result: Any,
        elapsed: float,
        attempts: int = 1,
    ) -> CellOutcome:
        if self.cache is not None:
            self.cache.put(key, cell.task, cell.params, result, elapsed)
        return CellOutcome(
            cell=cell, key=key, result=result, cached=False, elapsed=elapsed,
            attempts=attempts,
        )

    @property
    def last_result(self) -> Optional[CampaignResult]:
        return self.history[-1] if self.history else None

    def stats(self) -> Dict[str, Any]:
        """Aggregate summary across every campaign this runner ran."""
        return {
            "campaigns": len(self.history),
            "cells": sum(len(r) for r in self.history),
            "executed": sum(r.executed for r in self.history),
            "cached": sum(r.cached for r in self.history),
            "failed": sum(r.failed for r in self.history),
            "retries": sum(r.retries for r in self.history),
            "pool_restarts": sum(r.pool_restarts for r in self.history),
            "jobs": self.jobs,
            "wall_clock": sum(r.wall_clock for r in self.history),
        }


def run_cells(
    cells: Iterable[CampaignCell], runner: Optional[CampaignRunner] = None
) -> List[Any]:
    """A study's cell results, in cell order.

    ``runner`` defaults to a plain in-process :class:`CampaignRunner`;
    pass ``CampaignRunner(jobs=…, cache_dir=…)`` to shard and cache.
    Raises :class:`CampaignError` if any cell failed for good.
    """
    if runner is None:
        runner = CampaignRunner()
    return runner.run(cells).require_success().results()
