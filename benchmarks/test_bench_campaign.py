"""EXP-C/O harness benchmark — the parallel campaign engine itself.

Runs the same 8-cell §4.4 timer grid (4 query intervals × 2 seeds)
three ways and records the wall-clocks under
``benchmarks/results/campaign_engine.txt``:

* **cold serial** — ``jobs=1`` into an empty cache,
* **cold sharded** — ``jobs=4`` into an empty cache (on multi-core
  hosts this is where the parallel speedup shows; on a single-core
  runner it only pays process overhead),
* **warm cache** — ``jobs=1`` over the serial run's cache: zero cells
  execute, so the re-run cost is pure cache I/O.

Asserts the determinism contract (all three runs produce identical
tables) and the caching contract (warm run executes nothing and is
>= 2x faster than the cold run it replays).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.campaign import CampaignGrid, CampaignRunner

from bench_utils import save_report

INTERVALS = (10.0, 25.0, 60.0, 125.0)
SEEDS = (0, 1)

GRID = CampaignGrid(
    "timers.point",
    axes={"query_interval": list(INTERVALS), "seed": list(SEEDS)},
)


def payload(campaign) -> bytes:
    return json.dumps(campaign.results(), sort_keys=True).encode()


def test_bench_campaign_engine(benchmark):
    assert len(GRID) == 8
    with tempfile.TemporaryDirectory() as tmp:
        serial_cache = Path(tmp) / "serial"
        sharded_cache = Path(tmp) / "sharded"

        cold_serial = CampaignRunner(jobs=1, cache_dir=serial_cache).run(GRID)
        cold_sharded = CampaignRunner(jobs=4, cache_dir=sharded_cache).run(GRID)
        warm = benchmark.pedantic(
            lambda: CampaignRunner(jobs=1, cache_dir=serial_cache).run(GRID),
            rounds=1,
            iterations=1,
        )

    # Determinism: sharding and caching are invisible in the tables.
    assert payload(cold_serial) == payload(cold_sharded) == payload(warm)

    # Caching: the warm run executes nothing and replays the campaign
    # at least 2x faster than the cold run that populated it.
    assert cold_serial.executed == 8 and cold_sharded.executed == 8
    assert warm.executed == 0 and warm.cached == 8
    speedup_warm = cold_serial.wall_clock / max(warm.wall_clock, 1e-9)
    assert speedup_warm >= 2.0, speedup_warm
    speedup_sharded = cold_serial.wall_clock / max(cold_sharded.wall_clock, 1e-9)

    lines = [
        f"campaign engine — {len(GRID)}-cell timer grid "
        f"(T_Query in {INTERVALS}, seeds {SEEDS})",
        "",
        f"{'run':<14} {'jobs':>4} {'executed':>8} {'cached':>6} {'wall':>9}",
        f"{'cold serial':<14} {1:>4} {cold_serial.executed:>8} "
        f"{cold_serial.cached:>6} {cold_serial.wall_clock:>8.2f}s",
        f"{'cold sharded':<14} {4:>4} {cold_sharded.executed:>8} "
        f"{cold_sharded.cached:>6} {cold_sharded.wall_clock:>8.2f}s",
        f"{'warm cache':<14} {1:>4} {warm.executed:>8} "
        f"{warm.cached:>6} {warm.wall_clock:>8.2f}s",
        "",
        f"speedup (cold serial / cold sharded): {speedup_sharded:.1f}x",
        f"speedup (cold serial / warm cache):   {speedup_warm:.1f}x",
        "all three runs produced byte-identical tables",
    ]
    save_report("campaign_engine", "\n".join(lines))
