"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage: ``python bench/job.py WORKLOAD --seed N --trace 0|1
[--module MODULE]``.  Prints one JSON line: the job's digest, the
problems its output check found, the end-to-end timings and, when
traced, the per-layer metrics and the trace record.  Exits 1 when the
workload raised.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from layers import BOOT, RUN, LayerTimer  # noqa: E402
from workloads import canonical_digest  # noqa: E402


def run_job(module: str, name: str, seed: int, traced: bool) -> dict:
    workload = importlib.import_module(module).WORKLOADS[name]
    timer = LayerTimer(traced=traced)
    with timer:
        if {RUN, BOOT} & timer.missing_layers():
            raise RuntimeError(f"cannot time set-up and run: {timer.missing} are gone")
        timer.t0 = start = perf_counter()
        output = workload.run(seed)
        cell_s = perf_counter() - start
    # ru_maxrss is in KiB on Linux; read it before the output check allocates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary, problems = workload.summarise(output, seed)
    record = {
        "digest": canonical_digest(summary),
        "problems": problems,
        "e2e": {**timer.phases(), "cell_s": cell_s, "peak_rss_mb": peak_rss_mb},
        "events": sum(net.sim.events_dispatched for net in timer.nets),
    }
    if traced:
        record["layers"] = timer.layer_metrics()
        record["trace"] = timer.breakdown()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--module", default="workloads")
    args = parser.parse_args(argv)
    try:
        record = run_job(args.module, args.workload, args.seed, bool(args.trace))
    except Exception:  # reported to the parent, which counts the failure
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
