"""Benchmark of the simulator: paper figures, 400-router set-up, and
packet-vs-fluid churn, timed end to end and per layer.

The simulator is treated as a closed-loop batch system: each repetition
is one fixed-size job run to completion in a fresh interpreter
(``bench/job.py``), one at a time.  Untraced repetitions give the
end-to-end metrics; one extra traced repetition gives the per-layer
metrics.

Usage::

    python3 bench/run.py [--workload W ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--sets N] [--json OUT]
    python3 bench/run.py --compare A.json B.json

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``; names are prefixed
with ``<workload>.`` when several workloads run).  Exit status: 0 when
every repetition passed its output check, 1 otherwise (or when
``--compare`` finds a regression).  Without the simulator source under
``src/`` the import below fails before anything is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from layers import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, Workload, expected_digest  # noqa: E402

#: End-to-end metrics of the untraced repetitions: name -> unit.
E2E = {"setup_s": "s", "run_s": "s", "cell_s": "s", "peak_rss_mb": "MB"}
#: ``setup_s`` is sub-second on three workloads: below this absolute
#: change (seconds) a comparison never calls it better or worse.
SETUP_ABS_FLOOR = 0.05
#: traced attribution must close within this share of the traced run_s
CLOSURE_TOLERANCE = 0.05
#: a repetition times out after this many recorded medians (at least 60 s)
TIMEOUT_FACTOR, TIMEOUT_MIN = 3.0, 60.0


def env_fingerprint() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
def spawn(
    workload: Workload, seed: int, traced: bool, module: str
) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """Run one job in a fresh interpreter: ``(record, None)`` or
    ``(None, reason it failed)``."""
    recorded = workload.traced_s if traced else workload.median_s
    timeout = max(TIMEOUT_MIN, TIMEOUT_FACTOR * recorded)
    cmd = [
        sys.executable,
        str(BENCH / "job.py"),
        workload.name,
        "--seed", str(seed),
        "--trace", str(int(traced)),
        "--module", module,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"exit {proc.returncode} without a result: {proc.stderr[-400:]}"
    if "error" in record:
        return None, record["error"].strip().splitlines()[-1]
    return record, None


def summary_stats(values: List[float], unit: str) -> Dict[str, Any]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "unit": unit,
        "values": values,
    }


def closure_gap(layers: Dict[str, Any], run_s: float) -> Optional[float]:
    """|layer self times + kernel + residual - run_s| / run_s of a traced
    job (``sim.kernel_self_s`` and ``other.self_s`` end in ``self_s``)."""
    parts = [v for name, v in layers.items() if name.endswith("self_s")]
    if None in parts or run_s <= 0:
        return None
    return abs(sum(parts) - run_s) / run_s


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def measure(
    workload: Workload,
    seed: int,
    seconds: Optional[float] = None,
    reps: Optional[int] = None,
    trace: bool = False,
    module: str = "workloads",
) -> Dict[str, Any]:
    """Repeat ``workload`` for ``seconds`` (stopping before a repetition
    that would overrun), or ``reps`` times, then once traced."""
    failures: List[str] = []
    records: List[Dict[str, Any]] = []
    walls: List[float] = []
    try:
        reference = expected_digest(workload, seed)
    except (OSError, KeyError, ValueError) as exc:
        reference = None
        failures.append(f"no pinned digest: {exc}")
    count = reps if reps is not None else workload.reps
    started = monotonic()

    def check(record: Optional[Dict[str, Any]], error: Optional[str]) -> bool:
        nonlocal reference
        if record is None:
            failures.append(error or "no result")
            return False
        if record["problems"]:
            failures.append("; ".join(record["problems"]))
            return False
        if reference is None:
            reference = record["digest"]
        if record["digest"] != reference:
            failures.append(f"digest {record['digest'][:12]} != {reference[:12]}")
            return False
        return True

    attempted = 0
    while True:
        began = monotonic()
        record, error = spawn(workload, seed, traced=False, module=module)
        walls.append(monotonic() - began)
        attempted += 1
        if check(record, error):
            records.append(record)
        if seconds is None:
            if attempted >= count:
                break
        elif monotonic() - started + statistics.median(walls) > seconds:
            break

    result: Dict[str, Any] = {"seed": seed}
    if records:
        result["e2e"] = {
            name: summary_stats([r["e2e"][name] for r in records], unit)
            for name, unit in E2E.items()
        }
        result["events"] = records[0]["events"]
        result["digest"] = records[0]["digest"]
    if trace:
        record, error = spawn(workload, seed, traced=True, module=module)
        attempted += 1
        if check(record, error) and records:
            layers = dict(record["layers"])
            e2e = result["e2e"]
            if layers.get("sim.events") is not None:
                layers["sim.us_per_event"] = (
                    e2e["run_s"]["median"] / max(layers["sim.events"], 1) * 1e6
                )
            layers["bench.trace_overhead"] = (
                record["e2e"]["cell_s"] / e2e["cell_s"]["median"]
            )
            gap = closure_gap(layers, record["e2e"]["run_s"])
            if gap is not None and gap > CLOSURE_TOLERANCE:
                failures.append(f"traced attribution is off by {gap:.1%} of run_s")
            result["layers"] = layers
            result["traced_e2e"] = record["e2e"]
            result["trace"] = {"closure_gap": gap, **record["trace"]}
    result.update(
        attempted=attempted,
        failed=len(failures),
        failed_frac=len(failures) / attempted,
        failures=failures,
    )
    return result


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def render(name: str, result: Dict[str, Any]) -> str:
    lines = [
        f"{name}  seed {result['seed']}: {result['attempted']} attempted, "
        f"{result['failed']} failed (failed_frac {result['failed_frac']:.3f})"
    ]
    lines += [f"  FAILED: {reason}" for reason in result["failures"]]
    for metric, s in result.get("e2e", {}).items():
        lines.append(
            f"  {metric:<24} {s['median']:>12.4f} {s['unit']:<5} "
            f"[min {s['min']:.4f}  max {s['max']:.4f}  n={s['n']}]"
        )
    if "layers" in result:
        lines.append("  per layer (traced repetition):")
        for metric, (unit, _) in LAYER_METRICS.items():
            value = result["layers"].get(metric)
            shown = "null" if value is None else f"{value:.6g}"
            lines.append(f"    {metric:<26} {shown:>14} {unit}")
    return "\n".join(lines)


def result_line(
    sets: List[Dict[str, Dict[str, Any]]], trace: bool
) -> Dict[str, Any]:
    """The contract's last line: counts over every set, metrics from
    the last one."""
    prefix = len(sets[-1]) > 1
    metrics: Dict[str, Any] = {}
    attempted = failed = 0
    correct = True
    for name, result in (item for run_set in sets for item in run_set.items()):
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0 and "e2e" in result
        if trace:
            source = {
                metric: (result.get("layers", {}).get(metric), unit)
                for metric, (unit, _) in LAYER_METRICS.items()
            }
        else:
            source = {
                metric: (s["median"], s["unit"])
                for metric, s in result.get("e2e", {}).items()
            }
        for metric, (value, unit) in source.items():
            key = f"{name}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def load_bounds() -> Dict[str, Tuple[float, float]]:
    """metric -> (relative bound, absolute floor), from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {
        m["name"]: (m["bound"], SETUP_ABS_FLOOR if m["name"] == "setup_s" else 0.0)
        for m in spec["end_to_end"]
    }
    bounds["failed_frac"] = (0.0, 0.0)
    return bounds


def pooled(report: Dict[str, Any]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> every repetition's value over all sets."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for run_set in report["sets"]:
        for name, result in run_set.items():
            metrics = out.setdefault(name, {})
            for metric, s in result.get("e2e", {}).items():
                metrics.setdefault(metric, []).extend(s["values"])
            metrics.setdefault("failed_frac", []).append(result["failed_frac"])
    return out


def iqr(values: List[float]) -> float:
    """Distance between the quartiles.  The inclusive method keeps one
    outlier among a handful of repetitions from setting the spread."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(a: List[float], b: List[float], bound: float, floor: float) -> str:
    """Lower is better for every end-to-end metric.  The spread of a
    side is the distance between its quartiles."""
    a_med, b_med = statistics.median(a), statistics.median(b)
    allowed = max(bound * a_med, floor)
    spread = max(iqr(a), iqr(b))
    if bound and spread > allowed:
        return "better" if max(b) < min(a) else "unresolved"
    if b_med > a_med + allowed:
        return "worse"
    if b_med < a_med - allowed:
        return "better"
    return "within"


def compare(path_a: str, path_b: str) -> int:
    bounds = load_bounds()
    a = pooled(json.loads(Path(path_a).read_text()))
    b = pooled(json.loads(Path(path_b).read_text()))
    print(f"{'workload':<14} {'metric':<14} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    worse = False
    for name in sorted(a.keys() & b.keys()):
        for metric, (bound, floor) in bounds.items():
            if metric not in a[name] or metric not in b[name]:
                continue
            va, vb = a[name][metric], b[name][metric]
            result = verdict(va, vb, bound, floor)
            worse = worse or result == "worse"
            a_med, b_med = statistics.median(va), statistics.median(vb)
            change = (b_med - a_med) / a_med if a_med else 0.0
            print(f"{name:<14} {metric:<14} {a_med:>12.4f} {b_med:>12.4f} "
                  f"{change:>+8.1%} {bound:>6.0%}  {result}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the simulator end to end and per layer."
    )
    parser.add_argument("--workload", "--workloads", nargs="+", choices=list(WORKLOADS),
                        default=list(WORKLOADS), dest="workloads")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measure each workload for this long (default: fixed reps)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="add one traced repetition per workload")
    parser.add_argument("--sets", type=int, default=1, help="full sets of runs")
    parser.add_argument("--json", metavar="OUT",
                        help="write results to OUT and the trace record to OUT.trace.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    for name, value in (("--seconds", args.seconds), ("--sets", args.sets)):
        if value is not None and value <= 0:
            parser.error(f"{name} must be positive")

    env = env_fingerprint()
    sets: List[Dict[str, Dict[str, Any]]] = []
    for _ in range(args.sets):
        run_set = {}
        for name in args.workloads:
            result = measure(
                WORKLOADS[name], args.seed, seconds=args.seconds, trace=bool(args.trace)
            )
            print(render(name, result), flush=True)
            run_set[name] = result
        sets.append(run_set)

    if args.json:
        traces = [{n: r.pop("trace", None) for n, r in s.items()} for s in sets]
        report = {"env": env, "seed": args.seed, "argv": sys.argv[1:], "sets": sets}
        out = Path(args.json)
        out.write_text(json.dumps(report, indent=1) + "\n")
        trace_path = out.with_name(out.stem + ".trace.json")
        trace_path.write_text(json.dumps({"env": env, "sets": traces}, indent=1) + "\n")
    line = result_line(sets, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
