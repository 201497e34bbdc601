"""Tests of the benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest bench -q``.  Jobs spawned by
these tests import this module in a fresh interpreter to find the
injected workloads in :data:`WORKLOADS`.
"""

from __future__ import annotations

import json
import time

import layers
import run
import workloads
from layers import HOT, LAYER_METRICS, PHASE, SETUP, TARGETS, LayerTimer, Target
from workloads import Workload


# ----------------------------------------------------------------------
# injected workloads (looked up by spawned jobs via --module test_harness)
# ----------------------------------------------------------------------
def tiny_cell(seed: int):
    from repro.core.scalestudy import scale_cell

    return scale_cell(
        model_params={"depth": 2, "fanout": 3},
        receivers=12,
        mobility=1.0,
        warmup=4,
        duration=6,
        packet_interval=0.5,
        check_invariants=False,
        seed=seed,
    )


def _boom(seed: int):
    raise RuntimeError("injected failure")


def _flag_output(output, seed: int):
    return output, ["injected bad output"]


def _tiny(name: str, run_fn=tiny_cell, summarise=workloads.summarise_cell, digest=None):
    return Workload(name, "harness test", run_fn, summarise, reps=2, median_s=1.0,
                    traced_s=1.0, seed0_digest=digest)


WORKLOADS = {
    w.name: w
    for w in (
        _tiny("tiny"),
        _tiny("boom", run_fn=_boom),
        _tiny("bad-output", summarise=_flag_output),
        _tiny("wrong-pin", digest="0" * 64),
    )
}


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def outer() -> None:
    time.sleep(0.01)
    inner()


def inner() -> None:
    time.sleep(0.02)


def test_self_time_excludes_nested_wrapped_calls() -> None:
    original = outer
    targets = (
        Target("outer", "test_harness:outer", SETUP),
        Target("inner", "test_harness:inner", SETUP),
    )
    with LayerTimer(traced=True, targets=targets) as timer:
        outer()
    calls_o, own_o, incl_o = timer.stats[("outer", None, False)]
    calls_i, own_i, incl_i = timer.stats[("inner", "outer", False)]
    assert calls_o == calls_i == 1
    assert own_i == incl_i >= 0.02
    assert own_o >= 0.01
    assert abs(own_o + incl_i - incl_o) < 1e-9
    assert [(s[0], s[4]) for s in timer.spans] == [("inner", "outer"), ("outer", None)]
    assert outer is original


def test_vanished_target_reads_null() -> None:
    gone = (
        Target("link.transmit", "repro.net.link:Link.no_such_method", HOT),
        Target("trace.record", "repro.no_such_module:record", HOT),
    )
    targets = tuple(t for t in TARGETS if t.layer not in ("link.transmit", "trace.record"))
    with LayerTimer(traced=True, targets=targets + gone) as timer:
        tiny_cell(0)
    metrics = timer.layer_metrics()
    assert metrics["link.transmit_calls"] is None
    assert metrics["trace.record_self_s"] is None
    assert metrics["node.receive_calls"] > 0
    assert set(metrics) == set(LAYER_METRICS) - {"sim.us_per_event", "bench.trace_overhead"}


def test_untraced_repetitions_run_the_original_hot_path() -> None:
    from repro.net.link import Link
    from repro.sim.trace import Tracer

    before = {t.path: layers._resolve(t.path)[2] for t in TARGETS}
    with LayerTimer(traced=False):
        assert Link.transmit is before["repro.net.link:Link.transmit"]
        assert Tracer.record is before["repro.sim.trace:Tracer.record"]
        for target in TARGETS:
            wrapped = layers._resolve(target.path)[2] is not before[target.path]
            assert wrapped == (target.kind == PHASE), target.path
    for target in TARGETS:
        assert layers._resolve(target.path)[2] is before[target.path], target.path


# ----------------------------------------------------------------------
# repetitions in child processes
# ----------------------------------------------------------------------
def test_traced_tiny_workload_passes_and_closes() -> None:
    result = run.measure(WORKLOADS["tiny"], seed=0, reps=2, trace=True, module="test_harness")
    assert result["failures"] == [] and result["attempted"] == 3
    assert result["e2e"]["run_s"]["n"] == 2
    assert result["trace"]["closure_gap"] <= run.CLOSURE_TOLERANCE
    assert result["layers"]["fluid.recompute_calls"] == 0
    assert result["layers"]["mipv6.handover_calls"] > 0
    line = run.result_line([{"tiny": result}], trace=True)
    assert line["correct"] and set(line["metrics"]) == set(LAYER_METRICS)


def test_failures_count_in_failed_frac() -> None:
    boom = run.measure(WORKLOADS["boom"], seed=0, reps=2, module="test_harness")
    assert boom["failed_frac"] == 1.0 and "e2e" not in boom
    assert "injected failure" in boom["failures"][0]
    bad = run.measure(WORKLOADS["bad-output"], seed=0, reps=2, module="test_harness")
    assert bad["failed"] == 2 and bad["failures"][0] == "injected bad output"
    pinned = run.measure(WORKLOADS["wrong-pin"], seed=0, reps=1, module="test_harness")
    assert pinned["failed_frac"] == 1.0 and pinned["failures"][0].startswith("digest")
    assert not run.result_line([{"boom": boom}], trace=False)["correct"]


def test_other_seed_digests_differently_and_repeats() -> None:
    paper = workloads.WORKLOADS["paper-figs"]
    result = run.measure(paper, seed=1, reps=2)
    assert result["failures"] == []
    assert result["digest"] != workloads.expected_digest(paper, 0)


# ----------------------------------------------------------------------
# comparison and the benchmark definition
# ----------------------------------------------------------------------
def test_verdicts() -> None:
    base = [1.0, 1.01, 0.99]
    assert run.verdict(base, [1.02, 1.03, 1.01], 0.1, 0.0) == "within"
    assert run.verdict(base, [1.3, 1.31, 1.29], 0.1, 0.0) == "worse"
    assert run.verdict(base, [0.7, 0.71, 0.69], 0.1, 0.0) == "better"
    assert run.verdict(base, [1.0, 1.5, 0.8], 0.1, 0.0) == "unresolved"
    assert run.verdict([0.01, 0.012], [0.03, 0.031], 0.25, 0.05) == "within"
    assert run.verdict([0.0], [0.5], 0.0, 0.0) == "worse"


def test_compare_exits_nonzero_on_regression(tmp_path, capsys) -> None:
    def report(cell_s, failed_frac=0.0):
        e2e = {"cell_s": {"values": cell_s}}
        return {"sets": [{"w": {"e2e": e2e, "failed_frac": failed_frac}}]}

    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(json.dumps(report([10.0, 10.1, 9.9])))
    b.write_text(json.dumps(report([10.05, 10.0, 10.1])))
    c.write_text(json.dumps(report([20.0, 20.1, 19.9], failed_frac=0.5)))
    assert run.compare(str(a), str(b)) == 0
    assert run.compare(str(a), str(c)) == 1
    out = capsys.readouterr().out
    assert "within" in out and "worse" in out


def test_benchmark_json_matches_the_harness() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in LAYER_METRICS.items()
    }
