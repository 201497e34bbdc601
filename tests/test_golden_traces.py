"""Golden-trace regression suite.

Every Figure 2-4 scenario (the canned runs in
:mod:`repro.core.goldens`) has a committed digest of its full trace
event stream under ``tests/goldens/``, computed over the schema-v1
JSONL serialization of :mod:`repro.obs.export`: one per traffic engine
(``figN-seed0.json`` for packet mode, ``figN-fluid-seed0.json`` for the
fluid engine).  These tests re-run each scenario and compare digests
byte-for-byte, so *any* behavioural drift — one extra packet, one
reordered timer, one changed detail field — fails loudly.

After an intentional behaviour change, regenerate the digests with::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --update-goldens

and commit the updated ``tests/goldens/*.json`` together with the
change that caused them.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import PaperScenario, ScenarioConfig
from repro.core.goldens import CANNED_RUNS, run_canned
from repro.obs import FORMAT_VERSION, EventDigest, digest_events

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: (scenario, seed, traffic model) triples with committed digests;
#: packet-mode cases keep their ``figN-seed`` ids.
CASES = tuple(
    pytest.param(
        name, 0, model, id=f"{name}-0" if model == "packet" else f"{name}-{model}-0"
    )
    for model in ("packet", "fluid")
    for name in ("fig2", "fig3", "fig4")
)


def golden_path(name: str, seed: int, traffic_model: str = "packet") -> Path:
    engine = "" if traffic_model == "packet" else f"-{traffic_model}"
    return GOLDEN_DIR / f"{name}{engine}-seed{seed}.json"


def canned_scenario(name: str, seed: int, traffic_model: str) -> PaperScenario:
    """The figure's scenario on ``traffic_model``, built but not played."""
    config = ScenarioConfig(
        seed=seed, approach=CANNED_RUNS[name].approach, traffic_model=traffic_model
    )
    return PaperScenario(config)


def golden_record(name: str, seed: int, traffic_model: str = "packet") -> dict:
    sc = canned_scenario(name, seed, traffic_model)
    live = EventDigest()
    sc.net.tracer.add_listener(live)
    CANNED_RUNS[name].play(sc)
    events = sc.net.tracer.events
    # the digest taken as events were recorded equals the stored
    # trace's: no event's detail changed after it was recorded
    assert live.hexdigest() == digest_events(events)
    record = {
        "scenario": name,
        "seed": seed,
        "schema_version": FORMAT_VERSION,
        "events": len(events),
        "digest": digest_events(events),
    }
    if traffic_model != "packet":
        record["traffic_model"] = traffic_model
    return record


@pytest.mark.parametrize("name,seed,traffic_model", CASES)
def test_golden_trace(
    name: str, seed: int, traffic_model: str, update_goldens: bool
) -> None:
    record = golden_record(name, seed, traffic_model)
    path = golden_path(name, seed, traffic_model)
    if update_goldens:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden {path}; run pytest with --update-goldens to create it"
    )
    golden = json.loads(path.read_text())
    assert record == golden, (
        f"{name} trace drifted from the committed golden.  If this change "
        "in behaviour is intentional, regenerate with: PYTHONPATH=src "
        "python -m pytest tests/test_golden_traces.py --update-goldens"
    )


@pytest.mark.parametrize("name,seed,traffic_model", CASES)
def test_live_digest_needs_no_stored_trace(
    name: str, seed: int, traffic_model: str
) -> None:
    """The listener's digest is the golden with ``retain = False``."""
    sc = canned_scenario(name, seed, traffic_model)
    live = EventDigest()
    sc.net.tracer.add_listener(live)
    sc.net.tracer.retain = False
    CANNED_RUNS[name].play(sc)

    golden = json.loads(golden_path(name, seed, traffic_model).read_text())
    assert sc.net.tracer.events == []
    assert live.hexdigest() == golden["digest"]


def test_detail_changed_after_recording_splits_the_digests() -> None:
    sc = canned_scenario("fig3", 0, "packet")
    live = EventDigest()
    sc.net.tracer.add_listener(live)
    CANNED_RUNS["fig3"].play(sc)
    events = sc.net.tracer.events
    assert live.hexdigest() == digest_events(events)

    events[len(events) // 2].detail["changed"] = True
    assert live.hexdigest() != digest_events(events)


def test_digest_catches_single_event_perturbation() -> None:
    """A one-event change anywhere in the stream must change the digest."""
    sc = run_canned("fig3", seed=0)
    events = list(sc.net.tracer.events)
    baseline = digest_events(events)

    # Perturb one event's timestamp by a femtosecond-scale amount.
    mid = len(events) // 2
    perturbed = events.copy()
    perturbed[mid] = replace(perturbed[mid], time=perturbed[mid].time + 1e-9)
    assert digest_events(perturbed) != baseline

    # Dropping a single event is also caught.
    assert digest_events(events[:-1]) != baseline

    # And the digest is a pure function of the stream.
    assert digest_events(events) == baseline


def test_golden_reruns_are_process_independent() -> None:
    """Two fresh runs of the same scenario digest identically."""
    a = golden_record("fig3", 0)
    b = golden_record("fig3", 0)
    assert a == b


@pytest.mark.parametrize("name,seed,traffic_model", CASES)
def test_golden_unchanged_with_compaction_forced(
    name: str, seed: int, traffic_model: str
) -> None:
    """Heap compaction on *every* cancellation must not move a single
    event: the digests must match the committed goldens byte-for-byte.

    Compaction preserves the ``(time, seq)`` heap keys, so this holds by
    construction — and this test keeps it that way.
    """
    sc = canned_scenario(name, seed, traffic_model)
    sc.net.sim.set_compaction(0, 0.0)  # compact on every cancellation
    CANNED_RUNS[name].play(sc)

    golden = json.loads(golden_path(name, seed, traffic_model).read_text())
    events = sc.net.tracer.events
    assert len(events) == golden["events"]
    assert digest_events(events) == golden["digest"]
    assert sc.net.sim.compactions > 0
