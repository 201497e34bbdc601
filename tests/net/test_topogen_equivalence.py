"""Generator-equivalence fixture: Figure 1 via the topology generator.

Builds the paper's Figure 1 network twice — once hand-built
(:func:`repro.core.paper_topology.build_paper_network`) and once from
:func:`repro.net.topogen.figure1_graph` through the generic
:func:`build_network` / ``as_paper_network`` path — and pins that the
two constructions are *behaviourally identical*: byte-identical trace
digests, exactly equal §4.3 join/leave delays, and exactly equal span
phase breakdowns.
"""

from __future__ import annotations

import pytest

from repro.analysis.delays import (
    handovers_of,
    phase_breakdown,
    verify_span_equivalence,
)
from repro.core import LOCAL_MEMBERSHIP, PaperScenario, ScenarioConfig
from repro.core.goldens import CANNED_RUNS
from repro.net.topogen import build_network, figure1_graph
from repro.obs import digest_events


def generated_scenario(config: ScenarioConfig) -> PaperScenario:
    """A PaperScenario whose network came from the generator API."""
    built = build_network(
        figure1_graph(),
        seed=config.seed,
        pim_config=config.pim,
        mld_config=config.mld,
        mipv6_config=config.mipv6,
        recv_mode=config.approach.recv_mode,
        send_mode=config.approach.send_mode,
    )
    return PaperScenario(config, paper=built.as_paper_network())


def run_pair(name: str, **config_kw):
    """The canned figure run, hand-built and generated, side by side."""
    recipe = CANNED_RUNS[name]
    scenarios = []
    for generated in (False, True):
        config = ScenarioConfig(seed=0, approach=recipe.approach, **config_kw)
        sc = generated_scenario(config) if generated else PaperScenario(config)
        recipe.play(sc)
        sc.finish()
        scenarios.append(sc)
    return scenarios


def test_figure1_graph_matches_hand_built_constants():
    graph = figure1_graph()
    assert [l.name for l in graph.links] == [f"L{i}" for i in range(1, 7)]
    assert [r.name for r in graph.routers] == ["A", "B", "C", "D", "E"]
    assert graph.ha_of("L4") == "D" and graph.ha_of("L2") == "B"
    assert [h.name for h in graph.hosts] == ["S", "R1", "R2", "R3"]
    graph.validate()


@pytest.mark.parametrize("name", ("fig2", "fig3"))
def test_trace_byte_identical(name: str):
    hand, gen = run_pair(name)
    hand_events = hand.net.tracer.events
    gen_events = gen.net.tracer.events
    assert len(hand_events) == len(gen_events)
    assert digest_events(hand_events) == digest_events(gen_events), (
        f"{name} via figure1_graph() diverged from the hand-built network"
    )


def test_join_and_leave_delays_match_exactly():
    """The §4.3 numbers (fig2: R3 to Link 6, local membership) must be
    float-identical between the two constructions."""
    hand, gen = run_pair("fig2")
    recipe = CANNED_RUNS["fig2"]
    move_at = recipe.move_at
    hand_join = hand.join_delay("R3", move_at)
    gen_join = gen.join_delay("R3", move_at)
    hand_leave = hand.leave_delay("L4", move_at)
    gen_leave = gen.leave_delay("L4", move_at)
    assert hand_join is not None and hand_leave is not None
    assert gen_join == hand_join
    assert gen_leave == hand_leave
    # and the tree the generated network converges to is the same tree
    assert gen.current_tree() == hand.current_tree()


def test_span_phase_sums_match_exactly():
    """Phase-attributed handover breakdowns agree span-for-span."""
    hand, gen = run_pair("fig3", trace_spans=True)
    recipe = CANNED_RUNS["fig3"]
    move_at = recipe.move_at
    breakdowns = []
    for sc in (hand, gen):
        verdict = verify_span_equivalence(
            sc.net.tracer, sc.spans.roots, move_at, "R3", "L4",
            group=str(sc.group),
        )
        assert verdict["equivalent"], "span tree out of sync with its own trace"
        handover = handovers_of(sc.spans.roots, "R3", since=move_at)[0]
        breakdowns.append(
            {
                "phases": phase_breakdown(handover),
                "phase_sum": verdict["phase_sum"],
                "join": verdict["span_join_delay"],
                "leave": verdict["span_leave_delay"],
            }
        )
    assert breakdowns[0] == breakdowns[1]
    assert breakdowns[0]["phase_sum"] is not None
