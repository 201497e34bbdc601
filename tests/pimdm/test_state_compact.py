"""Model-based tests for the (S,G) state tables.

:class:`OifSet` and :class:`DownstreamTable` must agree with plain
Python models — a ``set`` of uids and a ``{uid: flags}`` dict — under
arbitrary operation sequences, and a Figure 2-4 scenario built from an
explicit :class:`PimDmConfig` must still reproduce the committed golden
trace digests (``tests/test_golden_traces.py`` pins the same digests
through :func:`repro.core.goldens.run_canned`).
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PaperScenario, ScenarioConfig
from repro.core.goldens import CANNED_RUNS
from repro.net.node import Node
from repro.obs import digest_events
from repro.pimdm import PimDmConfig
from repro.pimdm.state import DownstreamTable, OifSet
from repro.sim import Simulator

GOLDEN_DIR = Path(__file__).parent.parent / "goldens"


# ----------------------------------------------------------------------
# golden check: the state layout reproduces the committed digests
# ----------------------------------------------------------------------
# The ids keep the name of the layout, the one that
# ``STATE_BYTE_COSTS["compact"]`` prices.
@pytest.mark.parametrize(
    "name",
    [pytest.param(name, id=f"{name}-compact") for name in ("fig2", "fig3", "fig4")],
)
def test_backend_keeps_golden_digest(name: str) -> None:
    recipe = CANNED_RUNS[name]
    config = ScenarioConfig(seed=0, approach=recipe.approach, pim=PimDmConfig())
    sc = recipe.play(PaperScenario(config))

    golden = json.loads((GOLDEN_DIR / f"{name}-seed0.json").read_text())
    events = sc.net.tracer.events
    assert len(events) == golden["events"], (
        f"{name} produced a different event count"
    )
    assert digest_events(events) == golden["digest"], (
        f"{name} trace drifted from the committed golden digest"
    )


def test_unknown_backend_rejected() -> None:
    # one state layout, so no config field chooses one
    assert not [f.name for f in fields(PimDmConfig) if "backend" in f.name]
    with pytest.raises(TypeError):
        PimDmConfig(backend="compact")


# ----------------------------------------------------------------------
# OifSet vs. the set model
# ----------------------------------------------------------------------
ops = st.lists(
    st.tuples(
        st.sampled_from(("add", "discard", "clear")),
        st.integers(min_value=0, max_value=200),
    ),
    max_size=80,
)


class TestOifSetModel:
    @settings(max_examples=200, deadline=None)
    @given(ops)
    def test_round_trip_against_set(self, sequence):
        oif = OifSet()
        model: set = set()
        for op, uid in sequence:
            if op == "add":
                oif.add(uid)
                model.add(uid)
            elif op == "discard":
                oif.discard(uid)
                model.discard(uid)
            else:
                oif.clear()
                model.clear()
            assert len(oif) == len(model)
            assert bool(oif) == bool(model)
            assert sorted(oif) == sorted(model)
            for uid2 in range(0, 16):
                assert (uid2 in oif) == (uid2 in model)

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=200), max_size=40))
    def test_iteration_is_ascending_and_int_faithful(self, uids):
        oif = OifSet()
        for uid in uids:
            oif.add(uid)
        listed = list(oif)
        assert listed == sorted(uids)
        assert oif.as_int() == sum(1 << u for u in uids)
        rebuilt = OifSet(oif.as_int())
        assert rebuilt == oif

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError):
            OifSet(-1)


# ----------------------------------------------------------------------
# DownstreamTable vs. a {uid: flags} model under the same op sequence
# ----------------------------------------------------------------------
table_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ("touch", "prune", "unprune", "lose", "clear_assert", "clear_prune")
        ),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=60,
)


class TestDownstreamTableDifferential:
    @settings(max_examples=100, deadline=None)
    @given(table_ops)
    def test_tables_agree(self, sequence):
        sim = Simulator()
        node = Node(sim, "N")
        ifaces = [node.new_interface() for _ in range(6)]
        table = DownstreamTable()
        model: Dict[int, Dict[str, bool]] = {}
        for op, idx in sequence:
            iface = ifaces[idx]
            state = table.state_for(iface)
            flags = model.setdefault(
                iface.uid, {"pruned": False, "assert_loser": False}
            )
            if op == "prune":
                state.pruned = flags["pruned"] = True
            elif op == "unprune":
                state.pruned = flags["pruned"] = False
            elif op == "lose":
                state.assert_loser = flags["assert_loser"] = True
            elif op == "clear_assert":
                state.clear_assert()
                flags["assert_loser"] = False
            elif op == "clear_prune":
                state.clear_prune()
                flags["pruned"] = False
        assert len(table) == len(model)
        assert bool(table) == bool(model)
        # uid-indexed storage: iteration is ascending by uid
        assert list(table) == sorted(model)
        assert [s.iface.uid for s in table.values()] == sorted(model)
        for iface in ifaces:
            state = table.get(iface.uid)
            flags = model.get(iface.uid)
            assert (state is None) == (flags is None)
            if state is not None:
                assert state.iface is iface
                assert state.pruned == flags["pruned"]
                assert state.assert_loser == flags["assert_loser"]
                assert not state.prune_pending
        # the pooled masks hold exactly the flagged uids
        assert list(table.pruned_oifs) == sorted(
            uid for uid, flags in model.items() if flags["pruned"]
        )
        assert list(table.assert_loser_oifs) == sorted(
            uid for uid, flags in model.items() if flags["assert_loser"]
        )

    def test_state_for_is_idempotent(self):
        sim = Simulator()
        node = Node(sim, "N")
        iface = node.new_interface()
        table = DownstreamTable()
        assert table.state_for(iface) is table.state_for(iface)
        assert table.get(iface.uid) is table.state_for(iface)
        assert table.get(999) is None
