"""The benchmark's workloads: what one repetition (a *job*) runs.

A job is ``run(seed)``, timed as ``cell_s``, then ``summarise(output,
seed)``, untimed, which turns the output into a JSON-able summary plus
a list of problems found in it.  The SHA-256 of the canonical summary
is the job's digest: at seed 0 it must equal the pinned value, and at
any seed every repetition of a run must produce the same one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.fluidstudy import fluid_cell
from repro.core.goldens import CANNED_RUNS, run_canned
from repro.core.scalestudy import scale_cell
from repro.obs import digest_events

__all__ = ["GOLDENS", "WORKLOADS", "Workload", "canonical_digest", "expected_digest"]

REPO = Path(__file__).resolve().parent.parent
#: ``seed0_digest`` sentinel: the committed Figure 2-4 golden traces.
GOLDENS = "tests/goldens"
FIGS = ("fig2", "fig3", "fig4")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[[int], Any]
    summarise: Callable[[Any, int], Tuple[Dict[str, Any], List[str]]]
    #: repetitions of a full set (without ``--seconds``)
    reps: int
    #: recorded untraced and traced ``cell_s`` medians (timeout basis)
    median_s: float
    traced_s: float
    seed0_digest: Optional[str]


def canonical_digest(summary: Any) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def expected_digest(workload: Workload, seed: int) -> Optional[str]:
    """The pinned digest for ``seed``, or None where none is pinned."""
    if seed != 0 or workload.seed0_digest is None:
        return None
    if workload.seed0_digest != GOLDENS:
        return workload.seed0_digest
    summary = {}
    for fig in FIGS:
        golden = json.loads((REPO / GOLDENS / f"{fig}-seed0.json").read_text())
        summary[fig] = {"digest": golden["digest"], "events": golden["events"]}
    return canonical_digest(summary)


# ----------------------------------------------------------------------
# paper-figs: the paper's own Figure 2-4 scenarios
# ----------------------------------------------------------------------
def paper_figs(seed: int) -> List[Any]:
    return [run_canned(fig, seed=seed) for fig in FIGS]


def summarise_figs(scenarios: List[Any], seed: int) -> Tuple[Dict[str, Any], List[str]]:
    summary: Dict[str, Any] = {}
    problems: List[str] = []
    for fig, sc in zip(FIGS, scenarios):
        events = sc.net.tracer.events
        summary[fig] = {"digest": digest_events(events), "events": len(events)}
        # every figure's move must be followed by multicast delivery at
        # every receiver still in the group (the join delay exists)
        move_at = CANNED_RUNS[fig].move_at
        for name, app in sc.apps.items():
            if app.join_delay(move_at) is None:
                problems.append(f"{fig}: {name} received nothing after the move")
    return summary, problems


# ----------------------------------------------------------------------
# generated-topology cells (EXP-S1 and EXP-S2 runners)
# ----------------------------------------------------------------------
# Every cell moves each receiver exactly once (mobility=1.0), so the
# handover count is the same at every seed.  A fractional mobility
# gives a binomial count, and the cost of a cell follows it.
# The cells are sized so that one timed window holds about ten jobs.

#: EXP-S1 cell on a 400-router hierarchy (depth 3, fanout 7)
S1_400 = dict(
    model_params={"depth": 3, "fanout": 7},
    receivers=200,
    mobility=1.0,
    warmup=8,
    duration=20,
    packet_interval=1.0,
    check_invariants=False,
)

#: EXP-S2 cell on a 155-router hierarchy at 20 packets/s
CHURN = dict(
    model_params={"depth": 3, "fanout": 5},
    receivers=100,
    mobility=1.0,
    warmup=10,
    duration=12,
    packet_interval=0.05,
    payload_bytes=1000,
    probe_interval=10.0,
)


def s1_400(seed: int) -> Dict[str, Any]:
    return scale_cell(seed=seed, **S1_400)


def churn_packet(seed: int) -> Dict[str, Any]:
    return fluid_cell(seed=seed, traffic_model="packet", **CHURN)


def churn_fluid(seed: int) -> Dict[str, Any]:
    return fluid_cell(seed=seed, traffic_model="fluid", **CHURN)


def summarise_cell(result: Dict[str, Any], seed: int) -> Tuple[Dict[str, Any], List[str]]:
    problems = []
    if result["seed"] != seed:
        problems.append(f"cell ran seed {result['seed']}, asked for {seed}")
    if result["moves"] <= 0:
        problems.append("no handover was scheduled")
    if result.get("mcast_packets", result.get("data_transmissions", 0)) <= 0:
        problems.append("no multicast data crossed a link")
    state = result.get("state", {}).get("total_entries", result.get("state_entries", 0))
    if state <= 0:
        problems.append("no protocol state was built")
    traffic = result.get("traffic")
    if traffic is not None and result.get("traffic_model") == "fluid":
        if traffic["recomputes"] <= 0 or result["probe_transmissions"] <= 0:
            problems.append("fluid engine neither recomputed nor probed")
    return result, problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-figs",
            "the paper's Figure 2-4 scenarios: every protocol layer on its normal path, "
            "per-event dispatch cost; no FIB build or fluid engine",
            paper_figs,
            summarise_figs,
            reps=7,
            median_s=2.8,
            traced_s=4.8,
            seed0_digest=GOLDENS,
        ),
        Workload(
            "s1-400",
            "EXP-S1 cell on 400 routers: set-up dominated by FIB construction, "
            "route lookups at 400 links, 200 handovers",
            s1_400,
            summarise_cell,
            reps=7,
            median_s=3.2,
            traced_s=4.5,
            seed0_digest="9708dbf00ff69f5aa264fa55455c8737e7de9a2627421c351890b87c38430503",
        ),
        Workload(
            "churn-packet",
            "155 routers, 100 receivers moving once each, 20 pkt/s per-packet data plane: "
            "link, node, PIM data path and trace store dominate",
            churn_packet,
            summarise_cell,
            reps=7,
            median_s=2.2,
            traced_s=3.5,
            seed0_digest="ec6133d7509ce546eee4d9ba43516bfd30445b30de197839168f636044297339",
        ),
        Workload(
            "churn-fluid",
            "the churn-packet scenario on the fluid engine: analytic recompute and probes "
            "replace the per-packet data plane",
            churn_fluid,
            summarise_cell,
            reps=7,
            median_s=2.2,
            traced_s=3.5,
            seed0_digest="6ec65c0f7a5ab999edb0c44a847d6ef7025b3a0c86d4feaad59cb688b11dfcf9",
        ),
    )
}
