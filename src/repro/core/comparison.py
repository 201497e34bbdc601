"""Quantitative reproduction of the paper's §4.3 comparison.

The paper compares the four approaches *qualitatively* on join delay,
protocol overhead, bandwidth consumption, routing optimality, and
system load.  This module measures each criterion in the Figure 1
network and checks the paper's qualitative ordering:

* **join delay** — with a bi-directional tunnel a mobile receiver "does
  not experience any significant join delay"; with local membership and
  no unsolicited Reports it waits O(T_Query),
* **bandwidth** — leave-delay waste on the abandoned link (all
  approaches: the paper notes MLD cannot see the host leave), tunnel
  overhead per datagram (tunnel approaches only), re-flood traffic when
  a local-sending mobile moves,
* **routing optimality** — local membership routes optimally
  (stretch 1); tunneled datagrams cross links twice (stretch > 1),
* **system load** — home agents encapsulate every tunneled datagram;
  with local membership they do nothing,
* **mobile sender** — local sending rebuilds a source-rooted tree at
  every move (one new (S,G) entry per router, network-wide flood) and
  triggers unwanted asserts when the stale-source window hits an
  on-tree link; tunneled sending leaves the tree untouched.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.tables import fmt_bytes, fmt_float, fmt_seconds, render_table
from ..campaign import CampaignCell, CampaignRunner, run_cells
from ..mipv6 import MobileIpv6Config
from ..mld import MldConfig
from ..pimdm import PimDmConfig
from .scenario import PaperScenario, ScenarioConfig
from .strategies import (
    ALL_APPROACHES,
    BIDIRECTIONAL_TUNNEL,
    LOCAL_MEMBERSHIP,
    TUNNEL_HA_TO_MH,
    TUNNEL_MH_TO_HA,
    Approach,
)

__all__ = [
    "receiver_mobility_run",
    "sender_mobility_run",
    "run_full_comparison",
    "ComparisonReport",
]


def _scenario(
    approach: Approach,
    seed: int,
    unsolicited: bool,
    mld: Optional[MldConfig],
    pim: Optional[PimDmConfig],
    mipv6: Optional[MobileIpv6Config],
    packet_interval: float,
    traffic_model: str = "packet",
    probe_interval: Optional[float] = None,
) -> PaperScenario:
    mld_cfg = mld or MldConfig()
    if mld_cfg.unsolicited_reports_on_move != unsolicited:
        from dataclasses import replace

        mld_cfg = replace(mld_cfg, unsolicited_reports_on_move=unsolicited)
    return PaperScenario(
        ScenarioConfig(
            approach=approach,
            seed=seed,
            mld=mld_cfg,
            pim=pim,
            mipv6=mipv6,
            packet_interval=packet_interval,
            traffic_model=traffic_model,
            probe_interval=probe_interval,
        )
    )


def receiver_mobility_run(
    approach: Approach,
    seed: int = 0,
    move_link: str = "L6",
    move_at: float = 40.0,
    unsolicited: bool = True,
    settle: float = 30.0,
    measure_leave: bool = True,
    mld: Optional[MldConfig] = None,
    pim: Optional[PimDmConfig] = None,
    mipv6: Optional[MobileIpv6Config] = None,
    packet_interval: float = 0.05,
    traffic_model: str = "packet",
    probe_interval: Optional[float] = None,
) -> Dict[str, Any]:
    """One §4.3 receiver experiment: Receiver 3 moves to ``move_link``.

    Returns one comparison-table row (join delay, leave delay, wasted
    bytes on the abandoned link, tunnel overhead, signaling bytes,
    routing stretch, home-agent load, duplicates).
    """
    sc = _scenario(
        approach, seed, unsolicited, mld, pim, mipv6, packet_interval,
        traffic_model, probe_interval,
    )
    sc.converge()
    before_move = sc.metrics.snapshot()
    sc.move("R3", move_link, at=move_at)

    mld_cfg = sc.config.mld or MldConfig()
    t_mli = mld_cfg.multicast_listener_interval
    if not unsolicited:
        # The receiver waits for the next General Query: the horizon must
        # cover a full query cycle plus the maximum response delay.
        settle = max(
            settle,
            mld_cfg.query_interval + mld_cfg.query_response_interval + 15.0,
        )
    steady_start = move_at + settle / 2
    sc.run_until(move_at + settle)
    after_settle = sc.metrics.snapshot()

    join_delay = sc.join_delay("R3", move_at)
    app = sc.apps["R3"]
    window = [
        d
        for d in app.deliveries_between(steady_start, move_at + settle)
        if not d.duplicate
    ]
    stretch = None
    if window:
        mean_latency = sum(d.latency for d in window) / len(window)
        stretch = sc.metrics.stretch(
            mean_latency, "L1", move_link, sc.config.payload_bytes
        )

    leave_delay = None
    wasted_bytes = None
    if measure_leave:
        sc.run_until(move_at + t_mli + 30.0)
        leave_delay = sc.leave_delay("L4", move_at)
        if leave_delay is not None:
            at_leave = sc.metrics.snapshot()
            delta = at_leave.delta(before_move)
            wasted_bytes = delta.bytes_on("L4", "mcast_data") + delta.bytes_on(
                "L4", "tunnel_overhead"
            )

    signaling = after_settle.delta(before_move)
    ha = sc.paper.router("D")
    sc.finish()
    return {
        "approach": approach.key,
        "title": approach.title,
        "join_delay": join_delay,
        "leave_delay": leave_delay,
        "wasted_bytes_old_link": wasted_bytes,
        "tunnel_overhead": signaling.total("tunnel_overhead"),
        "mld_bytes": signaling.total("mld"),
        "pim_bytes": signaling.total("pim"),
        "mipv6_bytes": signaling.total("mipv6"),
        "stretch": stretch,
        "ha_encapsulations": ha.load["encapsulations"],
        "ha_groups_on_behalf": len(ha.groups_on_behalf()),
        "mn_decapsulations": sc.paper.host("R3").load["decapsulations"],
        "duplicates": app.duplicate_count,
        "unsolicited": unsolicited,
        "t_mli": t_mli,
    }


def sender_mobility_run(
    approach: Approach,
    seed: int = 0,
    move_link: str = "L6",
    move_at: float = 40.0,
    run_until: float = 100.0,
    mld: Optional[MldConfig] = None,
    pim: Optional[PimDmConfig] = None,
    mipv6: Optional[MobileIpv6Config] = None,
    packet_interval: float = 0.05,
    traffic_model: str = "packet",
    probe_interval: Optional[float] = None,
) -> Dict[str, Any]:
    """One §4.3 sender experiment: Sender S moves to ``move_link``."""
    sc = _scenario(
        approach, seed, True, mld, pim, mipv6, packet_interval,
        traffic_model, probe_interval,
    )
    sc.converge()
    before = sc.metrics.snapshot()
    sc.move("S", move_link, at=move_at)
    sc.run_until(run_until)
    after = sc.metrics.snapshot()
    delta = after.delta(before)

    sender = sc.paper.host("S")
    coa = sender.care_of_address
    new_entries = (
        sc.metrics.entries_created(source=coa, since=move_at) if coa else 0
    )
    flood_links = (
        sc.metrics.flood_extent(coa, sc.group, since=move_at) if coa else []
    )

    # Service interruption at Receiver 1 (a static member): longest gap
    # in deliveries around the move.
    gaps = _delivery_gaps(sc.apps["R1"], move_at - 5.0, run_until)
    interruption = max(gaps) if gaps else None

    home_agent = sc.paper.router("A")
    sc.finish()
    return {
        "approach": approach.key,
        "title": approach.title,
        "new_sg_entries": new_entries,
        "flood_links": flood_links,
        "asserts": sc.metrics.assert_count(since=move_at),
        "tunnel_overhead": delta.total("tunnel_overhead"),
        "pim_bytes": delta.total("pim"),
        "reverse_tunneled": home_agent.reverse_tunneled,
        "mn_encapsulations": sender.load["encapsulations"],
        "interruption": interruption,
        "erroneous_sends": sc.net.tracer.count(
            "mobility", event="erroneous-source-send", since=move_at
        ),
    }


def _delivery_gaps(app, start: float, end: float) -> List[float]:
    times = sorted(d.time for d in app.deliveries_between(start, end))
    return [b - a for a, b in zip(times, times[1:])]


@dataclass
class ComparisonReport:
    """All §4.3 measurements plus the paper's qualitative claims."""

    receiver_rows: List[Dict[str, Any]] = field(default_factory=list)
    join_study_rows: List[Dict[str, Any]] = field(default_factory=list)
    sender_rows: List[Dict[str, Any]] = field(default_factory=list)
    claims: List[Tuple[str, bool, str]] = field(default_factory=list)

    @property
    def all_claims_hold(self) -> bool:
        return all(ok for _, ok, _ in self.claims)

    def row(self, rows: str, approach_key: str) -> Dict[str, Any]:
        for row in getattr(self, rows):
            if row["approach"] == approach_key:
                return row
        raise KeyError(approach_key)

    def render(self) -> str:
        parts = []
        parts.append(
            render_table(
                self.receiver_rows,
                [
                    ("approach", "approach"),
                    ("join_delay", "join delay", fmt_seconds),
                    ("leave_delay", "leave delay", fmt_seconds),
                    ("wasted_bytes_old_link", "wasted (old link)", fmt_bytes),
                    ("tunnel_overhead", "tunnel ovh", fmt_bytes),
                    ("mipv6_bytes", "MIPv6 sig", fmt_bytes),
                    ("mld_bytes", "MLD sig", fmt_bytes),
                    ("stretch", "stretch", fmt_float(2)),
                    ("ha_encapsulations", "HA encap"),
                    ("duplicates", "dups"),
                ],
                title="Mobile receiver (R3 moves off-tree) — §4.3 criteria",
            )
        )
        if self.join_study_rows:
            parts.append(
                render_table(
                    self.join_study_rows,
                    [
                        ("approach", "approach"),
                        ("unsolicited", "unsolicited Reports"),
                        ("join_delay", "join delay", fmt_seconds),
                    ],
                    title="Join delay vs unsolicited Reports (§4.3.1 recommendation)",
                )
            )
        parts.append(
            render_table(
                self.sender_rows,
                [
                    ("approach", "approach"),
                    ("new_sg_entries", "new (S,G)"),
                    ("asserts", "asserts"),
                    ("tunnel_overhead", "tunnel ovh", fmt_bytes),
                    ("mn_encapsulations", "MN encap"),
                    ("interruption", "interruption", fmt_seconds),
                ],
                title="Mobile sender (S moves off-tree) — §4.3 criteria",
            )
        )
        claim_lines = ["Paper claims check:"]
        for text, ok, detail in self.claims:
            claim_lines.append(f"  [{'PASS' if ok else 'FAIL'}] {text} ({detail})")
        parts.append("\n".join(claim_lines))
        return "\n\n".join(parts)


#: Join-delay study rows: local membership with and without the paper's
#: unsolicited-Report recommendation; tunnel for reference.
_JOIN_STUDY = (
    (LOCAL_MEMBERSHIP, True),
    (LOCAL_MEMBERSHIP, False),
    (BIDIRECTIONAL_TUNNEL, True),
)


def run_full_comparison(
    seed: int = 0,
    mld: Optional[MldConfig] = None,
    runner: Optional[CampaignRunner] = None,
    **cell: Any,
) -> ComparisonReport:
    """Run the complete §4.3 comparison and evaluate the paper's claims.

    The matrix is one ``comparison.receiver`` and one
    ``comparison.sender`` cell per approach plus the three join-study
    cells: 11 cells, each carrying ``seed``, ``mld`` and ``cell`` (any
    other parameter both tasks take, such as ``traffic_model``).  They
    run through :func:`repro.campaign.run_cells`, so a ``runner`` built
    as ``CampaignRunner(jobs=…, cache_dir=…)`` shards and caches them.
    """
    base = {"seed": seed, "mld": asdict(mld) if mld is not None else None, **cell}
    cells = [
        CampaignCell(task, {**base, "approach": approach.key})
        for task in ("comparison.receiver", "comparison.sender")
        for approach in ALL_APPROACHES
    ]
    cells += [
        CampaignCell(
            "comparison.receiver",
            {
                **base,
                "approach": approach.key,
                "unsolicited": unsol,
                "measure_leave": False,
            },
        )
        for approach, unsol in _JOIN_STUDY
    ]
    rows = run_cells(cells, runner)
    n = len(ALL_APPROACHES)
    report = ComparisonReport(
        receiver_rows=rows[:n],
        sender_rows=rows[n : 2 * n],
        join_study_rows=rows[2 * n :],
    )
    _evaluate_claims(report)
    return report


def _evaluate_claims(report: ComparisonReport) -> None:
    claims = report.claims

    def receiver(key: str) -> Dict[str, Any]:
        return report.row("receiver_rows", key)

    def sender(key: str) -> Dict[str, Any]:
        return report.row("sender_rows", key)

    # §4.3.1 / §4.3.2: with wait-for-query the local join delay is
    # O(T_Query); a tunnel receiver's is the handoff pipeline only.
    wait_row = next(
        r
        for r in report.join_study_rows
        if r["approach"] == LOCAL_MEMBERSHIP.key and not r["unsolicited"]
    )
    tunnel_row = next(
        r
        for r in report.join_study_rows
        if r["approach"] == BIDIRECTIONAL_TUNNEL.key
    )
    if wait_row["join_delay"] is not None and tunnel_row["join_delay"] is not None:
        ok = tunnel_row["join_delay"] < wait_row["join_delay"] / 3
        claims.append(
            (
                "bi-directional tunnel join delay << local wait-for-query join delay",
                ok,
                f"{tunnel_row['join_delay']:.2f}s vs {wait_row['join_delay']:.2f}s",
            )
        )
    unsol_row = next(
        r
        for r in report.join_study_rows
        if r["approach"] == LOCAL_MEMBERSHIP.key and r["unsolicited"]
    )
    if unsol_row["join_delay"] is not None and wait_row["join_delay"] is not None:
        ok = unsol_row["join_delay"] < wait_row["join_delay"] / 3
        claims.append(
            (
                "unsolicited Reports slash the local join delay (§4.3.1)",
                ok,
                f"{unsol_row['join_delay']:.2f}s vs {wait_row['join_delay']:.2f}s",
            )
        )

    # Leave delay bounded by T_MLI in every approach.
    for row in report.receiver_rows:
        if row["leave_delay"] is None:
            continue
        ok = 0 < row["leave_delay"] <= row["t_mli"] + 1.0
        claims.append(
            (
                f"leave delay bounded by T_MLI ({row['approach']})",
                ok,
                f"{row['leave_delay']:.1f}s <= {row['t_mli']:.0f}s",
            )
        )

    # Routing optimality: local receive optimal, tunneled receive not.
    local = receiver(LOCAL_MEMBERSHIP.key)
    bidir = receiver(BIDIRECTIONAL_TUNNEL.key)
    if local["stretch"] is not None:
        claims.append(
            (
                "local membership routes multicast optimally",
                local["stretch"] < 1.2,
                f"stretch {local['stretch']:.2f}",
            )
        )
    if bidir["stretch"] is not None and local["stretch"] is not None:
        claims.append(
            (
                "tunneled reception is suboptimal (links crossed twice)",
                bidir["stretch"] > local["stretch"] * 1.1,
                f"stretch {bidir['stretch']:.2f} vs {local['stretch']:.2f}",
            )
        )

    # System load: home agents encapsulate only in tunnel-receive modes.
    claims.append(
        (
            "home agent has no multicast load under local membership",
            local["ha_encapsulations"] == 0,
            f"{local['ha_encapsulations']} encapsulations",
        )
    )
    claims.append(
        (
            "home agent encapsulates every tunneled datagram (bi-dir tunnel)",
            bidir["ha_encapsulations"] > 100,
            f"{bidir['ha_encapsulations']} encapsulations",
        )
    )

    # Mobile sender: local sending rebuilds the tree; tunneled does not.
    s_local = sender(LOCAL_MEMBERSHIP.key)
    s_bidir = sender(BIDIRECTIONAL_TUNNEL.key)
    claims.append(
        (
            "local sending after a move builds a new source-rooted tree",
            s_local["new_sg_entries"] >= 4,
            f"{s_local['new_sg_entries']} new (S,G) entries",
        )
    )
    claims.append(
        (
            "tunneled sending keeps the existing tree (no new state)",
            s_bidir["new_sg_entries"] == 0,
            f"{s_bidir['new_sg_entries']} new (S,G) entries",
        )
    )
    claims.append(
        (
            "tunneled sending pays per-datagram encapsulation overhead",
            s_bidir["tunnel_overhead"] > 0 and s_local["tunnel_overhead"] == 0,
            f"{s_bidir['tunnel_overhead']}B vs {s_local['tunnel_overhead']}B",
        )
    )

    # The uni-directional combinations inherit the matching halves.
    ut_mh = receiver(TUNNEL_MH_TO_HA.key)
    ut_ha = receiver(TUNNEL_HA_TO_MH.key)
    if ut_mh["stretch"] is not None and local["stretch"] is not None:
        claims.append(
            (
                "MH->HA tunnel keeps optimal routing toward mobile receivers",
                abs(ut_mh["stretch"] - local["stretch"]) < 0.25,
                f"stretch {ut_mh['stretch']:.2f}",
            )
        )
    if ut_ha["stretch"] is not None and bidir["stretch"] is not None:
        claims.append(
            (
                "HA->MH tunnel inherits the tunnel-receive suboptimality",
                ut_ha["stretch"] > 1.1,
                f"stretch {ut_ha['stretch']:.2f}",
            )
        )
