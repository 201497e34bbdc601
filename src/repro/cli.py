"""Command-line experiment runner.

Reproduces any experiment from DESIGN.md §5 without writing code::

    python -m repro list                 # available experiments
    python -m repro fig1                 # Figure 1 tree
    python -m repro fig2 --seed 3        # Figure 2 receiver move
    python -m repro fig2 --json          # machine-readable results
    python -m repro compare              # the full §4.3 comparison
    python -m repro timers --intervals 10 25 60 125
    python -m repro scaling              # HA load sweeps (§4.3.2)
    python -m repro table1

``compare``, ``timers`` and ``scaling`` run the ``sweep`` grid of the
same name without a campaign cache.

Campaigns (see docs/CAMPAIGNS.md)::

    python -m repro sweep compare --jobs 4 --cache-dir .repro-cache
    python -m repro sweep timers --intervals 10 25 --repeats 2 --jobs 2
    python -m repro sweep scaling --json

Generated topologies (see docs/TOPOLOGIES.md)::

    python -m repro topo --model hier --depth 3 --fanout 10   # describe
    python -m repro topo --model waxman --nodes 80 --json     # + digest
    python -m repro sweep scale --jobs 4                      # EXP-S1
    python -m repro sweep scale --sizes 2x5 3x5 --receivers 100 500

Fault injection (see docs/FAULTS.md)::

    python -m repro faults                         # loss sweep, 4 approaches
    python -m repro faults --scenario ha-crash     # home-agent crash study
    python -m repro faults --loss 0.0 0.02 --jobs 4 --json

Observability (see docs/OBSERVABILITY.md)::

    python -m repro trace --export run.jsonl   # run + persist the trace
    python -m repro trace --import run.jsonl   # same numbers, offline
    python -m repro trace --metrics            # Prometheus-text metrics
    python -m repro profile fig2 --top 10      # kernel hotspot report

Causal spans (see docs/OBSERVABILITY.md)::

    python -m repro spans                      # phase-attribution table
    python -m repro spans --loss 0.0 0.05      # ... under wireless loss
    python -m repro spans --export spans.json  # Chrome/Perfetto trace
    python -m repro spans --handover list      # enumerate handovers
    python -m repro spans --handover handover:R3:1   # one span tree
    python -m repro trace --txn handover:R3:1 --export slice.jsonl

Performance baselines (see docs/PERFORMANCE.md)::

    python -m repro bench                      # -> BENCH_KERNEL.json
    python -m repro bench --quick --baseline \\
        benchmarks/results/bench_kernel_baseline.json   # CI gate
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Any, Callable, Dict, Optional

from .analysis import fmt_seconds, render_figure
from .campaign import CampaignError, CampaignRunner
from .core import (
    ALL_APPROACHES,
    PaperScenario,
    ScenarioConfig,
    render_fluid_report,
    render_scale_report,
    render_scaling,
    render_table1,
    run_fluid_study,
    run_full_comparison,
    run_ha_load_vs_groups,
    run_ha_load_vs_mobiles,
    run_ha_load_vs_rate,
    run_scale_sweep,
    run_timer_sweep,
)
from .core.goldens import CANNED_RUNS
from .core.report import generate_report
from .core.timer_optimization import render_sweep
from .net.topogen import ROUTER_LINKS, topo_graph
from .obs import (
    KernelProfiler,
    MetricsRegistry,
    TraceCollector,
    export_run,
    import_run,
    summarize_mobility,
)

__all__ = ["main"]


def _print_json(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))


def _traffic(args: argparse.Namespace) -> Dict[str, Any]:
    """The traffic-engine flags as keyword arguments."""
    return {
        # ``sweep`` leaves the flag unset so a grid can tell it was given
        "traffic_model": args.traffic_model or "packet",
        "probe_interval": args.probe_interval,
    }


def _fig1(sc: PaperScenario):
    asserts, prunes = sc.metrics.assert_count(), sc.metrics.prune_count()
    return (
        {"asserts": asserts, "prunes": prunes},
        None,
        [f"asserts: {asserts}  prunes: {prunes}"],
    )


def _fig2(sc: PaperScenario):
    join, leave = sc.join_delay("R3", 40.0), sc.leave_delay("L4", 40.0)
    return (
        {"join_delay": join, "leave_delay": leave, "leave_delay_bound": 260.0},
        None,
        [f"join delay:  {fmt_seconds(join)}",
         f"leave delay: {fmt_seconds(leave)} (bound 260 s)"],
    )


def _fig3(sc: PaperScenario):
    d = sc.paper.router("D")
    groups = [str(g) for g in d.groups_on_behalf()]
    return (
        {"tunneled_datagrams": d.tunneled_to_mobiles, "groups_on_behalf": groups},
        [("Router D", f"R3 @ {sc.paper.host('R3').care_of_address}",
          "HA->MH multicast tunnel")],
        [f"tunneled datagrams: {d.tunneled_to_mobiles}  "
         f"on-behalf groups: {groups}"],
    )


def _fig4(sc: PaperScenario):
    reverse_tunneled = sc.paper.router("A").reverse_tunneled
    return (
        {"reverse_tunneled": reverse_tunneled},
        [(f"S @ {sc.paper.host('S').care_of_address}", "Router A",
          "MH->HA multicast tunnel")],
        [f"reverse-tunneled: {reverse_tunneled}"],
    )


#: figure -> (title, result): ``result(sc)`` gives the JSON fields, the
#: tunnels drawn beside the tree, and the text lines under it
_FIGURES = {
    "fig1": ("Figure 1 — initial distribution tree", _fig1),
    "fig2": ("Figure 2 — after R3 moved Link4->Link6", _fig2),
    "fig3": ("Figure 3 — R3 via home-agent tunnel", _fig3),
    "fig4": ("Figure 4 — S via reverse tunnel (tree unchanged)", _fig4),
}


def _figure(args: argparse.Namespace) -> None:
    """fig1-fig4: play the canned Figure run, print its tree and numbers."""
    recipe = CANNED_RUNS[args.command]
    sc = PaperScenario(
        ScenarioConfig(seed=args.seed, approach=recipe.approach, **_traffic(args))
    )
    recipe.play(sc)
    sc.finish()
    title, result = _FIGURES[args.command]
    fields, tunnels, lines = result(sc)
    tree = sc.current_tree()
    if args.json:
        _print_json(
            {
                "experiment": args.command,
                "seed": args.seed,
                "tree": tree,
                **fields,
            }
        )
        return
    print(render_figure(tree, "L1", ROUTER_LINKS, tunnels=tunnels, title=title))
    print("\n".join(lines))


def _table1(args: argparse.Namespace) -> None:
    if args.json:
        _print_json(
            {
                "experiment": "table1",
                "approaches": [
                    {
                        "key": a.key,
                        "title": a.title,
                        "recv_mode": str(a.recv_mode),
                        "send_mode": str(a.send_mode),
                    }
                    for a in ALL_APPROACHES
                ],
            }
        )
        return
    print(render_table1())


def _report(args: argparse.Namespace) -> None:
    text = generate_report(seed=args.seed)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)


# ----------------------------------------------------------------------
# campaign commands: sweep, faults, spans (docs/CAMPAIGNS.md)
# ----------------------------------------------------------------------

def _campaign_runner(args: argparse.Namespace, registry) -> CampaignRunner:
    """Validated runner from --jobs / --cache-dir, progress on stderr."""
    if args.jobs < 1:
        raise SystemExit(f"error: --jobs must be >= 1, got {args.jobs}")
    if args.retries < 0:
        raise SystemExit(f"error: --retries must be >= 0, got {args.retries}")
    if args.timeout is not None and args.timeout <= 0:
        raise SystemExit(f"error: --timeout must be positive, got {args.timeout}")
    if args.resume and not args.checkpoint:
        raise SystemExit("error: --resume requires --checkpoint PATH")

    def progress(done: int, total: int, outcome) -> None:
        if args.json:
            return
        if not outcome.ok:
            source = f"FAILED after {outcome.attempts} attempt(s)"
        elif outcome.cached:
            source = "cache"
        else:
            source = f"{outcome.elapsed:.1f}s"
        print(
            f"  [{done}/{total}] {outcome.cell.task} ({source})",
            file=sys.stderr,
        )

    try:
        return CampaignRunner(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            master_seed=args.seed,
            registry=registry,
            progress=progress,
            timeout=args.timeout,
            retries=args.retries,
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
    except (NotADirectoryError, OSError) as exc:
        raise SystemExit(f"error: invalid --cache-dir: {exc}")


_SIZE_RANGES = {
    "hier": "depth and fanout must be >= 1",
    "fattree": "k must be even and >= 2",
    "waxman": "n must be >= 1",
}


def _parse_scale_sizes(model: str, tokens) -> Optional[list]:
    """``--sizes`` tokens to model-param dicts: hier takes DEPTHxFANOUT
    pairs ("3x10"), fattree takes k values, waxman takes node counts;
    out-of-range sizes are rejected here, before any cell runs."""
    if tokens is None:
        return None
    sizes = []
    for tok in tokens:
        try:
            if model == "hier":
                depth, _, fanout = tok.partition("x")
                size = {"depth": int(depth), "fanout": int(fanout)}
                in_range = size["depth"] >= 1 and size["fanout"] >= 1
            elif model == "fattree":
                size = {"k": int(tok)}
                in_range = size["k"] >= 2 and size["k"] % 2 == 0
            else:
                size = {"n": int(tok)}
                in_range = size["n"] >= 1
        except ValueError:
            expect = "DEPTHxFANOUT" if model == "hier" else "an integer"
            raise SystemExit(
                f"error: bad --sizes token {tok!r} for model {model!r} "
                f"(expected {expect})"
            )
        if not in_range:
            raise SystemExit(
                f"error: bad --sizes token {tok!r} for model {model!r} "
                f"({_SIZE_RANGES[model]})"
            )
        sizes.append(size)
    return sizes


def _campaign(
    args: argparse.Namespace, header: Dict[str, Any], body
) -> Dict[str, Any]:
    """Run one campaign command and print its result.

    ``body(runner, registry)`` runs the cells and returns the payload
    fields and the text sections.  JSON mode prints the payload; text
    mode prints the sections, the campaign footer and, with
    ``--metrics``, the registry.  Returns the payload fields.
    """
    registry = MetricsRegistry()
    runner = _campaign_runner(args, registry)
    fields, sections = body(runner, registry)
    stats = runner.stats()
    if args.json:
        _print_json(
            {
                **header,
                "seed": args.seed,
                "jobs": args.jobs,
                "cache_dir": args.cache_dir,
                **fields,
                "campaign": stats,
            }
        )
        return fields
    print("\n\n".join(sections))
    print(
        f"\ncampaign: {stats['cells']} cells, {stats['executed']} executed, "
        f"{stats['cached']} cached, {stats['failed']} failed, "
        f"{stats['retries']} retries, jobs={stats['jobs']}, "
        f"wall {stats['wall_clock']:.1f}s"
    )
    if args.metrics:
        print(registry.render_prometheus(), end="")
    return fields


def _approaches(args: argparse.Namespace) -> tuple:
    """The ``--approaches`` keys as approaches, once ``--approaches`` and
    ``--loss`` have been range-checked (faults and spans share both)."""
    by_key = {a.key: a for a in ALL_APPROACHES}
    unknown = [k for k in args.approaches if k not in by_key]
    if unknown:
        raise SystemExit(
            f"error: unknown approach(es) {', '.join(unknown)}; "
            f"known: {', '.join(by_key)}"
        )
    for rate in args.loss:
        if not 0.0 <= rate < 1.0:
            raise SystemExit(f"error: --loss rates must be in [0, 1), got {rate}")
    return tuple(by_key[k] for k in args.approaches)


# ----------------------------------------------------------------------
# experiment grids: each returns (payload fields, text sections)
# ----------------------------------------------------------------------

def _compare_grid(args: argparse.Namespace, runner):
    report = run_full_comparison(seed=args.seed, runner=runner, **_traffic(args))
    fields = {
        "seed": args.seed,
        "all_claims_hold": report.all_claims_hold,
        "receiver_rows": report.receiver_rows,
        "join_study_rows": report.join_study_rows,
        "sender_rows": report.sender_rows,
        "claims": [
            {"claim": text, "holds": ok, "detail": detail}
            for text, ok, detail in report.claims
        ],
    }
    return fields, [report.render()]


def _timers_grid(args: argparse.Namespace, runner):
    points = run_timer_sweep(
        query_intervals=tuple(args.intervals),
        seeds=tuple(range(args.seed, args.seed + args.repeats)),
        runner=runner,
    )
    fields = {
        "points": [
            {
                **asdict(p),
                "mean_join_delay": p.mean_join_delay,
                "mean_leave_delay": p.mean_leave_delay,
            }
            for p in points
        ]
    }
    return fields, [render_sweep(points)]


def _scaling_grid(args: argparse.Namespace, runner):
    common = dict(seed=args.seed, runner=runner, **_traffic(args))
    mobiles = run_ha_load_vs_mobiles(**common)
    groups = run_ha_load_vs_groups(**common)
    rate = run_ha_load_vs_rate(**common)
    return {"mobiles": mobiles, "groups": groups, "rate": rate}, [
        render_scaling(mobiles, "mobiles"),
        render_scaling(groups, "groups"),
        render_scaling(rate, "packets_per_s"),
    ]


#: ``sweep scale`` group counts when ``--groups`` is not given
_SCALE_GROUPS = (1, 4, 8)


def _scale_grid(args: argparse.Namespace, runner):
    report = run_scale_sweep(
        sizes=_parse_scale_sizes(args.topo_model, args.sizes),
        receivers=tuple(args.receivers),
        groups=tuple(args.groups or _SCALE_GROUPS),
        mobility=tuple(args.mobility),
        model=args.topo_model,
        seed=args.seed,
        duration=args.duration,
        runner=runner,
        **_traffic(args),
    )
    return {"report": report}, [render_scale_report(report)]


def _fluid_grid(args: argparse.Namespace, runner):
    # EXP-S2 cells are single-group hierarchies
    if args.topo_model != "hier":
        raise SystemExit(
            f"error: the fluid grid runs hier topologies only, got "
            f"--topo-model {args.topo_model}"
        )
    if args.groups not in (None, [1]):
        raise SystemExit(
            "error: the fluid grid runs one group per cell, got --groups "
            + " ".join(str(g) for g in args.groups)
        )
    if len(args.mobility) > 1:
        raise SystemExit(
            "error: the fluid grid runs one mobility per study, got --mobility "
            + " ".join(str(m) for m in args.mobility)
        )
    if args.traffic_model is not None:
        raise SystemExit(
            "error: the fluid grid runs both traffic engines, got "
            f"--traffic-model {args.traffic_model}"
        )
    study = run_fluid_study(
        sizes=_parse_scale_sizes("hier", args.sizes),
        receivers=tuple(args.receivers),
        seed=args.seed,
        duration=args.duration,
        mobility=args.mobility[0],
        runner=runner,
        **(
            {"probe_interval": args.probe_interval}
            if args.probe_interval is not None
            else {}
        ),
    )
    return {"report": study}, [render_fluid_report(study)]


def _chaos_grid(args: argparse.Namespace, runner):
    from .chaos import render_chaos_report, run_chaos_sweep

    report = run_chaos_sweep(
        seed=args.seed,
        traffic_models=(_traffic(args)["traffic_model"],),
        probe_interval=args.probe_interval,
        runner=runner,
    )
    return {"report": report}, [render_chaos_report(report)]


#: ``sweep <grid>`` runs these through the campaign runner; the
#: ``compare``, ``timers`` and ``scaling`` commands run them uncached
GRIDS = {
    "compare": _compare_grid,
    "timers": _timers_grid,
    "scaling": _scaling_grid,
    "scale": _scale_grid,
    "fluid": _fluid_grid,
    "chaos": _chaos_grid,
}


def _grid_command(args: argparse.Namespace) -> None:
    """``compare``, ``timers``, ``scaling``: the grid of that name run
    uncached, under its own experiment name, without a campaign footer."""
    fields, sections = GRIDS[args.command](args, None)
    if args.json:
        _print_json({"experiment": args.command, **fields})
    else:
        print("\n\n".join(sections))
    if not fields.get("all_claims_hold", True):
        sys.exit(1)  # a §4.3 paper claim failed


def _sweep(args: argparse.Namespace) -> None:
    if min(args.receivers) < 1:
        raise SystemExit(
            f"error: --receivers must be >= 1, got {min(args.receivers)}"
        )
    if args.groups is not None and min(args.groups) < 1:
        raise SystemExit(f"error: --groups must be >= 1, got {min(args.groups)}")
    if min(args.mobility) < 0:
        raise SystemExit(
            f"error: --mobility must be >= 0, got {min(args.mobility)}"
        )
    if args.duration <= 0:
        raise SystemExit(
            f"error: --duration must be positive, got {args.duration}"
        )
    fields = _campaign(
        args,
        {"experiment": "sweep", "grid": args.grid},
        lambda runner, registry: GRIDS[args.grid](args, runner),
    )
    if not fields.get("all_claims_hold", True):
        sys.exit(1)  # a §4.3 paper claim failed


def _faults(args: argparse.Namespace) -> None:
    from .faults.experiments import (
        render_crash_table,
        render_fault_table,
        run_crash_study,
        run_fault_sweep,
    )
    from .faults.resilience import publish_resilience

    approaches = _approaches(args)

    def body(runner, registry):
        fields: Dict[str, Any] = {}
        sections, rows = [], []
        if args.scenario in ("loss", "both"):
            loss_rows = run_fault_sweep(
                loss_rates=tuple(args.loss),
                approaches=approaches,
                seed=args.seed,
                model=args.model,
                runner=runner,
            )
            fields["loss_rows"] = loss_rows
            rows += loss_rows
            sections.append(render_fault_table(loss_rows))
        if args.scenario in ("ha-crash", "both"):
            crash_rows = run_crash_study(
                approaches=approaches, seed=args.seed, runner=runner
            )
            fields["crash_rows"] = crash_rows
            rows += crash_rows
            sections.append(render_crash_table(crash_rows))
        publish_resilience(registry, rows)
        return fields, sections

    _campaign(args, {"experiment": "faults", "scenario": args.scenario}, body)


# ----------------------------------------------------------------------
# observability commands
# ----------------------------------------------------------------------

#: The canned trace scenario is the Figure 2 receiver move, whose
#: horizon covers both the join and the leave (bounded by T_MLI).
_TRACE_RUN = CANNED_RUNS["fig2"]
_TRACE_RECEIVER, _TRACE_NEW_LINK = _TRACE_RUN.move
_TRACE_MOVE_AT = _TRACE_RUN.move_at
_TRACE_OLD_LINK = "L4"


def _render_summary(summary: Dict[str, Any], source: str) -> str:
    lines = [f"trace summary — receiver move ({source})"]
    lines.append(f"  join delay:        {fmt_seconds(summary['join_delay'])}")
    lines.append(f"  leave delay:       {fmt_seconds(summary['leave_delay'])}")
    for key, label in (
        ("wasted_bytes_old_link", "wasted (old link)"),
        ("tunnel_overhead", "tunnel overhead"),
        ("mld_bytes", "MLD signaling"),
        ("pim_bytes", "PIM signaling"),
        ("mipv6_bytes", "MIPv6 signaling"),
    ):
        if key in summary:
            lines.append(f"  {label + ':':<19}{summary[key]} B")
    lines.append(
        f"  prunes/grafts/asserts since move: {summary['prunes']}"
        f"/{summary['grafts']}/{summary['asserts']}"
    )
    lines.append(f"  trace events:      {summary['events_total']}")
    return "\n".join(lines)


def _slicing_requested(args: argparse.Namespace) -> bool:
    return (
        args.txn is not None or args.since is not None or args.until is not None
    )


def _trace_slice(events, args: argparse.Namespace, source: str) -> None:
    """``--since/--until/--txn``: slice a trace to a time window (or to
    one transaction's window) and print or re-export it."""
    from types import SimpleNamespace

    from .obs.spans import build_spans, find_span

    since, until = args.since, args.until
    txn = None
    if args.txn is not None:
        roots = build_spans(SimpleNamespace(events=events))
        txn = find_span(roots, args.txn)
        if txn is None:
            known = [s.span_id for s in roots if s.kind == "handover"]
            raise SystemExit(
                f"error: span {args.txn!r} not found; handovers in this "
                f"trace: {', '.join(known) or '(none)'}"
            )
        since = txn.start if since is None else max(since, txn.start)
        until = txn.end if until is None else min(until, txn.end)
    sliced = [
        ev
        for ev in events
        if (since is None or ev.time >= since)
        and (until is None or ev.time <= until)
    ]
    window = {
        "since": since,
        "until": until,
        "txn": args.txn,
        "events": len(sliced),
        "events_total": len(events),
    }
    exported = None
    if args.export:
        meta: Dict[str, Any] = {"source": source, "slice": dict(window)}
        if txn is not None:
            meta["txn"] = {
                "span_id": txn.span_id,
                "kind": txn.kind,
                "name": txn.name,
                "node": txn.node,
            }
        count = export_run(
            args.export, SimpleNamespace(events=sliced), snapshots=(), meta=meta
        )
        exported = {"path": args.export, "events": count}
    if args.json:
        categories: Dict[str, int] = {}
        for ev in sliced:
            categories[ev.category] = categories.get(ev.category, 0) + 1
        payload = {"source": source, **window, "categories": categories}
        if exported:
            payload["exported"] = exported
        _print_json(payload)
        return
    label = f"txn {args.txn}" if args.txn else "time window"
    lo = "start" if since is None else f"{since:.6f}"
    hi = "end" if until is None else f"{until:.6f}"
    print(
        f"trace slice — {label} [{lo}, {hi}] "
        f"({len(sliced)}/{len(events)} events, {source})"
    )
    limit = 200
    for ev in sliced[:limit]:
        print(repr(ev))
    if len(sliced) > limit:
        print(f"... {len(sliced) - limit} more (use --export to keep them all)")
    if exported:
        print(f"exported {exported['events']} events to {exported['path']}")


def _trace(args: argparse.Namespace) -> None:
    if args.capacity is not None and args.capacity <= 0:
        raise SystemExit(f"error: --capacity must be positive, got {args.capacity}")
    if args.import_path:
        try:
            archive = import_run(args.import_path)
        except OSError as exc:
            raise SystemExit(f"error: cannot read trace file: {exc}")
        except ValueError as exc:
            raise SystemExit(f"error: invalid trace file: {exc}")
        if _slicing_requested(args):
            _trace_slice(archive.events, args, f"offline: {args.import_path}")
            return
        meta = archive.meta
        summary = summarize_mobility(
            archive,
            move_time=meta.get("move_time", _TRACE_MOVE_AT),
            receiver=meta.get("receiver", _TRACE_RECEIVER),
            old_link=meta.get("old_link", _TRACE_OLD_LINK),
            snapshots=archive.snapshots,
            group=meta.get("group"),
        )
        if args.json:
            _print_json({"source": args.import_path, "meta": meta, **summary})
        else:
            print(_render_summary(summary, f"offline: {args.import_path}"))
        return

    sc = PaperScenario(
        ScenarioConfig(seed=args.seed, approach=_TRACE_RUN.approach)
    )
    if args.capacity is not None:
        sc.net.tracer.set_capacity(args.capacity)
    registry = MetricsRegistry()
    TraceCollector(registry).attach(sc.net.tracer)
    sc.converge()
    before = sc.metrics.snapshot()
    _TRACE_RUN.play(sc)
    sc.finish()
    snapshots = [before, sc.metrics.snapshot()]

    if _slicing_requested(args):
        _trace_slice(list(sc.net.tracer.events), args, f"live run, seed {args.seed}")
        return

    summary = summarize_mobility(
        sc.net.tracer,
        move_time=_TRACE_MOVE_AT,
        receiver=_TRACE_RECEIVER,
        old_link=_TRACE_OLD_LINK,
        snapshots=snapshots,
        group=str(sc.group),
    )
    if args.export:
        count = export_run(
            args.export,
            sc.net.tracer,
            snapshots=snapshots,
            meta={
                "scenario": "fig2-receiver-move",
                "seed": args.seed,
                "move_time": _TRACE_MOVE_AT,
                "receiver": _TRACE_RECEIVER,
                "old_link": _TRACE_OLD_LINK,
                "new_link": _TRACE_NEW_LINK,
                "group": str(sc.group),
            },
        )
    if args.json:
        payload = {"source": "live", "seed": args.seed, **summary}
        if args.export:
            payload["exported"] = {"path": args.export, "events": count}
        _print_json(payload)
    else:
        print(_render_summary(summary, f"live run, seed {args.seed}"))
        if args.export:
            print(f"exported {count} events to {args.export}")
    if args.metrics:
        sc.metrics.publish(registry)
        print(registry.render_prometheus(), end="")


def _render_span_tree(span, indent: int = 0) -> str:
    pad = "  " * indent
    dur = "open" if span.end is None else fmt_seconds(span.end - span.start)
    attrs = " ".join(
        f"{k}={v}" for k, v in sorted(span.attrs.items()) if v is not None
    )
    lines = [
        f"{pad}{span.span_id:<24} {span.name:<24} "
        f"t={span.start:<11.6f} dur={dur:<8} {attrs}".rstrip()
    ]
    for child in span.children:
        lines.append(_render_span_tree(child, indent + 1))
    return "\n".join(lines)


def _spans(args: argparse.Namespace) -> None:
    """Phase-attributed handover analysis (see docs/OBSERVABILITY.md)."""
    from .analysis.phases import render_phase_table, run_span_breakdown
    from .obs.spans import SpanRecorder, find_span, write_chrome_trace

    approaches = _approaches(args)
    if args.export or args.handover:
        # drill-down mode: one live span-recorded receiver move
        approach = approaches[0]
        registry = MetricsRegistry()
        sc = PaperScenario(
            ScenarioConfig(
                seed=args.seed, approach=approach, trace_spans=False
            )
        )
        recorder = SpanRecorder(registry=registry, approach=approach.key).attach(
            sc.net.tracer
        )
        sc.converge()
        sc.move(_TRACE_RECEIVER, _TRACE_NEW_LINK, at=_TRACE_MOVE_AT)
        sc.run_until(_TRACE_MOVE_AT + 60.0)
        sc.finish()
        roots = recorder.finish()
        handovers = [s for s in roots if s.kind == "handover"]
        payload: Dict[str, Any] = {
            "experiment": "spans",
            "approach": approach.key,
            "seed": args.seed,
            "spans": len(roots),
            "handovers": [s.span_id for s in handovers],
        }
        out_lines = []
        if args.handover:
            if args.handover == "list":
                out_lines += [
                    _render_span_tree(s).splitlines()[0] for s in handovers
                ]
                payload["trees"] = [s.to_dict() for s in handovers]
            else:
                span = find_span(roots, args.handover)
                if span is None:
                    raise SystemExit(
                        f"error: span {args.handover!r} not found; handovers: "
                        f"{', '.join(s.span_id for s in handovers) or '(none)'}"
                    )
                out_lines.append(_render_span_tree(span))
                payload["trees"] = [span.to_dict()]
        if args.export:
            count = write_chrome_trace(
                args.export,
                roots,
                meta={"approach": approach.key, "seed": args.seed},
            )
            payload["exported"] = {"path": args.export, "trace_events": count}
            out_lines.append(
                f"wrote {count} trace events to {args.export} "
                "(load in chrome://tracing or ui.perfetto.dev)"
            )
        if args.json:
            _print_json(payload)
        else:
            print("\n".join(out_lines))
        if args.metrics:
            print(registry.render_prometheus(), end="")
        return

    def body(runner, registry):
        rows = run_span_breakdown(
            approaches=approaches,
            loss_rates=tuple(args.loss),
            seed=args.seed,
            runner=runner,
        )
        text = render_phase_table(rows)
        broken = [r["approach"] for r in rows if not r["equivalent"]]
        if broken:
            text += (
                "\nWARNING: span-derived numbers diverge from the event-level "
                f"computation for: {', '.join(broken)}"
            )
        return {"rows": rows}, [text]

    _campaign(args, {"experiment": "spans"}, body)


def _bench(args: argparse.Namespace) -> None:
    from .bench import main_bench

    if args.tolerance is not None and not 0.0 <= args.tolerance < 1.0:
        raise SystemExit(
            f"error: --tolerance must be in [0, 1), got {args.tolerance}"
        )
    if args.scale <= 0:
        raise SystemExit(f"error: --scale must be positive, got {args.scale}")
    code = main_bench(
        quick=args.quick,
        scale=args.scale,
        output=args.output,
        baseline=args.baseline,
        tolerance=args.tolerance,
        as_json=args.json,
    )
    if code != 0:
        sys.exit(code)


def _profile(args: argparse.Namespace) -> None:
    recipe = CANNED_RUNS[args.experiment]
    sc = PaperScenario(ScenarioConfig(seed=args.seed, approach=recipe.approach))
    profiler = KernelProfiler().install(sc.net.sim)
    recipe.play(sc)
    sc.finish()
    if args.json:
        _print_json(
            {
                "experiment": args.experiment,
                "seed": args.seed,
                "total_events": profiler.total_events,
                "total_time": profiler.total_time,
                "entries": [
                    {
                        "label": e.label,
                        "count": e.count,
                        "total_time": e.total_time,
                        "mean_time": e.mean_time,
                    }
                    for e in profiler.top(args.top)
                ],
            }
        )
        return
    print(profiler.report(top_n=args.top))


def _topo(args: argparse.Namespace) -> None:
    """Generate a topology, validate it, print its description."""
    spec: Dict[str, Any] = {"model": args.model}
    if args.model == "hier":
        spec.update(depth=args.depth, fanout=args.fanout, seed=args.seed)
    elif args.model == "fattree":
        spec.update(k=args.k, seed=args.seed)
    elif args.model == "waxman":
        spec.update(n=args.nodes, alpha=args.alpha, beta=args.beta,
                    seed=args.seed)
    # figure1 takes no parameters
    try:
        graph = topo_graph(spec)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    graph.validate()
    info = graph.describe()
    if args.json:
        _print_json({"experiment": "topo", **info})
        return
    print(f"model: {info['model']}")
    if info["params"]:
        params = ", ".join(f"{k}={v}" for k, v in sorted(info["params"].items()))
        print(f"params: {params}")
    print(
        f"routers: {info['routers']}  links: {info['links']}  "
        f"leaf links: {info['leaf_links']}  interfaces: {info['interfaces']}"
        + (f"  hosts: {info['hosts']}" if info["hosts"] else "")
    )
    deg = info["degree"]
    print(
        f"degree: min {deg['min']}, mean {deg['mean']:.2f}, max {deg['max']}"
    )
    print(
        f"connected: {'yes' if info['connected'] else 'NO'}  "
        f"diameter (est.): {info['diameter_estimate']}"
    )
    print(f"digest: {info['digest']}")


COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    **dict.fromkeys(_FIGURES, _figure),
    "table1": _table1,
    **dict.fromkeys(("compare", "timers", "scaling"), _grid_command),
    "sweep": _sweep,
    "faults": _faults,
    "report": _report,
    "trace": _trace,
    "spans": _spans,
    "profile": _profile,
    "bench": _bench,
    "topo": _topo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from 'Interoperation of Mobile "
        "IPv6 and PIM Dense Mode' (ICPP 2000).",
    )
    # flag groups shared through ``parents=``: each is declared once
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0,
                      help="scenario seed; campaign commands derive every "
                      "cell's seed from it (default: 0)")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of text")
    invariants = argparse.ArgumentParser(add_help=False)
    invariants.add_argument(
        "--check-invariants", action="store_true",
        help="attach the runtime protocol invariant oracles "
        "(repro.invariants) and fail on any violation; propagates to "
        "campaign worker processes (see docs/ROBUSTNESS.md)",
    )
    traffic = argparse.ArgumentParser(add_help=False)
    traffic.add_argument(
        "--traffic-model", choices=("packet", "fluid"), default="packet",
        help="traffic engine: per-packet events (exact, default) or "
        "fluid rate integration with sparse probes (scales to "
        "million-receiver runs; see docs/TRAFFIC.md)",
    )
    traffic.add_argument(
        "--probe-interval", type=float, default=None, metavar="SECONDS",
        help="fluid-mode probe cadence (default: 100 x packet interval)",
    )
    timer_grid = argparse.ArgumentParser(add_help=False)
    timer_grid.add_argument("--intervals", type=float, nargs="+",
                            default=[10.0, 25.0, 60.0, 125.0],
                            help="T_Query grid for the timers sweep")
    timer_grid.add_argument("--repeats", type=int, default=3,
                            help="seeds per timer point")
    campaign = argparse.ArgumentParser(add_help=False)
    campaign.add_argument("--jobs", type=int, default=1,
                          help="worker processes to shard cells across")
    campaign.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="cache completed cells here; re-runs only "
                          "execute changed cells")
    campaign.add_argument("--metrics", action="store_true",
                          help="also print the campaign's metrics "
                          "(Prometheus text)")
    campaign.add_argument("--timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="per-cell wall-clock budget; hung cells are "
                          "killed and retried (jobs >= 2)")
    campaign.add_argument("--retries", type=int, default=1,
                          help="extra attempts per failing cell before it is "
                          "quarantined (default: 1)")
    campaign.add_argument("--checkpoint", default=None, metavar="PATH",
                          help="append every executed cell to this JSONL "
                          "journal")
    campaign.add_argument("--resume", action="store_true",
                          help="replay completed cells from the --checkpoint "
                          "journal instead of re-running them")
    run = [seed, as_json, invariants]

    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    for name, help_text, parents in (
        ("fig1", "Figure 1: initial distribution tree", run + [traffic]),
        ("fig2", "Figure 2: mobile receiver, local membership", run + [traffic]),
        ("fig3", "Figure 3: mobile receiver via HA tunnel", run + [traffic]),
        ("fig4", "Figure 4: mobile sender via HA tunnel", run + [traffic]),
        ("table1", "Table 1: the four approaches", [as_json]),
        ("compare", "full §4.3 comparison with claim checks "
         "(the compare grid, uncached)", run + [traffic]),
        ("scaling", "HA load scaling sweeps (§4.3.2; the scaling grid, "
         "uncached)", run + [traffic]),
        ("timers", "§4.4 MLD timer sweep (the timers grid, uncached)",
         run + [timer_grid]),
    ):
        sub.add_parser(name, help=help_text, parents=parents)
    report = sub.add_parser("report", parents=[seed, invariants],
                            help="run everything, emit a Markdown report")
    report.add_argument("--output", "-o", default=None)
    sweep = sub.add_parser(
        "sweep", parents=run + [traffic, timer_grid, campaign],
        help="run an experiment grid through the parallel campaign engine "
        "(sharding + result cache; see docs/CAMPAIGNS.md)",
    )
    sweep.add_argument("grid", choices=tuple(GRIDS), nargs="?",
                       default="compare",
                       help="which experiment grid to run (default: compare; "
                       "'fluid' runs the EXP-S2 packet-vs-fluid study; "
                       "'chaos' runs the EXP-R3 nemesis/convergence study)")
    sweep.add_argument("--topo-model", choices=("hier", "fattree", "waxman"),
                       default="hier",
                       help="generator for the scale grid (default: hier)")
    sweep.add_argument("--sizes", nargs="+", default=None, metavar="SIZE",
                       help="scale-grid topology sizes: DEPTHxFANOUT for "
                       "hier (e.g. 3x10), k for fattree, node count for "
                       "waxman (default: the EXP-S1 size ladder)")
    sweep.add_argument("--receivers", type=int, nargs="+",
                       default=[100, 1000],
                       help="scale-grid mobile-receiver populations")
    sweep.add_argument("--groups", type=int, nargs="+", default=None,
                       help="scale-grid multicast group counts (default: "
                       "1 4 8; the fluid grid runs 1)")
    sweep.add_argument("--mobility", type=float, nargs="+", default=[0.0],
                       help="scale-grid mean handovers per receiver")
    sweep.add_argument("--duration", type=float, default=30.0,
                       help="scale-grid measurement window (sim seconds)")
    # unset unless given: the fluid grid runs both engines and rejects it
    sweep.set_defaults(traffic_model=None)
    faults = sub.add_parser(
        "faults", parents=run + [campaign],
        help="resilience under injected faults: loss sweeps and home-agent "
        "crashes through the campaign engine (see docs/FAULTS.md)",
    )
    faults.add_argument("--scenario", choices=("loss", "ha-crash", "both"),
                        default="loss",
                        help="which fault study to run (default: loss)")
    faults.add_argument("--loss", type=float, nargs="+",
                        default=[0.0, 0.01, 0.05],
                        help="mean loss rates for the wireless-loss sweep")
    faults.add_argument("--model", choices=("gilbert", "bernoulli"),
                        default="gilbert",
                        help="loss process on the wireless link")
    faults.add_argument("--approaches", nargs="+",
                        default=[a.key for a in ALL_APPROACHES],
                        metavar="KEY",
                        help="delivery approaches to compare "
                        f"(default: {' '.join(a.key for a in ALL_APPROACHES)})")
    topo = sub.add_parser(
        "topo", parents=[seed, as_json],
        help="generate and describe a seeded topology (deterministic "
        "digest; see docs/TOPOLOGIES.md)",
    )
    topo.add_argument("--model", choices=("hier", "fattree", "waxman",
                                          "figure1"),
                      default="hier",
                      help="topology generator (default: hier)")
    topo.add_argument("--depth", type=int, default=3,
                      help="hier: levels below the core (default: 3)")
    topo.add_argument("--fanout", type=int, default=4,
                      help="hier: children per router (default: 4)")
    topo.add_argument("--k", type=int, default=4,
                      help="fattree: arity k, even (default: 4)")
    topo.add_argument("--nodes", type=int, default=50,
                      help="waxman: router count (default: 50)")
    topo.add_argument("--alpha", type=float, default=0.9,
                      help="waxman: edge-probability scale (default: 0.9)")
    topo.add_argument("--beta", type=float, default=0.25,
                      help="waxman: distance decay (default: 0.25)")
    trace = sub.add_parser(
        "trace", parents=run,
        help="run the receiver-move scenario, export/analyze its JSONL trace",
    )
    trace.add_argument("--export", metavar="PATH", default=None,
                       help="persist the run (events + stats snapshots) as JSONL")
    trace.add_argument("--import", dest="import_path", metavar="PATH", default=None,
                       help="re-analyze a saved JSONL trace offline (no simulation)")
    trace.add_argument("--capacity", type=int, default=None,
                       help="bounded ring-buffer trace mode: keep newest N events")
    trace.add_argument("--since", type=float, default=None, metavar="T",
                       help="slice: keep only events at or after simulation "
                       "time T")
    trace.add_argument("--until", type=float, default=None, metavar="T",
                       help="slice: keep only events at or before simulation "
                       "time T")
    trace.add_argument("--txn", metavar="SPAN_ID", default=None,
                       help="slice to one transaction's window (a span id "
                       "from 'repro spans --handover list', e.g. "
                       "handover:R3:1); combines with --since/--until and "
                       "--export")
    trace.add_argument("--metrics", action="store_true",
                       help="also print the metrics registry (Prometheus text)")
    spans_p = sub.add_parser(
        "spans", parents=run + [campaign],
        help="causal handover spans: phase-attribution tables through the "
        "campaign engine, Chrome/Perfetto export, per-handover drill-down "
        "(see docs/OBSERVABILITY.md)",
    )
    spans_p.add_argument("--approaches", nargs="+",
                         default=[a.key for a in ALL_APPROACHES],
                         metavar="KEY",
                         help="delivery approaches to break down "
                         f"(default: {' '.join(a.key for a in ALL_APPROACHES)})")
    spans_p.add_argument("--loss", type=float, nargs="+", default=[0.0],
                         help="loss rates for the breakdown grid "
                         "(default: 0.0 — the plain §4.3 pipeline)")
    spans_p.add_argument("--export", metavar="PATH", default=None,
                         help="run the receiver-move scenario live and write "
                         "its span forest as Chrome trace-event JSON "
                         "(chrome://tracing / ui.perfetto.dev)")
    spans_p.add_argument("--handover", metavar="SPAN_ID", default=None,
                         help="drill into one handover: print its span tree "
                         "('list' enumerates handover span ids)")
    bench = sub.add_parser(
        "bench", parents=[as_json],
        help="kernel/campaign macro-benchmarks -> BENCH_KERNEL.json "
        "(see docs/PERFORMANCE.md)",
    )
    bench.add_argument("--quick", action="store_true",
                       help="CI smoke profile: quartered event counts, "
                       "campaign phase skipped")
    bench.add_argument("--output", "-o", default="BENCH_KERNEL.json",
                       metavar="PATH",
                       help="where to write the report "
                       "(default: BENCH_KERNEL.json)")
    bench.add_argument("--baseline", default=None, metavar="PATH",
                       help="compare against this committed report and exit "
                       "1 if any phase's events/sec regresses beyond the "
                       "tolerance")
    bench.add_argument("--tolerance", type=float, default=0.2,
                       help="allowed fractional events/sec regression "
                       "against --baseline (default: 0.2)")
    bench.add_argument("--scale", type=float, default=1.0,
                       help="multiply phase event counts (testing aid)")
    profile = sub.add_parser("profile", parents=run,
                             help="kernel hotspot profile of one experiment")
    profile.add_argument("experiment", choices=sorted(CANNED_RUNS), nargs="?",
                         default="fig2")
    profile.add_argument("--top", type=int, default=10,
                         help="number of hotspot labels to show")
    return parser


def main(argv=None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("experiments:", ", ".join(COMMANDS))
        return
    # range checks of the shared flag groups, once for every command
    # that takes them (a campaign would otherwise fail every cell)
    if "probe_interval" in args and args.probe_interval is not None and not (
        math.isfinite(args.probe_interval) and args.probe_interval > 0
    ):
        raise SystemExit(
            "error: --probe-interval must be a positive number, "
            f"got {args.probe_interval:g}"
        )
    if "repeats" in args and args.repeats < 1:
        raise SystemExit(f"error: --repeats must be >= 1, got {args.repeats}")
    if "check_invariants" in args and args.check_invariants:
        # Environment, not a parameter: worker processes inherit it, so
        # every PaperScenario — local or in a campaign shard —
        # self-attaches an escalating InvariantMonitor.
        from .invariants import ENV_FLAG

        os.environ[ENV_FLAG] = "1"
    from .invariants import InvariantViolationError

    try:
        COMMANDS[args.command](args)
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        sys.exit(3)
    except CampaignError as exc:
        print(f"campaign failed: {exc}", file=sys.stderr)
        sys.exit(1)
    except ValueError as exc:
        # parameter validation raised below argparse (e.g. a fluid
        # --probe-interval shorter than the packet interval)
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":  # pragma: no cover
    main()
