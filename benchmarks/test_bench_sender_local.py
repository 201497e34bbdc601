"""EXP-C6 — §4.2.2-A / §4.3.1: mobile sender with local sending.

Two moves of Sender S under the local-sending approach:

* to the off-tree Link 6 — PIM-DM interprets the care-of source as a
  brand-new sender: network-wide flood, a new source-rooted tree at
  every router, and the old (S,G) state lingering for the 210 s data
  timeout,
* to the on-tree Link 4 — during the movement-detection window the
  stale home source address arrives on an *outgoing* interface of
  Router D's entry, triggering the unwanted assert process.
"""

from repro.analysis import fmt_bytes, render_table, render_tree
from repro.core import LOCAL_MEMBERSHIP, PaperScenario, ScenarioConfig
from repro.net.topogen import ROUTER_LINKS

from bench_utils import once, save_report


def run_offtree():
    sc = PaperScenario(ScenarioConfig(seed=11, approach=LOCAL_MEMBERSHIP))
    sc.converge()
    before = sc.metrics.snapshot()
    sc.move("S", "L6", at=40.0)
    sc.run_until(100.0)
    mid = {
        "new_entries": sc.metrics.entries_created(
            source=sc.paper.host("S").care_of_address, since=40.0
        ),
        "flood_links": sc.metrics.flood_extent(
            sc.paper.host("S").care_of_address, sc.group, since=40.0
        ),
        "new_tree": sc.tree_for_source(sc.paper.host("S").care_of_address),
        "old_tree": sc.current_tree(),
        "delta": sc.metrics.snapshot().delta(before),
    }
    # run past the 210 s data timeout: the stale tree must evaporate
    sc.run_until(40.0 + 210.0 + 30.0)
    home = sc.paper.host("S").home_address
    mid["old_entries_expired"] = sc.net.tracer.count(
        "pim.state", event="entry-expired", source=str(home)
    )
    mid["old_entries_left"] = sum(
        1
        for r in sc.paper.routers.values()
        if r.pim.get_entry(home, sc.group) is not None
    )
    return sc, mid


def run_ontree():
    sc = PaperScenario(ScenarioConfig(seed=12, approach=LOCAL_MEMBERSHIP))
    sc.converge()
    sc.move("S", "L4", at=40.0)
    sc.run_until(44.0)
    return {
        "asserts": sc.metrics.assert_count(since=40.0),
        "erroneous_sends": sc.net.tracer.count(
            "mobility", event="erroneous-source-send", since=40.0
        ),
    }


def run():
    return run_offtree(), run_ontree()


def test_bench_sender_local(benchmark):
    (sc, off), on = once(benchmark, run)

    report = [
        render_tree(off["new_tree"], "L6", ROUTER_LINKS,
                    title="New source-rooted tree after S moved to Link 6 (CoA source)"),
        "",
        f"new (CoA, G) entries created: {off['new_entries']} (one per router)",
        f"links reached by the re-flood: {off['flood_links']}",
        f"PIM signaling since move: {fmt_bytes(off['delta'].total('pim'))}",
        f"old (S_home, G) entries expired after 210 s: {off['old_entries_expired']}; "
        f"still present: {off['old_entries_left']}",
        "",
        "move to the on-tree Link 4 (erroneous-source window, §4.3.1):",
        f"  datagrams sent with the stale home source: {on['erroneous_sends']}",
        f"  unwanted Assert messages triggered: {on['asserts']}",
    ]
    save_report("sender_local", "\n".join(report))

    assert off["new_entries"] == 5  # all five routers built new state
    assert len(off["flood_links"]) >= 4  # network-wide flood
    assert off["old_entries_expired"] == 5  # stale tree gone after 210 s
    assert off["old_entries_left"] == 0
    assert on["erroneous_sends"] > 0
    assert on["asserts"] >= 5  # the unwanted assert process
