"""The installed fluid rate table against a reference planner.

``FluidModel`` reads each router's oif list from the cache
``PimDmEngine.outgoing_ifaces`` keeps, walks each tree with one
``sg_key``, and keeps its installed table whenever a recomputation
rebuilds an equal one.  :class:`_ReferencePlanner` is the planner as it
was before those changes: the same walk, written out in full, with the
live uncached oif rule (:func:`_reference_oifs`) and counters
accumulated per ``(obj, kind, key)`` slot.

After every ``fluid.recompute`` event the installed table must equal
the one the reference builds from the live state at that moment, float
for float: both walk the tree in the same order.  A stale oif cache, or
a kept table that no longer describes the network, shows up as a
difference.
"""

from __future__ import annotations

from collections import defaultdict, deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ALL_APPROACHES,
    LOCAL_MEMBERSHIP,
    PaperScenario,
    ScenarioConfig,
)
from repro.core.fluidstudy import fluid_cell
from repro.core.goldens import CANNED_RUNS
from repro.core.scalestudy import scale_cell
from repro.faults import FaultInjector, FaultPlan, link_down, loss_burst, node_crash
from repro.mipv6.config import DeliveryMode
from repro.mipv6.mobile_node import MobileNode
from repro.net.addressing import Address
from repro.net.packet import IPV6_HEADER_BYTES

_MAX_HOPS = 64


# ----------------------------------------------------------------------
# the reference planner
# ----------------------------------------------------------------------
def _reference_oifs(pim, entry):
    """The PIM-DM oif rule, evaluated live on every call."""
    result = []
    for iface in pim.node.interfaces:
        if not iface.attached or iface is entry.upstream_iface:
            continue
        ds = entry.downstream.get(iface.uid)
        if ds is not None and ds.assert_loser:
            continue
        if pim.mld is not None and pim.mld.has_members(iface, entry.group):
            result.append(iface)
            continue
        if pim.has_pim_neighbors(iface) and not (ds is not None and ds.pruned):
            result.append(iface)
    return result


class _ReferencePlan:
    def __init__(self):
        self.links = {}
        self.deliveries = defaultdict(float)
        self.losses = defaultdict(float)
        self._counters = {}

    def charge(self, link_name, category, brate, prate):
        cats = self.links.setdefault(link_name, {})
        prev = cats.get(category)
        cats[category] = (brate, prate) if prev is None else (
            prev[0] + brate, prev[1] + prate
        )

    def add_counter(self, kind, obj, key, rate):
        if rate <= 0.0:
            return
        slot = self._counters.get((id(obj), kind, key))
        if slot is None:
            self._counters[(id(obj), kind, key)] = [kind, obj, key, rate]
        else:
            slot[3] += rate

    def table(self):
        counters = {}
        for kind, obj, key, rate in self._counters.values():
            counters.setdefault((kind, key), {})[obj] = rate
        return self.links, counters, dict(self.deliveries), dict(self.losses)


class _ReferencePlanner:
    """Builds the rate table of ``model``'s emitting flows afresh."""

    def __init__(self, model):
        self.model = model

    def table(self):
        plan = _ReferencePlan()
        for src in self.model.flows:
            if src.emitting:
                self._plan_flow(src, plan)
        return plan.table()

    def _plan_flow(self, src, plan):
        node = src.node
        pkt_rate = 1.0 / src.packet_interval
        brate = (src.payload_bytes + IPV6_HEADER_BYTES) * pkt_rate
        lrate = max(pkt_rate - 1.0 / src.probe_interval, 0.0)
        if not isinstance(node, MobileNode):
            iface = next((i for i in node.interfaces if i.attached), None)
            if iface is None:
                plan.losses["handoff"] += brate
                return
            self._plan_tree(node.primary_address(), src.group, iface.link, node,
                            brate, pkt_rate, lrate, plan)
            return
        if not node.attached:
            plan.losses["handoff"] += brate
            plan.add_counter("attr", node, "handoff_losses", lrate)
            return
        link = node.iface.link
        if node.at_home:
            source = node.home_address
        elif node.care_of_address is None:
            source = node._active_source
        elif node.send_mode is DeliveryMode.LOCAL:
            source = node.care_of_address
        else:
            self._plan_reverse_tunnel(src, node, brate, pkt_rate, lrate, plan)
            return
        self._plan_tree(source, src.group, link, node, brate, pkt_rate, lrate, plan)

    def _plan_reverse_tunnel(self, src, node, brate, prate, lrate, plan):
        plan.add_counter("load", node, "encapsulations", lrate)
        endpoint, factor = self._plan_unicast_path(
            node, node.home_agent_address, brate, prate, lrate, plan
        )
        if endpoint is None or factor <= 0.0:
            return
        plan.add_counter("attr", endpoint, "reverse_tunneled", lrate * factor)
        home_iface = getattr(endpoint, "home_iface_for", lambda _a: None)(
            node.home_address
        )
        if home_iface is None or home_iface.link is None:
            return
        b, p, l = brate * factor, prate * factor, lrate * factor
        queue = deque()
        self._router_receive(endpoint, home_iface, node.home_address, src.group,
                             b, p, l, _MAX_HOPS, queue, plan)
        queue.append((home_iface.link, endpoint, node.home_address, src.group,
                      b, p, l, _MAX_HOPS))
        self._drain_tree(queue, plan)

    def _plan_tree(self, source, group, first_link, sender, brate, prate, lrate, plan):
        queue = deque([(first_link, sender, Address(source), Address(group),
                        brate, prate, lrate, _MAX_HOPS)])
        self._drain_tree(queue, plan)

    def _drain_tree(self, queue, plan):
        while queue:
            link, sender, source, group, b, p, l, hops = queue.popleft()
            if link is None or hops <= 0:
                continue
            if not link.up:
                plan.losses["link-down"] += b
                continue
            plan.charge(link.name, "mcast_data", b, p)
            keep = 1.0 - link.loss_rate
            if keep < 1.0:
                plan.losses["link-loss"] += b * (1.0 - keep)
            rb, rp, rl = b * keep, p * keep, l * keep
            for iface in link.interfaces:
                node = iface.node
                if node is sender or getattr(node, "crashed", False):
                    continue
                plan.add_counter("load", node, "packets_processed", rl)
                if node.is_router:
                    self._router_receive(node, iface, source, group,
                                         rb, rp, rl, hops - 1, queue, plan)
                elif group in getattr(node, "joined_groups", ()):
                    plan.deliveries[node.name] += rb

    def _router_receive(self, router, iface, source, group, b, p, l, hops, queue, plan):
        pim = getattr(router, "pim", None)
        if pim is None:
            return
        entry = pim.get_entry(source, group)
        if entry is None or iface is not entry.upstream_iface:
            return
        outs = _reference_oifs(pim, entry)
        if outs and hops > 0:
            plan.add_counter("load", router, "packets_forwarded", l * len(outs))
            for oif in outs:
                if oif.link is not None:
                    queue.append((oif.link, router, source, group, b, p, l, hops))
        if group in pim.node_groups:
            self._plan_ha_relay(router, group, b, p, l, plan)

    def _plan_ha_relay(self, router, group, b, p, l, plan):
        cache = getattr(router, "binding_cache", None)
        if cache is None:
            return
        for entry in cache.subscribers_of(group):
            plan.add_counter("load", router, "encapsulations", l)
            plan.add_counter("attr", router, "tunneled_to_mobiles", l)
            endpoint, factor = self._plan_unicast_path(
                router, entry.care_of_address, b, p, l, plan
            )
            if endpoint is not None and factor > 0.0:
                plan.add_counter("load", endpoint, "decapsulations", l * factor)
                plan.deliveries[endpoint.name] += b * factor

    def _plan_unicast_path(self, from_node, dst, b, p, l, plan):
        """Tunneled unicast walk, as ``route_and_send`` forwards."""
        dst = Address(dst)
        node = from_node
        factor = 1.0
        for _hop in range(_MAX_HOPS):
            if getattr(node, "crashed", False):
                plan.losses["node-crashed"] += b * factor
                return None, 0.0
            link = target = None
            for iface in node.interfaces:
                if iface.link is not None and iface.link.prefix.contains(dst):
                    link = iface.link
                    target = link.resolve(dst)
                    break
            if link is None:
                route = node.routing.lookup(dst)
                if route is not None and route.iface.link is not None:
                    link = route.iface.link
                    target = link.resolve(
                        route.next_hop if route.next_hop is not None else dst
                    )
                elif not node.is_router:
                    link, target = self.model._default_gateway(node)
            if link is None:
                plan.losses["no-route"] += b * factor
                return None, 0.0
            if not link.up:
                plan.losses["link-down"] += b * factor
                return None, 0.0
            if target is None:
                plan.losses["nd-failure"] += b * factor
                return None, 0.0
            plan.charge(link.name, "mcast_data", b * factor, p * factor)
            plan.charge(link.name, "tunnel_overhead",
                        IPV6_HEADER_BYTES * p * factor, 0.0)
            factor *= 1.0 - link.loss_rate
            nxt = target.node
            if getattr(nxt, "crashed", False):
                return None, 0.0
            plan.add_counter("load", nxt, "packets_processed", l * factor)
            if nxt.owns_address(dst) or nxt.intercepts(dst):
                return nxt, factor
            if not nxt.is_router:
                return None, 0.0
            plan.add_counter("load", nxt, "packets_forwarded", l * factor)
            node = nxt
        return None, 0.0


# ----------------------------------------------------------------------
# the check
# ----------------------------------------------------------------------
def _installed(model):
    return (
        model._link_rates,
        model._counter_rates,
        model._delivery_rates,
        model._loss_rates,
    )


class _TableChecker:
    """Compares the installed table with the reference after every
    ``fluid.recompute`` event of ``model``."""

    PARTS = ("links", "counters", "deliveries", "losses")

    def __init__(self, model):
        self.reference = _ReferencePlanner(model)
        self.checks = 0
        self.changed = 0
        self.mismatches = []
        recompute = model._recompute_event

        def checked():
            before = _installed(model)
            recompute()
            installed = _installed(model)
            self.checks += 1
            self.changed += installed != before
            expected = self.reference.table()
            for part, got, want in zip(self.PARTS, installed, expected):
                if got != want:
                    self.mismatches.append((model.net.sim.now, part, got, want))

        model._recompute_event = checked

    def assert_clean(self):
        assert self.checks > 0, "no recompute event ran"
        assert self.changed > 0, "no recompute event changed the table"
        assert not self.mismatches, self.mismatches[:3]


def _fluid_scenario(approach, **kw):
    sc = PaperScenario(
        ScenarioConfig(seed=0, approach=approach, traffic_model="fluid", **kw)
    )
    return sc, _TableChecker(sc.traffic)


@pytest.mark.parametrize("approach", ALL_APPROACHES, ids=[a.key for a in ALL_APPROACHES])
@pytest.mark.parametrize("fig", ["fig2", "fig3", "fig4"])
def test_canned_figures(fig, approach):
    """The Figure 2-4 runs, each under every delivery approach."""
    sc, checker = _fluid_scenario(approach)
    CANNED_RUNS[fig].play(sc)
    sc.finish()
    checker.assert_clean()


FAULT_PLANS = {
    # a lossy on-tree link during the handover
    "loss": loss_burst(45.0, "L3", 0.2, duration=20.0),
    # the tree's trunk goes down and comes back
    "link-down": link_down(50.0, "L2", duration=10.0),
    # the assert winner C stays down past the Hello holdtime, so its
    # neighbors expire it, and relearn it as a new neighbor on restart
    "router-crash": node_crash(45.0, "C", duration=120.0),
}


@pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
def test_fault_plans(plan):
    sc, checker = _fluid_scenario(LOCAL_MEMBERSHIP)
    FaultInjector(sc.net, FaultPlan(FAULT_PLANS[plan])).arm()
    sc.converge()
    sc.move("R3", "L6", at=40.0)
    sc.run_until(200.0)
    sc.finish()
    checker.assert_clean()


def _spread(times, min_gap=5.0):
    out = []
    for t in sorted(times):
        if not out or t - out[-1] >= min_gap:
            out.append(t)
    return out


# the schedules of test_fluid_equivalence.TestRandomSchedules
@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    join_time=st.floats(min_value=0.5, max_value=5.0),
    move_times=st.lists(st.floats(min_value=35.0, max_value=85.0), max_size=3),
    move_links=st.lists(
        st.sampled_from(("L1", "L2", "L4", "L6")), min_size=3, max_size=3
    ),
    loss=st.one_of(st.none(), st.floats(min_value=0.02, max_value=0.2)),
)
def test_random_schedules(join_time, move_times, move_links, loss):
    sc, checker = _fluid_scenario(LOCAL_MEMBERSHIP, join_time=join_time)
    sc.converge()
    for when, link in zip(_spread(move_times), move_links):
        sc.move("R3", link, at=when)
    if loss is not None:
        sc.net.sim.schedule_at(
            50.0,
            lambda: setattr(sc.paper.link("L2"), "loss_rate", loss),
            label="fault.loss",
        )
    sc.run_until(110.0)
    sc.finish()
    checker.assert_clean()


# ----------------------------------------------------------------------
# generated topologies, built as the EXP-S2 runner builds them
# ----------------------------------------------------------------------
def _cell_with(monkeypatch, wrap, cell=fluid_cell, **kw):
    """Run a fluid ``cell`` with ``wrap(model)`` applied to its traffic
    model before the model attaches; returns the result and the model."""
    import repro.traffic as traffic

    models = []
    make = traffic.make_traffic_model

    def wrapped(name, **model_kw):
        model = make(name, **model_kw)
        wrap(model)
        models.append(model)
        return model

    monkeypatch.setattr(traffic, "make_traffic_model", wrapped)
    result = cell(traffic_model="fluid", **kw)
    (model,) = models
    return result, model


def _after_attach(model, hook):
    """Run ``hook(net)`` once ``model`` has attached to its network."""
    attach = model.attach

    def attach_then(net):
        attach(net)
        hook(net)

    model.attach = attach_then


#: a 13-router hierarchy: LAN ``core`` joins r0000-r0002, each of which
#: heads a trunk LAN (d0000-d0002) of three leaf routers; the sources
#: sit on leaves d0003 and d0004, so both flows cross d0000 and core
SMALL_CELL = dict(
    model_params={"depth": 2, "fanout": 3},
    receivers=24,
    groups=2,
    warmup=10.0,
    duration=20.0,
    packet_interval=0.05,
    probe_interval=10.0,
)

GENERATED_CASES = {
    "two-groups": (fluid_cell, dict(mobility=0.0), None, None),
    "mobile": (fluid_cell, dict(mobility=1.0), None, None),
    # a trunk both flows cross goes down and comes back
    "trunk-down": (
        fluid_cell,
        dict(mobility=1.0),
        link_down(14.0, "d0000", duration=6.0),
        "d0000",
    ),
    # the router heading trunk d0001 crashes and restarts; the trunk
    # rejoins the tree once the router has heard its downstream
    # neighbors' Hellos again (30 s period)
    "router-crash": (
        fluid_cell,
        dict(mobility=1.0, duration=50.0),
        node_crash(13.0, "r0001", duration=8.0),
        "d0001",
    ),
    # the EXP-S1 runner starts traffic halfway through the join phase,
    # so the walks grow while receivers join links they already reach
    "joins-during-traffic": (scale_cell, dict(mobility=1.0), None, None),
}


@pytest.mark.parametrize("case", sorted(GENERATED_CASES))
def test_generated_cells(monkeypatch, case):
    cell, overrides, plan, cut = GENERATED_CASES[case]
    checkers, carried = [], []

    def check(model):
        checkers.append(_TableChecker(model))
        checked = model._recompute_event

        def recompute():
            checked()
            carried.append((model.net.sim.now, cut in model._link_rates))

        model._recompute_event = recompute
        if plan:
            _after_attach(model, lambda net: FaultInjector(net, FaultPlan(plan)).arm())

    result, _model = _cell_with(
        monkeypatch, check, cell, **{**SMALL_CELL, **overrides}
    )
    checkers[0].assert_clean()
    assert result["traffic"]["flows"] == 2
    assert (result["moves"] > 0) == (overrides["mobility"] > 0)
    if plan:
        start, end = plan[0].at, plan[-1].at
        during = [on for t, on in carried if start <= t < end]
        after = [on for t, on in carried if t >= end]
        assert during and not any(during), "the fault left the link on the tree"
        assert any(after), "the link never rejoined the tree"


def test_generated_cell_membership_through_mld_alone(monkeypatch):
    """A receiver leaves, then rejoins, through MLD alone, as a host
    without Mobile IPv6 would, while another member of its group is on
    its leaf link.  The leaf router's membership does not change, so
    only the receiver's quiet ``leave``/``join`` events (which schedule
    no recomputation) say that the link's visit changed; the other
    receivers' handovers recompute the table meanwhile."""
    checkers, picked = [], []

    def leave_then_rejoin(model):
        group = model.flows[0].group
        members = {}
        for node in model.net.nodes.values():
            if group in getattr(node, "joined_groups", ()) and node.interfaces:
                link = node.interfaces[0].link
                members.setdefault(link.name, []).append(node)
        shared = sorted(name for name, hosts in members.items() if len(hosts) > 1)
        host = min(members[shared[0]], key=lambda node: node.name)
        picked.append(host.name)
        host.mld.leave(group)
        model.net.sim.schedule(6.0, host.mld.join, group, label="test.mld-join")

    def check(model):
        checkers.append(_TableChecker(model))
        _after_attach(
            model,
            lambda net: net.sim.schedule_at(
                14.0, leave_then_rejoin, model, label="test.mld-leave"
            ),
        )

    _cell_with(monkeypatch, check, **{**SMALL_CELL, "mobility": 1.0})
    assert picked
    checkers[0].assert_clean()


def _link_visits(root):
    count, pending = 0, list(root.children)
    for visit in pending:
        count += 1
        pending.extend(visit.children)
    return count


def test_churn_cell_evaluates_a_fraction_of_full_walks(monkeypatch):
    """The benchmark's ``churn-fluid`` job: 155 routers, 100 receivers
    moving once each.  A full walk per recomputation would evaluate
    every link visit of every emitting flow's tree; the cached walk
    re-evaluates only the visits its events touched."""
    walked = []

    def count_full_walks(model):
        recompute = model._recompute_event

        def counted():
            recompute()
            walked.append(sum(_link_visits(r) for r in model._walks.values()))

        model._recompute_event = counted

    result, model = _cell_with(
        monkeypatch,
        count_full_walks,
        model_params={"depth": 3, "fanout": 5},
        receivers=100,
        mobility=1.0,
        warmup=10,
        duration=12,
        packet_interval=0.05,
        payload_bytes=1000,
        probe_interval=10.0,
    )
    assert result["moves"] == 100
    full = sum(walked)
    assert len(walked) == result["traffic"]["recomputes"]
    assert 0 < model.visits_evaluated < full / 10, (model.visits_evaluated, full)
