"""Fluid-engine behavior across a router crash/restart boundary.

The fluid engine's (S,G) view is rebuilt by sparse real probes; a
restarted router forgets its state and, before the restart-resync fix,
stayed dark for up to a full probe interval (100x the packet interval)
after every crash — delivery integrals underran packet mode by ~18 %
on a single 3 s crash.  These tests pin the byte-agreement contract
(docs/TRAFFIC.md: aggregates within 2 %) across the crash boundary and
prove the resync hook is load-bearing.
"""

import pytest

from repro.chaos.study import (
    chaos_mipv6_config,
    chaos_mld_config,
    chaos_pim_config,
)
from repro.faults import FaultInjector, FaultPlan, node_crash
from repro.net.packet import IPV6_HEADER_BYTES
from repro.net.topogen import build_network, topo_graph
from repro.traffic import make_traffic_model
from repro.traffic.fluid import FluidModel

INNER_BYTES = 1000 + IPV6_HEADER_BYTES  # add_cbr default payload + header


def _delivered_units(traffic_model: str) -> float:
    """Delivered datagram count for one run with a mid-flow crash of an
    on-tree aggregation router (r0001 down 12 s..15 s)."""
    graph = topo_graph({"model": "hier", "depth": 2, "fanout": 3})
    built = build_network(
        graph,
        seed=0,
        pim_config=chaos_pim_config(),
        mld_config=chaos_mld_config(),
        mipv6_config=chaos_mipv6_config(),
    )
    group = built.make_group(1)
    source = built.place_source("s000")
    population = built.place_receivers(6)
    net = built.net
    injector = FaultInjector(net, FaultPlan(node_crash(12.0, "r0001", duration=3.0)))
    traffic = make_traffic_model(traffic_model)
    traffic.attach(net)
    net.start()
    injector.arm()
    built.schedule_joins(
        population, group, start=1.0, spread=4.0, stream="topogen.joins.g0"
    )
    delivered = {"units": 0}
    net.tracer.add_listener(
        lambda ev: delivered.__setitem__("units", delivered["units"] + 1),
        categories=("mcast.deliver",),
    )
    flow = traffic.add_cbr(source, group, packet_interval=0.2, flow="flow-g0")
    flow.start(at=5.0)
    net.run(until=35.0)
    traffic.finish()
    if traffic_model == "fluid":
        return sum(traffic.delivered_bytes.values()) / INNER_BYTES
    return float(delivered["units"])


def test_fluid_matches_packet_across_crash_boundary():
    packet = _delivered_units("packet")
    fluid = _delivered_units("fluid")
    assert packet > 0
    assert fluid == pytest.approx(packet, rel=0.02)


def test_restart_resync_is_load_bearing(monkeypatch):
    """Disabling the restart resync must reopen the post-crash dark
    window — guards against the hook being silently disconnected."""
    packet = _delivered_units("packet")
    monkeypatch.setattr(
        FluidModel, "_resync_after_restart", lambda self: None
    )
    stale = _delivered_units("fluid")
    assert stale < packet * 0.95
