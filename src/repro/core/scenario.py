"""Scenario harness on the paper's Figure 1 network.

:func:`build_paper_network` is the one Figure 1 builder: it
instantiates :func:`repro.net.topogen.figure1_graph` with the protocol
configs and the delivery approach of a run.  :class:`PaperScenario`
wires that network with receiver instrumentation and a CBR source at
Sender S, provides the canned phases every experiment shares (boot,
application joins, traffic start, tree convergence), and exposes the
moves the paper analyzes (Receiver 3 to Link 6 / Link 1, Sender S to
Link 6 / Link 4, ...).

Timeline convention (defaults):

=========  ===========================================================
t = 0      protocol boot: PIM Hellos, MLD startup queries
t = 1      application joins (unsolicited Reports announce members)
t = 20     Sender S starts its CBR flow; flood-and-prune converges
t = 30     ``converge()`` returns; experiments schedule moves after
=========  ===========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..mipv6 import DeliveryMode, MobileIpv6Config
from ..mld import MldConfig
from ..net import Address, make_multicast_group
from ..net.topogen import GeneratedTopology, build_network, figure1_graph
from ..pimdm import PimDmConfig
from ..traffic import ReceiverApp, make_traffic_model
from .metrics import ScenarioMetrics
from .strategies import LOCAL_MEMBERSHIP, Approach

__all__ = ["ScenarioConfig", "PaperScenario", "build_paper_network"]

#: The receivers every Figure run instruments.
RECEIVERS = ("R1", "R2", "R3")


def build_paper_network(
    seed: int = 0,
    mld_config: Optional[MldConfig] = None,
    pim_config: Optional[PimDmConfig] = None,
    mipv6_config: Optional[MobileIpv6Config] = None,
    recv_mode: DeliveryMode = DeliveryMode.LOCAL,
    send_mode: DeliveryMode = DeliveryMode.LOCAL,
    link_delay: float = 0.5e-3,
    link_bandwidth_bps: float = 100e6,
) -> GeneratedTopology:
    """Construct the Figure 1 network with all protocol engines wired up.

    ``recv_mode``/``send_mode`` select the multicast delivery approach
    every mobile host will use while away from home (Table 1 axes);
    hosts added later with :meth:`GeneratedTopology.add_host` use the
    same approach and configs.
    """
    return build_network(
        figure1_graph(link_delay, link_bandwidth_bps),
        seed=seed,
        pim_config=pim_config,
        mld_config=mld_config,
        mipv6_config=mipv6_config,
        recv_mode=recv_mode,
        send_mode=send_mode,
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs shared by all Figure 1 experiments."""

    approach: Approach = LOCAL_MEMBERSHIP
    seed: int = 0
    mld: Optional[MldConfig] = None
    pim: Optional[PimDmConfig] = None
    mipv6: Optional[MobileIpv6Config] = None
    #: CBR source parameters (20 pkt/s of 1000-byte payloads ≈ 160 kbit/s).
    packet_interval: float = 0.05
    payload_bytes: int = 1000
    #: traffic engine: "packet" (exact, per-datagram events — the
    #: default) or "fluid" (analytic rate integration between protocol
    #: events, sparse probes; see ``repro.traffic`` / docs/TRAFFIC.md).
    traffic_model: str = "packet"
    #: fluid-mode probe cadence; None means 100 x packet_interval.
    probe_interval: Optional[float] = None
    join_time: float = 1.0
    traffic_start: float = 20.0
    converge_until: float = 30.0
    link_delay: float = 0.5e-3
    link_bandwidth_bps: float = 100e6
    #: attach :mod:`repro.invariants` oracles in escalate mode.  None
    #: defers to the ``REPRO_CHECK_INVARIANTS`` environment variable
    #: (the ``--check-invariants`` CLI flag), which worker processes
    #: inherit — so campaign cells are audited too.
    check_invariants: Optional[bool] = None
    #: attach a :class:`repro.obs.spans.SpanRecorder` reconstructing
    #: handover/graft/assert transactions live from the trace stream.
    #: None defers to ``REPRO_TRACE_SPANS`` (same worker-inheritance
    #: contract as ``check_invariants``); the recorder subscribes to
    #: control-plane categories only and, when disabled, no listener
    #: exists at all — the record hot path is untouched.
    trace_spans: Optional[bool] = None


class PaperScenario:
    """One simulation run over the Figure 1 network."""

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        self.config = config or ScenarioConfig()
        cfg = self.config
        self.paper = build_paper_network(
            seed=cfg.seed,
            mld_config=cfg.mld,
            pim_config=cfg.pim,
            mipv6_config=cfg.mipv6,
            recv_mode=cfg.approach.recv_mode,
            send_mode=cfg.approach.send_mode,
            link_delay=cfg.link_delay,
            link_bandwidth_bps=cfg.link_bandwidth_bps,
        )
        self.net = self.paper.net
        self.group: Address = make_multicast_group(1)
        self.traffic = make_traffic_model(
            cfg.traffic_model, probe_interval=cfg.probe_interval
        )
        self.traffic.attach(self.net)
        self.metrics = ScenarioMetrics(self.net)
        self.apps: Dict[str, ReceiverApp] = {
            name: ReceiverApp(self.paper.hosts[name]) for name in RECEIVERS
        }
        self.source = self.traffic.add_cbr(
            self.paper.hosts["S"],
            self.group,
            packet_interval=cfg.packet_interval,
            payload_bytes=cfg.payload_bytes,
            flow="S-flow",
        )
        self._converged = False
        self.invariants = None
        from ..invariants import InvariantMonitor, checking_enabled

        if cfg.check_invariants or (
            cfg.check_invariants is None and checking_enabled()
        ):
            self.invariants = InvariantMonitor(self.net, escalate=True).attach()
        self.spans = None
        from ..obs.spans import SpanRecorder, spans_enabled

        if cfg.trace_spans or (cfg.trace_spans is None and spans_enabled()):
            self.spans = SpanRecorder(approach=cfg.approach.key).attach(
                self.net.tracer
            )

    # ------------------------------------------------------------------
    # canned phases
    # ------------------------------------------------------------------
    def converge(self) -> None:
        """Boot protocols, join receivers, start traffic, build the tree."""
        if self._converged:
            return
        self._converged = True
        cfg = self.config
        self.net.start()
        for name in RECEIVERS:
            host = self.paper.hosts[name]
            self.net.sim.schedule_at(
                cfg.join_time, host.join_group, self.group, label=f"{name}.join"
            )
        self.source.start(at=cfg.traffic_start)
        self.net.run(until=cfg.converge_until)

    def run_until(self, time: float) -> None:
        self.net.run(until=time)

    def finish(self) -> None:
        """Close open spans and run the invariant liveness sweeps;
        raises on any invariant breach.

        No-op when neither a span recorder nor a monitor is attached,
        so every experiment can call it unconditionally at the end of
        its run.  Spans close at the last *event* time (not ``now``) so
        the live tree equals an offline replay of the same trace.
        """
        self.traffic.finish()
        if self.spans is not None:
            self.spans.finish()
        if self.invariants is not None:
            self.invariants.check()

    def run_for(self, duration: float) -> None:
        self.net.run(until=self.net.now + duration)

    @property
    def now(self) -> float:
        return self.net.now

    # ------------------------------------------------------------------
    # moves
    # ------------------------------------------------------------------
    def move(self, host_name: str, link_name: str, at: Optional[float] = None) -> float:
        """Schedule (or perform) a host move; returns the move time."""
        host = self.paper.hosts[host_name]
        link = self.net.link(link_name)
        when = at if at is not None else self.net.now
        if when <= self.net.now:
            host.move_to(link)
            return self.net.now
        self.net.sim.schedule_at(when, host.move_to, link, label=f"{host_name}.move")
        return when

    # ------------------------------------------------------------------
    # common result probes
    # ------------------------------------------------------------------
    def current_tree(self) -> Dict[str, list]:
        """Forwarding links per router for the sender's original flow."""
        return self.paper.tree_links(self.paper.hosts["S"].home_address, self.group)

    def tree_for_source(self, source: Address) -> Dict[str, list]:
        return self.paper.tree_links(source, self.group)

    def join_delay(self, receiver: str, move_time: float) -> Optional[float]:
        return self.apps[receiver].join_delay(move_time)

    def leave_delay(self, link_name: str, move_time: float) -> Optional[float]:
        return self.metrics.leave_delay(link_name, self.group, move_time)
