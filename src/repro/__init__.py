"""repro — reproduction of "Interoperation of Mobile IPv6 and Protocol
Independent Multicast Dense Mode" (Bettstetter, Riedl, Geßler, ICPP 2000).

A discrete-event simulation of an IPv6 network running PIM-DM for
multicast routing, MLD for membership discovery, and Mobile IPv6 for
host mobility, plus the paper's four multicast delivery approaches for
mobile hosts and the quantitative version of its §4.3 comparison and
§4.4 MLD timer optimization.

Quickstart::

    from repro import PaperScenario, ScenarioConfig, LOCAL_MEMBERSHIP

    sc = PaperScenario(ScenarioConfig(approach=LOCAL_MEMBERSHIP, seed=1))
    sc.converge()                      # Figure 1 tree is up
    sc.move("R3", "L6", at=40.0)       # Figure 2 handoff
    sc.run_until(120.0)
    print(sc.current_tree())
    print(sc.join_delay("R3", 40.0))

Package map (see DESIGN.md for the full inventory):

=================  ===================================================
``repro.sim``      discrete-event kernel, timers, RNG, tracing
``repro.net``      IPv6 addressing/packets, links, nodes, routing
``repro.mld``      Multicast Listener Discovery (RFC 2710)
``repro.pimdm``    PIM Dense Mode (draft-ietf-pim-v2-dm-03)
``repro.mipv6``    Mobile IPv6 (draft-ietf-mobileip-ipv6-10) + the
                   paper's Multicast Group List Sub-Option (Figure 5)
``repro.core``     the four approaches, Figure 1 scenarios, metrics,
                   §4.3 comparison, §4.4 timer sweep
``repro.mobility`` movement models
``repro.traffic``  traffic engines, sources and receiver apps
``repro.analysis`` closed-form delay models, tables, tree rendering
=================  ===================================================
"""

from .core import (
    ALL_APPROACHES,
    BIDIRECTIONAL_TUNNEL,
    LOCAL_MEMBERSHIP,
    TUNNEL_HA_TO_MH,
    TUNNEL_MH_TO_HA,
    Approach,
    PaperScenario,
    ScenarioConfig,
    approach_for,
    build_paper_network,
    render_table1,
    run_full_comparison,
    run_timer_sweep,
)
from .mipv6 import DeliveryMode, HomeAgent, MobileIpv6Config, MobileNode
from .mld import MldConfig
from .net import Address, Network, Prefix, make_multicast_group
from .pimdm import PimDmConfig

__version__ = "1.0.0"

__all__ = [
    "ALL_APPROACHES",
    "Address",
    "Approach",
    "BIDIRECTIONAL_TUNNEL",
    "DeliveryMode",
    "HomeAgent",
    "LOCAL_MEMBERSHIP",
    "MldConfig",
    "MobileIpv6Config",
    "MobileNode",
    "Network",
    "PaperScenario",
    "PimDmConfig",
    "Prefix",
    "ScenarioConfig",
    "TUNNEL_HA_TO_MH",
    "TUNNEL_MH_TO_HA",
    "approach_for",
    "build_paper_network",
    "make_multicast_group",
    "render_table1",
    "run_full_comparison",
    "run_timer_sweep",
    "__version__",
]
