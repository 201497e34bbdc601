"""The paper's contribution: delivery strategies, scenarios, comparison."""

from .adaptive import AdaptiveStrategyController
from .comparison import (
    ComparisonReport,
    receiver_mobility_run,
    run_full_comparison,
    sender_mobility_run,
)
from .metrics import ScenarioMetrics, StatsSnapshot, per_hop_latency
from .fluidstudy import (
    DEFAULT_PROBE_INTERVAL,
    fluid_cell,
    render_fluid_report,
    run_fluid_study,
)
from .report import generate_report
from .scalestudy import (
    DEFAULT_SIZES,
    render_scale_report,
    run_scale_sweep,
    scale_cell,
)
from .scaling import (
    ha_load_groups_cell,
    ha_load_mobiles_cell,
    ha_load_rate_cell,
    render_scaling,
    run_ha_load_vs_groups,
    run_ha_load_vs_mobiles,
    run_ha_load_vs_rate,
)
from .scenario import PaperScenario, ScenarioConfig, build_paper_network
from .strategies import (
    ALL_APPROACHES,
    BIDIRECTIONAL_TUNNEL,
    LOCAL_MEMBERSHIP,
    TUNNEL_HA_TO_MH,
    TUNNEL_MH_TO_HA,
    Approach,
    approach_for,
    render_table1,
)
from .timer_optimization import (
    TimerSweepPoint,
    render_sweep,
    run_timer_sweep,
    timer_point_run,
)

__all__ = [
    "ALL_APPROACHES",
    "AdaptiveStrategyController",
    "Approach",
    "BIDIRECTIONAL_TUNNEL",
    "ComparisonReport",
    "DEFAULT_PROBE_INTERVAL",
    "DEFAULT_SIZES",
    "LOCAL_MEMBERSHIP",
    "PaperScenario",
    "ScenarioConfig",
    "ScenarioMetrics",
    "StatsSnapshot",
    "TUNNEL_HA_TO_MH",
    "TUNNEL_MH_TO_HA",
    "TimerSweepPoint",
    "approach_for",
    "build_paper_network",
    "fluid_cell",
    "generate_report",
    "ha_load_groups_cell",
    "ha_load_mobiles_cell",
    "ha_load_rate_cell",
    "per_hop_latency",
    "receiver_mobility_run",
    "render_fluid_report",
    "render_scale_report",
    "render_scaling",
    "render_sweep",
    "render_table1",
    "run_fluid_study",
    "run_full_comparison",
    "run_ha_load_vs_groups",
    "run_ha_load_vs_mobiles",
    "run_ha_load_vs_rate",
    "run_scale_sweep",
    "run_timer_sweep",
    "scale_cell",
    "sender_mobility_run",
    "timer_point_run",
]
