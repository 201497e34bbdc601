"""Per-event cost guard for the frame path, counted in calls.

Wall-time gates move with the load of the host they run on; the number
of Python and builtin calls that ``cProfile`` counts inside
``Network.run``, divided by the events dispatched there, does not: at a
given seed it repeats exactly.  Frame deliveries are about nine in ten
of the events of these packet-mode EXP-S2 cells, so the ratio is the
cost of one hop of the per-frame path (docs/PERFORMANCE.md, "Per-frame
path").

Before that path was thinned (positional ``Simulator._push`` from
``Link`` and ``Timer``, ``Link`` delivering to ``Node.receive`` itself,
the slot-copying hop-limit clone, the PIM-DM data path reading address
ints and oif masks off their slots) the small cell made 46.4 calls per
event and the larger one 49.1; before the producers read
``Tracer.wanted`` instead of calling ``Tracer.wants``, 31.30 and 32.19.
Each bound below is the value this code measured plus 10%; the larger
cell must also stay within 1.1x of the smaller one, so the cost per
event stays flat as the topology grows.
"""

import cProfile
import pstats

import pytest

from repro.core.fluidstudy import fluid_cell
from repro.net.topology import Network

CELL = dict(
    receivers=30,
    mobility=1.0,
    warmup=5,
    duration=5,
    packet_interval=0.05,
    probe_interval=10.0,
    traffic_model="packet",
)

#: calls per event measured on this code: 30 routers, 30 receivers
SMALL = 28.52
#: calls per event measured on this code: 155 routers, 100 receivers
LARGE = 29.51
MARGIN = 1.1


def profile_cell(**params):
    """cProfile stats inside ``Network.run``, and the events it dispatched."""
    profile = cProfile.Profile()
    events = 0
    run = Network.run

    def profiled_run(self, *args, **kwargs):
        nonlocal events
        before = self.sim.events_dispatched
        profile.enable()
        try:
            return run(self, *args, **kwargs)
        finally:
            profile.disable()
            events += self.sim.events_dispatched - before

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "run", profiled_run)
        fluid_cell(**{**CELL, **params})
    assert events > 0
    return pstats.Stats(profile), events


@pytest.fixture(scope="module")
def profiles():
    small = profile_cell(model_params={"depth": 2, "fanout": 5})
    large = profile_cell(model_params={"depth": 3, "fanout": 5}, receivers=100)
    return small, large


@pytest.fixture(scope="module")
def costs(profiles):
    return tuple(stats.total_calls / events for stats, events in profiles)


def test_small_cell_calls_per_event(costs):
    small, _ = costs
    assert small <= SMALL * MARGIN, f"{small:.2f} calls per event"


def test_large_cell_calls_per_event(costs):
    _, large = costs
    assert large <= LARGE * MARGIN, f"{large:.2f} calls per event"


def test_calls_per_event_flat_across_sizes(costs):
    small, large = costs
    assert large <= small * MARGIN, f"{large:.2f} vs {small:.2f} calls per event"


def test_frame_path_reads_the_tracer_answer_without_a_call(profiles):
    """``Link.transmit``, the PIM-DM data path and host delivery read
    ``Tracer.wanted``; none of them calls ``Tracer.wants``."""
    for stats, _ in profiles:
        called = [func for (_, _, func) in stats.stats if func == "wants"]
        assert called == []
