"""Integration tests for the HA-load scaling sweeps (§4.3.2)."""

import pytest

from repro.core import (
    render_scaling,
    run_ha_load_vs_groups,
    run_ha_load_vs_mobiles,
    run_ha_load_vs_rate,
)


class TestHaLoadVsMobiles:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_ha_load_vs_mobiles(counts=(1, 2, 4), measure_window=20.0)

    def test_one_binding_per_mobile(self, rows):
        assert [r["bindings"] for r in rows] == [1, 2, 4]

    def test_encapsulations_scale_linearly(self, rows):
        """One tunnel copy per datagram per mobile — the unicast
        replication cost of the bi-directional tunnel (§4.3.2)."""
        base = rows[0]["ha_encapsulations"]
        assert rows[1]["ha_encapsulations"] == pytest.approx(2 * base, rel=0.1)
        assert rows[2]["ha_encapsulations"] == pytest.approx(4 * base, rel=0.1)

    def test_tunnel_overhead_grows(self, rows):
        overheads = [r["tunnel_overhead_bytes"] for r in rows]
        assert overheads[0] < overheads[1] < overheads[2]

    def test_render(self, rows):
        assert "mobiles" in render_scaling(rows, "mobiles")


class TestHaLoadVsGroupsAndRate:
    def test_groups_scale(self):
        rows = run_ha_load_vs_groups(counts=(1, 2), measure_window=20.0)
        assert rows[0]["groups_on_behalf"] == 1
        assert rows[1]["groups_on_behalf"] == 2
        assert rows[1]["ha_encapsulations"] == pytest.approx(
            2 * rows[0]["ha_encapsulations"], rel=0.1
        )

    def test_rate_scales(self):
        rows = run_ha_load_vs_rate(packet_intervals=(0.2, 0.1), measure_window=20.0)
        assert rows[1]["ha_encapsulations"] == pytest.approx(
            2 * rows[0]["ha_encapsulations"], rel=0.15
        )


@pytest.mark.parametrize(
    "sweep,kwargs",
    [
        (run_ha_load_vs_mobiles, {"counts": (2,)}),
        (run_ha_load_vs_groups, {"counts": (2,)}),
        (run_ha_load_vs_rate, {"packet_intervals": (0.1,)}),
    ],
    ids=["mobiles", "groups", "rate"],
)
def test_fluid_ha_load_matches_packet_mode(sweep, kwargs):
    """The fluid engine integrates counters lazily, so the reading at
    the window's start must sync first.  Read stale, fluid mode counted
    11% more encapsulations than packet mode over the default 30 s
    window."""
    packet = sweep(measure_window=20.0, **kwargs)[0]["ha_encapsulations"]
    fluid = sweep(measure_window=20.0, traffic_model="fluid", **kwargs)[0][
        "ha_encapsulations"
    ]
    assert fluid == pytest.approx(packet, rel=1e-9)
