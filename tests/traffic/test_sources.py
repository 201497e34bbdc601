"""Source generators: flow naming, validation, rate properties."""

import pytest

from repro.net import Network
from repro.traffic import (
    CbrSource,
    OnOffSource,
    PacketModel,
    FluidModel,
    TRAFFIC_MODELS,
    make_traffic_model,
    reset_flow_counter,
)
from topo_helpers import build_line


def _host_and_group():
    topo = build_line(n_routers=1, seed=3)
    host = topo.host_on(0, 50, "H")
    return topo, host


class TestFlowCounter:
    def test_auto_flow_names_reset_per_network(self):
        """Two scenarios in one process must name their flows
        identically — Network.__init__ resets the counter exactly like
        reset_packet_uids (regression: it used to be process-global)."""
        names = []
        for _ in range(2):
            topo, host = _host_and_group()
            src_a = CbrSource(host, topo.group)
            src_b = CbrSource(host, topo.group)
            names.append((src_a.flow, src_b.flow))
        assert names[0] == names[1]
        assert names[0] == ("H-flow1", "H-flow2")

    def test_reset_flow_counter_restarts_at_one(self):
        topo, host = _host_and_group()
        CbrSource(host, topo.group)
        CbrSource(host, topo.group)
        reset_flow_counter()
        assert CbrSource(host, topo.group).flow == "H-flow1"

    def test_explicit_flow_name_skips_counter(self):
        topo, host = _host_and_group()
        src = CbrSource(host, topo.group, flow="my-flow")
        assert src.flow == "my-flow"
        assert CbrSource(host, topo.group).flow == "H-flow1"


class TestValidation:
    def test_cbr_rejects_nonpositive_payload(self):
        topo, host = _host_and_group()
        with pytest.raises(ValueError, match="payload_bytes"):
            CbrSource(host, topo.group, payload_bytes=0)
        with pytest.raises(ValueError, match="payload_bytes"):
            CbrSource(host, topo.group, payload_bytes=-5)

    def test_onoff_rejects_nonpositive_payload(self):
        topo, host = _host_and_group()
        with pytest.raises(ValueError, match="payload_bytes"):
            OnOffSource(host, topo.group, payload_bytes=0)

    def test_cbr_rejects_nonpositive_interval(self):
        topo, host = _host_and_group()
        with pytest.raises(ValueError, match="packet_interval"):
            CbrSource(host, topo.group, packet_interval=0.0)

    def test_onoff_rejects_nonpositive_phases(self):
        topo, host = _host_and_group()
        with pytest.raises(ValueError, match="mean_on/mean_off"):
            OnOffSource(host, topo.group, mean_on=0.0)


class TestRateProperties:
    def test_cbr_bit_rate(self):
        topo, host = _host_and_group()
        src = CbrSource(host, topo.group, packet_interval=0.05,
                        payload_bytes=1000)
        assert src.bit_rate == pytest.approx(1000 * 8 / 0.05)
        assert src.mean_bit_rate == src.bit_rate

    def test_onoff_duty_cycle_and_mean_rate(self):
        topo, host = _host_and_group()
        src = OnOffSource(host, topo.group, packet_interval=0.1,
                          payload_bytes=500, mean_on=10.0, mean_off=30.0)
        assert src.duty_cycle == pytest.approx(0.25)
        assert src.mean_bit_rate == pytest.approx(src.bit_rate * 0.25)


class TestRegistry:
    def test_default_is_packet(self):
        model = make_traffic_model()
        assert isinstance(model, PacketModel)
        assert model.name == "packet"

    def test_fluid_by_name(self):
        model = make_traffic_model("fluid", probe_interval=5.0)
        assert isinstance(model, FluidModel)
        assert model.probe_interval == 5.0

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown traffic model"):
            make_traffic_model("teleport")

    def test_registry_names(self):
        assert TRAFFIC_MODELS == ("packet", "fluid")

    def test_packet_model_builds_plain_sources(self):
        """Golden-trace parity: PacketModel must construct the exact
        CbrSource/OnOffSource the pre-refactor code did."""
        topo, host = _host_and_group()
        model = make_traffic_model("packet")
        model.attach(Network(seed=0))
        src = model.add_cbr(host, topo.group, packet_interval=0.05,
                            flow="S-flow")
        assert type(src) is CbrSource
        assert (src.flow, src.packet_interval) == ("S-flow", 0.05)

