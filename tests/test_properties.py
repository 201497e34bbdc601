"""Property-based tests (hypothesis) on core invariants.

Covers the data structures everything else stands on: the event
kernel's ordering guarantees, timer algebra, addressing, wire formats,
and the MLD timer relationships from the paper.
"""

from hypothesis import given, settings, strategies as st

from repro.mld import MldConfig
from repro.net import Address, ApplicationData, Ipv6Packet, Prefix
from repro.net.stats import NetworkStats, classify_packet
from repro.sim import Simulator, Timer

# ----------------------------------------------------------------------
# kernel ordering
# ----------------------------------------------------------------------
delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


class TestKernelProperties:
    @given(delays)
    def test_dispatch_order_is_sorted_by_time(self, ds):
        sim = Simulator()
        fired = []
        for d in ds:
            sim.schedule(d, lambda t=d: fired.append(t))
        sim.run()
        assert fired == sorted(fired, key=lambda t: t)
        assert len(fired) == len(ds)

    @given(delays)
    def test_equal_times_preserve_fifo(self, ds):
        sim = Simulator()
        fired = []
        for i, d in enumerate(ds):
            sim.schedule(round(d, 0), lambda i=i: fired.append(i))
        sim.run()
        # stable: among equal times, submission order is preserved
        times = [round(d, 0) for d in ds]
        expected = [i for _, i in sorted(zip(times, range(len(ds))), key=lambda p: (p[0], p[1]))]
        assert fired == expected

    @given(delays, st.sets(st.integers(min_value=0, max_value=59)))
    def test_cancellation_removes_exactly_those(self, ds, to_cancel):
        sim = Simulator()
        fired = []
        events = [
            sim.schedule(d, lambda i=i: fired.append(i)) for i, d in enumerate(ds)
        ]
        for idx in to_cancel:
            if idx < len(events):
                events[idx].cancel()
        sim.run()
        cancelled = {i for i in to_cancel if i < len(ds)}
        assert set(fired) == set(range(len(ds))) - cancelled

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=20))
    def test_clock_never_goes_backward(self, ds):
        sim = Simulator()
        observed = []
        for d in ds:
            sim.schedule(d, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)


class TestTimerProperties:
    @given(
        st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
        st.lists(st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
                 max_size=8),
    )
    def test_restarts_fire_exactly_once_at_last_deadline(self, first, restarts):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(first)
        t = 0.0
        deadline = first
        for r in restarts:
            # restart strictly before the pending deadline
            step = min(r, deadline - t) * 0.5
            t += step
            sim.run(until=t)
            timer.restart(r)
            deadline = t + r
        sim.run()
        assert len(fired) == 1
        assert abs(fired[0] - deadline) < 1e-9


# ----------------------------------------------------------------------
# addressing / prefixes
# ----------------------------------------------------------------------
host_ids = st.integers(min_value=1, max_value=2**60)


class TestAddressingProperties:
    @given(host_ids, host_ids)
    def test_prefix_host_addresses_injective(self, a, b):
        p = Prefix("2001:db8:77::/64")
        if a != b:
            assert p.address_for_host(a) != p.address_for_host(b)
        else:
            assert p.address_for_host(a) == p.address_for_host(b)

    @given(host_ids)
    def test_host_address_stays_in_prefix(self, h):
        p = Prefix("2001:db8:77::/64")
        assert p.contains(p.address_for_host(h))

    @given(st.integers(min_value=0, max_value=2**128 - 1))
    def test_ordering_matches_integers(self, v):
        if v + 1 < 2**128:
            assert Address(v) < Address(v + 1)


# ----------------------------------------------------------------------
# accounting invariants
# ----------------------------------------------------------------------
payloads = st.integers(min_value=0, max_value=9000)


class TestAccountingProperties:
    @given(st.lists(payloads, min_size=1, max_size=30), st.integers(0, 3))
    def test_total_bytes_equals_sum_of_packets(self, sizes, depth):
        stats = NetworkStats()
        total = 0
        for size in sizes:
            pkt = Ipv6Packet(
                Address("2001:db8:1::1"), Address("ff1e::1"),
                ApplicationData(seqno=0, payload_bytes=size),
            )
            for _ in range(depth):
                pkt = pkt.encapsulate(Address("2001:db8:2::1"),
                                      Address("2001:db8:3::1"))
            stats.stats_for("L").account(pkt)
            total += pkt.size_bytes
        assert stats.link_bytes("L") == total
        # overhead channel carries exactly depth*40 per packet
        assert stats.link_bytes("L", "tunnel_overhead") == 40 * depth * len(sizes)

    @given(payloads, st.integers(0, 4))
    def test_classification_invariant_under_tunneling(self, size, depth):
        pkt = Ipv6Packet(
            Address("2001:db8:1::1"), Address("ff1e::1"),
            ApplicationData(seqno=0, payload_bytes=size),
        )
        base = classify_packet(pkt)
        for _ in range(depth):
            pkt = pkt.encapsulate(Address("2001:db8:2::1"), Address("2001:db8:3::1"))
        assert classify_packet(pkt) == base


# ----------------------------------------------------------------------
# MLD timer relationships (paper §3.2 / §4.4)
# ----------------------------------------------------------------------
class TestMldConfigProperties:
    @given(
        st.floats(min_value=10.0, max_value=500.0, allow_nan=False),
        st.integers(min_value=1, max_value=5),
    )
    def test_t_mli_formula_holds(self, qi, robustness):
        cfg = MldConfig(robustness=robustness).with_query_interval(qi)
        assert cfg.multicast_listener_interval == robustness * qi + 10.0
        # the other-querier interval is always shorter than T_MLI
        assert cfg.other_querier_present_interval < cfg.multicast_listener_interval

    @given(st.floats(min_value=10.0, max_value=500.0, allow_nan=False))
    def test_expected_delays_monotone_in_query_interval(self, qi):
        from repro.analysis import (
            expected_join_delay_wait_for_query,
            expected_leave_delay,
            leave_delay_bounds,
        )

        small = MldConfig().with_query_interval(10.0)
        big = MldConfig().with_query_interval(max(qi, 10.0))
        assert expected_join_delay_wait_for_query(small) <= (
            expected_join_delay_wait_for_query(big)
        )
        assert expected_leave_delay(small) <= expected_leave_delay(big)
        lo, hi = leave_delay_bounds(big)
        assert lo <= expected_leave_delay(big) <= hi
