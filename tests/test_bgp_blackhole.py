"""Tests for the time-aware blackhole registry, incl. a brute-force
cross-check of vectorised flow matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.blackhole import BlackholeEvent, BlackholeRegistry
from repro.bgp.community import BLACKHOLE
from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.prefix import Prefix
from repro.netflow.dataset import FlowDataset
from tests.conftest import make_flow


def bh_announce(prefix: str, time: int, origin: int = 64512) -> Announcement:
    return Announcement(
        prefix=Prefix.parse(prefix),
        origin_asn=origin,
        time=time,
        communities=frozenset({BLACKHOLE}),
    )


def withdraw(prefix: str, time: int, origin: int = 64512) -> Withdrawal:
    return Withdrawal(prefix=Prefix.parse(prefix), origin_asn=origin, time=time)


def is_blackholed(registry: BlackholeRegistry, address: int, time: int) -> bool:
    """Point-query oracle: one address, one instant, every active event."""
    return any(e.prefix.contains(address) for e in registry.active_at(time))


class TestBlackholeEvent:
    def test_active_interval(self):
        event = BlackholeEvent(Prefix.parse("10.0.0.1/32"), 1, start=10, end=20)
        assert not event.active_at(9)
        assert event.active_at(10)
        assert event.active_at(19)
        assert not event.active_at(20)

    def test_open_interval(self):
        event = BlackholeEvent(Prefix.parse("10.0.0.1/32"), 1, start=10, end=None)
        assert event.active_at(10**9)
        assert event.duration is None

    def test_duration(self):
        event = BlackholeEvent(Prefix.parse("10.0.0.1/32"), 1, start=10, end=25)
        assert event.duration == 15


class TestRegistry:
    def test_announce_withdraw_creates_event(self):
        registry = BlackholeRegistry()
        registry.apply(bh_announce("10.0.0.1/32", 10))
        registry.apply(withdraw("10.0.0.1/32", 50))
        events = registry.events()
        assert len(events) == 1
        assert events[0].start == 10 and events[0].end == 50

    def test_open_event_reported(self):
        registry = BlackholeRegistry()
        registry.apply(bh_announce("10.0.0.1/32", 10))
        assert registry.events()[0].end is None
        assert registry.events(include_open=False) == []

    def test_reannounce_without_community_closes(self):
        registry = BlackholeRegistry()
        registry.apply(bh_announce("10.0.0.1/32", 10))
        registry.apply(
            Announcement(prefix=Prefix.parse("10.0.0.1/32"), origin_asn=64512, time=30)
        )
        events = registry.events()
        assert events[0].end == 30

    def test_duplicate_announce_keeps_original_start(self):
        registry = BlackholeRegistry()
        registry.apply(bh_announce("10.0.0.1/32", 10))
        registry.apply(bh_announce("10.0.0.1/32", 20))
        registry.apply(withdraw("10.0.0.1/32", 40))
        assert registry.events()[0].start == 10

    def test_out_of_order_rejected(self):
        registry = BlackholeRegistry()
        registry.apply(bh_announce("10.0.0.1/32", 10))
        with pytest.raises(ValueError):
            registry.apply(withdraw("10.0.0.1/32", 5))

    def test_is_blackholed_point_query(self):
        registry = BlackholeRegistry()
        registry.apply(bh_announce("10.0.0.0/24", 10))
        registry.apply(withdraw("10.0.0.0/24", 50))
        target = int(Prefix.parse("10.0.0.77/32").network)
        assert is_blackholed(registry, target, 30)
        assert not is_blackholed(registry, target, 60)
        assert not is_blackholed(
            registry, int(Prefix.parse("10.0.1.1/32").network), 30
        )

    def test_count_active(self):
        registry = BlackholeRegistry()
        registry.apply(bh_announce("10.0.0.1/32", 0))
        registry.apply(bh_announce("10.0.0.2/32", 5))
        registry.apply(withdraw("10.0.0.1/32", 10))
        assert len(registry.active_at(7)) == 2
        assert len(registry.active_at(12)) == 1


class TestMatchFlows:
    def test_basic_matching(self):
        registry = BlackholeRegistry()
        registry.apply(bh_announce("0.0.0.100/32", 60))
        registry.apply(withdraw("0.0.0.100/32", 120))
        flows = FlowDataset.from_records(
            [
                make_flow(time=30, dst_ip=100),  # before blackhole
                make_flow(time=70, dst_ip=100),  # inside
                make_flow(time=70, dst_ip=200),  # other target
                make_flow(time=130, dst_ip=100),  # after withdraw
            ]
        )
        mask = registry.match_flows(flows)
        np.testing.assert_array_equal(mask, [False, True, False, False])

    def test_open_blackhole_clipped_by_horizon(self):
        registry = BlackholeRegistry()
        registry.apply(bh_announce("0.0.0.100/32", 60))
        flows = FlowDataset.from_records(
            [make_flow(time=70, dst_ip=100), make_flow(time=500, dst_ip=100)]
        )
        mask = registry.match_flows(flows, horizon=100)
        np.testing.assert_array_equal(mask, [True, False])

    def test_unsorted_flows_supported(self):
        registry = BlackholeRegistry()
        registry.apply(bh_announce("0.0.0.100/32", 60))
        registry.apply(withdraw("0.0.0.100/32", 120))
        flows = FlowDataset.from_records(
            [make_flow(time=130, dst_ip=100), make_flow(time=70, dst_ip=100)]
        )
        mask = registry.match_flows(flows)
        np.testing.assert_array_equal(mask, [False, True])

    def test_label_flows_sets_column(self):
        registry = BlackholeRegistry()
        registry.apply(bh_announce("0.0.0.100/32", 0))
        flows = FlowDataset.from_records([make_flow(time=10, dst_ip=100)])
        labeled = registry.label_flows(flows, horizon=100)
        assert labeled.blackhole.all()


@settings(max_examples=30, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),  # dst ip (small space)
            st.integers(min_value=0, max_value=500),  # start
            st.integers(min_value=1, max_value=300),  # duration
        ),
        min_size=1,
        max_size=8,
    ),
    flows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=0, max_value=1000),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_match_flows_equals_point_queries(events, flows):
    """Vectorised matching agrees with per-flow point queries."""
    registry = BlackholeRegistry()
    updates = []
    for ip, start, duration in events:
        prefix = f"0.0.0.{ip}/32"
        updates.append(bh_announce(prefix, start, origin=64512))
        updates.append(withdraw(prefix, start + duration, origin=64512))
    updates.sort(key=lambda u: u.time)
    registry.apply_all(updates)

    dataset = FlowDataset.from_records(
        [make_flow(time=t, dst_ip=ip) for ip, t in flows]
    )
    mask = registry.match_flows(dataset)
    expected = [
        is_blackholed(registry, int(dataset.dst_ip[i]), int(dataset.time[i]))
        for i in range(len(dataset))
    ]
    np.testing.assert_array_equal(mask, expected)
