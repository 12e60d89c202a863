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


def covering(registry: BlackholeRegistry, time: int) -> list[BlackholeEvent]:
    """Recorded events whose interval ``[start, end)`` holds ``time``."""
    return [
        e for e in registry.events()
        if e.start <= time and (e.end is None or time < e.end)
    ]


def is_blackholed(
    registry: BlackholeRegistry, address: int, time: int, horizon: int | None = None
) -> bool:
    """Point-query oracle: one address, one instant, every covering event.

    An open event ends at ``horizon`` when one is given.
    """
    return any(
        e.prefix.contains(address) and (e.end is not None or horizon is None or time < horizon)
        for e in covering(registry, time)
    )


class TestBlackholeEvent:
    def test_active_interval(self):
        registry = BlackholeRegistry()
        registry.apply(bh_announce("0.0.0.100/32", 10))
        registry.apply(withdraw("0.0.0.100/32", 20))
        flows = FlowDataset.from_records(
            [make_flow(time=t, dst_ip=100) for t in (9, 10, 19, 20)]
        )
        np.testing.assert_array_equal(
            registry.match_flows(flows), [False, True, True, False]
        )

    def test_open_interval(self):
        registry = BlackholeRegistry()
        registry.apply(bh_announce("0.0.0.100/32", 10))
        (event,) = registry.events()
        assert event.duration is None
        flows = FlowDataset.from_records([make_flow(time=10**9, dst_ip=100)])
        assert registry.match_flows(flows).all()

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
        (event,) = registry.events()
        assert event.start == 10 and event.end is None

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
        assert len(covering(registry, 7)) == 2
        assert len(covering(registry, 12)) == 1


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


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),  # dst ip (small space)
            st.integers(min_value=28, max_value=32),  # prefix length
            st.integers(min_value=0, max_value=1200),  # start
            # 0: announced and withdrawn in one second; None: never withdrawn.
            st.one_of(st.none(), st.just(0), st.integers(min_value=1, max_value=300)),
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
    first=st.integers(min_value=0, max_value=1000),
    span=st.sampled_from([1, 60, 1000]),  # one second, about a bin, many bins
    horizon=st.one_of(st.none(), st.integers(min_value=0, max_value=2000)),
)
def test_match_flows_equals_point_queries(events, flows, first, span, horizon):
    """Vectorised matching agrees with per-flow point queries."""
    registry = BlackholeRegistry()
    updates = []
    for ip, length, start, duration in events:
        prefix = f"0.0.0.{ip}/{length}"
        updates.append(bh_announce(prefix, start, origin=64512))
        if duration is not None:
            updates.append(withdraw(prefix, start + duration, origin=64512))
    updates.sort(key=lambda u: u.time)
    registry.apply_all(updates)

    dataset = FlowDataset.from_records(
        [make_flow(time=first + t % span, dst_ip=ip) for ip, t in flows]
    )
    mask = registry.match_flows(dataset, horizon=horizon)
    expected = [
        is_blackholed(registry, int(dataset.dst_ip[i]), int(dataset.time[i]), horizon)
        for i in range(len(dataset))
    ]
    np.testing.assert_array_equal(mask, expected)
