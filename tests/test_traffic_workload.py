"""Tests for the end-to-end workload generator."""

import numpy as np
import pytest

from repro.ixp.fabric import IXPFabric
from repro.traffic.workload import (
    DEFAULT_VECTOR_POPULARITY,
    WorkloadGenerator,
    _site_popularity,
)


class TestGenerate:
    def test_rejects_zero_days(self, tiny_fabric):
        with pytest.raises(ValueError):
            WorkloadGenerator(tiny_fabric).generate(0, 0)

    def test_flows_sorted(self, tiny_capture):
        assert (np.diff(tiny_capture.flows.time) >= 0).all()

    def test_updates_sorted(self, tiny_capture):
        times = [u.time for u in tiny_capture.updates]
        assert times == sorted(times)

    def test_flows_within_window(self, tiny_capture):
        assert (tiny_capture.flows.time >= tiny_capture.start).all()
        assert (tiny_capture.flows.time < tiny_capture.end).all()

    def test_events_recorded(self, tiny_capture):
        assert len(tiny_capture.events) > 0

    def test_deterministic(self, tiny_fabric):
        a = WorkloadGenerator(tiny_fabric).generate(0, 1)
        b = WorkloadGenerator(tiny_fabric).generate(0, 1)
        np.testing.assert_array_equal(a.flows.time, b.flows.time)
        np.testing.assert_array_equal(a.flows.src_ip, b.flows.src_ip)
        assert len(a.updates) == len(b.updates)

    def test_day_streams_independent(self, tiny_fabric):
        """Day 1 of a 2-day run equals a 1-day run starting at day 1."""
        long = WorkloadGenerator(tiny_fabric).generate(0, 2)
        short = WorkloadGenerator(tiny_fabric).generate(1, 1)
        spd = tiny_fabric.profile.seconds_per_day
        # Events drawn for day 1 are identical in both runs.
        long_day1 = [e for e in long.events if spd <= e.start < 2 * spd]
        assert len(long_day1) == len(short.events)
        assert {e.victim for e in long_day1} == {e.victim for e in short.events}

    def test_labeled_flows_contains_attacks(self, labeled_flows):
        assert labeled_flows.blackhole.any()
        assert not labeled_flows.blackhole.all()

    def test_registry_consistent_with_labels(self, tiny_capture):
        registry = tiny_capture.registry()
        labeled = tiny_capture.labeled_flows()
        mask = registry.match_flows(tiny_capture.flows, horizon=tiny_capture.end)
        np.testing.assert_array_equal(mask, labeled.blackhole)


class TestBinStatistics:
    def test_bin_count(self, tiny_capture, tiny_profile):
        expected_bins = 2 * tiny_profile.bins_per_day
        assert tiny_capture.bin_stats.bins.shape[0] == expected_bins

    def test_blackhole_share_small(self, tiny_capture):
        """Blackholed traffic is a tiny share of total volume (Fig. 3a)."""
        share = tiny_capture.bin_stats.blackhole_share()
        assert share.max() < 0.05
        assert np.median(share) < 0.01

    def test_total_at_least_blackhole(self, tiny_capture):
        stats = tiny_capture.bin_stats
        assert (stats.total_bytes >= stats.blackhole_bytes).all()

    def test_positive_volume(self, tiny_capture):
        assert (tiny_capture.bin_stats.total_bytes > 0).all()


class TestVectorSchedule:
    def test_first_seen_respected(self, tiny_fabric):
        spd = tiny_fabric.profile.seconds_per_day
        generator = WorkloadGenerator(
            tiny_fabric,
            vector_first_seen={"NTP": spd},  # NTP only from day 1
            vector_popularity=DEFAULT_VECTOR_POPULARITY,
        )
        capture = generator.generate(0, 2)
        for event in capture.events:
            if "NTP" in tuple(v.name for v in event.vectors):
                assert event.start >= spd

    def test_site_popularity_deterministic(self):
        assert _site_popularity(101) == _site_popularity(101)

    def test_site_popularity_differs_by_seed(self):
        assert _site_popularity(101) != _site_popularity(102)

    def test_site_popularity_keeps_universal(self):
        for seed in (101, 102, 103, 104, 105):
            popularity = _site_popularity(seed)
            for name in ("DNS", "NTP", "LDAP", "SSDP"):
                assert popularity.get(name, 0.0) > 0.0

    def test_site_popularity_drops_some(self):
        popularity = _site_popularity(101)
        assert len(popularity) < len(DEFAULT_VECTOR_POPULARITY)
