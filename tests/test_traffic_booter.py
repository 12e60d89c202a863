"""Tests for the booter (self-attack set) simulator."""

import numpy as np
import pytest

from repro.traffic.booter import (
    BOOTER_MENU,
    MAX_ATTACK_SECONDS,
    MIN_ATTACK_SECONDS,
    BooterSimulator,
)


@pytest.fixture
def simulator(tiny_fabric):
    return BooterSimulator(tiny_fabric, seed=3)


class TestCampaign:
    def test_rejects_zero_attacks(self, simulator):
        with pytest.raises(ValueError):
            simulator.run_campaign(0)

    def test_event_count(self, simulator):
        capture = simulator.run_campaign(10)
        assert len(capture.events) == 10

    def test_package_duration_limits(self, simulator):
        capture = simulator.run_campaign(20)
        for event in capture.events:
            assert MIN_ATTACK_SECONDS <= event.duration <= MAX_ATTACK_SECONDS

    def test_no_blackholing_involved(self, simulator):
        capture = simulator.run_campaign(5)
        assert all(not e.blackholed for e in capture.events)

    def test_labels_are_ground_truth(self, simulator):
        capture = simulator.run_campaign(10)
        attack = capture.flows.select(capture.flows.blackhole)
        benign = capture.flows.select(~capture.flows.blackhole)
        assert len(attack) > 0 and len(benign) > 0
        # Attack flows target the dedicated victim block only.
        victims = simulator.victims
        assert all(victims.contains(int(a)) for a in np.unique(attack.dst_ip))
        # Benign background never hits the dedicated victims.
        assert not any(victims.contains(int(a)) for a in np.unique(benign.dst_ip))

    def test_vectors_from_menu(self, simulator):
        capture = simulator.run_campaign(30)
        menu_names = {v.name for v, _ in BOOTER_MENU}
        used = {v.name for event in capture.events for v in event.vectors}
        assert used <= menu_names

    def test_wsd_offered(self, simulator):
        """WS-Discovery is on the booter menu (the Fig. 4b outlier)."""
        capture = simulator.run_campaign(60)
        used = {v.name for event in capture.events for v in event.vectors}
        assert "WS-Discovery" in used

    def test_deterministic(self, tiny_fabric):
        a = BooterSimulator(tiny_fabric, seed=3).run_campaign(5)
        b = BooterSimulator(tiny_fabric, seed=3).run_campaign(5)
        np.testing.assert_array_equal(a.flows.time, b.flows.time)
        np.testing.assert_array_equal(a.flows.src_ip, b.flows.src_ip)

    def test_flows_sorted_by_time(self, simulator):
        capture = simulator.run_campaign(10)
        assert (np.diff(capture.flows.time) >= 0).all()
