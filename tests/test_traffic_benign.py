"""Tests for the benign background traffic model."""

import numpy as np
import pytest

from repro.netflow import fields
from repro.netflow.dataset import FlowDataset
from repro.netflow.fields import ddos_port_label
from repro.traffic.benign import DEFAULT_SERVICES, BenignService, BenignTrafficGenerator


@pytest.fixture
def generator():
    return BenignTrafficGenerator(seed=1)


class TestGenerate:
    def test_empty_targets(self, generator, rng):
        flows = generator.generate(rng, np.empty(0, dtype=np.uint32), 0, 60)
        assert len(flows) == 0

    def test_empty_window(self, generator, rng):
        flows = generator.generate(rng, np.array([1, 2], dtype=np.uint32), 60, 60)
        assert len(flows) == 0

    def test_flows_to_requested_targets(self, generator, rng):
        targets = np.array([100, 200, 300], dtype=np.uint32)
        flows = generator.generate(rng, targets, 0, 600)
        assert np.isin(flows.dst_ip, targets).all()

    def test_times_inside_window(self, generator, rng):
        targets = np.full(50, 7, dtype=np.uint32)
        flows = generator.generate(rng, targets, 120, 180)
        assert (flows.time >= 120).all() and (flows.time < 180).all()

    def test_not_blackholed(self, generator, rng):
        flows = generator.generate(rng, np.full(50, 7, dtype=np.uint32), 0, 60)
        assert not flows.blackhole.any()

    def test_multiplicity_scales_volume(self, generator, rng):
        few = generator.generate(np.random.default_rng(0), np.full(10, 7, dtype=np.uint32), 0, 600)
        many = generator.generate(np.random.default_rng(0), np.full(100, 7, dtype=np.uint32), 0, 600)
        assert len(many) > len(few)

    def test_ddos_port_share_minor(self, generator, rng):
        """Benign traffic has a small but non-zero well-known-DDoS-port
        share (Fig. 4a: ~7.5 %)."""
        targets = np.arange(1, 400, dtype=np.uint32)
        flows = generator.generate(rng, targets, 0, 3600, flows_per_target_mean=5)
        labels = [
            ddos_port_label(int(flows.protocol[i]), int(flows.src_port[i]))
            for i in range(len(flows))
        ]
        share = sum(1 for l in labels if l is not None) / len(labels)
        assert 0.01 < share < 0.2

    def test_https_dominates(self, generator, rng):
        targets = np.arange(1, 400, dtype=np.uint32)
        flows = generator.generate(rng, targets, 0, 3600, flows_per_target_mean=5)
        https = (flows.src_port == fields.PORT_HTTPS).mean()
        assert https > 0.4

    def test_benign_ntp_is_small_packets(self, generator, rng):
        """Legitimate NTP responses are ~76 bytes — unlike monlist floods."""
        targets = np.arange(1, 500, dtype=np.uint32)
        flows = generator.generate(rng, targets, 0, 3600, flows_per_target_mean=8)
        ntp = flows.select(
            (flows.src_port == fields.PORT_NTP) & (flows.protocol == fields.PROTO_UDP)
        )
        assert len(ntp) > 0
        assert np.median(ntp.packet_size) < 120

    def test_server_pools_stable(self):
        a = BenignTrafficGenerator(seed=5)
        b = BenignTrafficGenerator(seed=5)
        np.testing.assert_array_equal(
            a._server_pools["HTTPS"], b._server_pools["HTTPS"]
        )

    def test_macs_from_member_set(self, rng):
        macs = np.array([11, 22, 33], dtype=np.uint64)
        generator = BenignTrafficGenerator(seed=1, member_macs=macs)
        flows = generator.generate(rng, np.full(50, 7, dtype=np.uint32), 0, 600)
        assert np.isin(flows.src_mac, macs).all()
