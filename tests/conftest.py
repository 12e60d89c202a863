"""Shared fixtures: small deterministic datasets and captures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.labeling import balance
from repro.ixp.fabric import IXPFabric
from repro.ixp.profiles import IXPProfile
from repro.netflow.dataset import FlowDataset
from repro.netflow.record import FlowRecord
from repro.traffic.workload import WorkloadGenerator


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xDECAF)


#: A miniature vantage point for fast end-to-end tests (also the
#: profile ``tests/gen_golden.py`` digests a capture of).
TINY_PROFILE = IXPProfile(
    name="IXP-TEST",
    region=7,
    n_members=8,
    traffic_scale=0.01,
    attacks_per_day=12.0,
    attack_intensity=25.0,
    benign_flows_per_target=5.0,
    benign_targets_per_minute=24,
    bins_per_day=48,
    seed=42,
)


@pytest.fixture
def tiny_profile() -> IXPProfile:
    return TINY_PROFILE


@pytest.fixture
def tiny_fabric(tiny_profile) -> IXPFabric:
    return IXPFabric(tiny_profile)


@pytest.fixture
def tiny_capture(tiny_fabric):
    return WorkloadGenerator(tiny_fabric).generate(0, 2)


@pytest.fixture
def labeled_flows(tiny_capture) -> FlowDataset:
    return tiny_capture.labeled_flows()


@pytest.fixture
def balanced_flows(labeled_flows) -> FlowDataset:
    return balance(labeled_flows, np.random.default_rng(1)).flows


def make_flow(
    time=0,
    src_ip=0x0A000001,
    dst_ip=0x0A000002,
    src_port=123,
    dst_port=4444,
    protocol=17,
    packets=10,
    bytes_=4680,
    src_mac=1,
    blackhole=False,
) -> FlowRecord:
    """Convenience constructor with sensible defaults."""
    return FlowRecord(
        time=time,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        protocol=protocol,
        packets=packets,
        bytes_=bytes_,
        src_mac=src_mac,
        blackhole=blackhole,
    )


@pytest.fixture
def handmade_flows() -> FlowDataset:
    """Twelve hand-written flows across two bins and three targets."""
    records = [
        # Bin 0, target A: NTP attack + one benign flow.
        make_flow(time=10, src_ip=1, dst_ip=100, src_port=123, packets=50, bytes_=23400, blackhole=True),
        make_flow(time=20, src_ip=2, dst_ip=100, src_port=123, packets=40, bytes_=18720, blackhole=True),
        make_flow(time=30, src_ip=3, dst_ip=100, src_port=443, dst_port=5555, protocol=6, packets=4, bytes_=4800),
        # Bin 0, target B: benign web.
        make_flow(time=15, src_ip=4, dst_ip=200, src_port=443, dst_port=6666, protocol=6, packets=8, bytes_=9600),
        make_flow(time=45, src_ip=5, dst_ip=200, src_port=80, dst_port=7777, protocol=6, packets=2, bytes_=1800),
        # Bin 1, target A: DNS attack.
        make_flow(time=70, src_ip=6, dst_ip=100, src_port=53, packets=30, bytes_=33000, blackhole=True),
        make_flow(time=80, src_ip=7, dst_ip=100, src_port=53, packets=20, bytes_=22000, blackhole=True),
        make_flow(time=90, src_ip=8, dst_ip=100, src_port=0, dst_port=0, packets=25, bytes_=37000, blackhole=True),
        # Bin 1, target C: benign QUIC.
        make_flow(time=75, src_ip=9, dst_ip=300, src_port=443, dst_port=8888, packets=6, bytes_=7500),
        make_flow(time=85, src_ip=10, dst_ip=300, src_port=443, dst_port=9999, packets=3, bytes_=3750),
        make_flow(time=95, src_ip=11, dst_ip=300, src_port=53, dst_port=1111, packets=1, bytes_=120),
        make_flow(time=99, src_ip=12, dst_ip=300, src_port=22, dst_port=2222, protocol=6, packets=5, bytes_=1500),
    ]
    return FlowDataset.from_records(records)
