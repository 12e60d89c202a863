"""Tests for the balancing procedure (§3, Fig. 3b)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labeling.balancer import balance
from repro.netflow.dataset import FlowDataset
from tests.conftest import make_flow


def flows_for_bin(bin_id, dst_counts, blackhole):
    """Build flows in ``bin_id``: {dst_ip: n_flows}."""
    records = []
    base_time = bin_id * 60
    for dst, count in dst_counts.items():
        for k in range(count):
            records.append(
                make_flow(
                    time=base_time + (k % 60),
                    dst_ip=dst,
                    src_ip=1000 + dst + k,
                    blackhole=blackhole,
                )
            )
    return records


class TestBalance:
    def test_empty_input(self, rng):
        result = balance(FlowDataset.empty(), rng)
        assert len(result.flows) == 0
        assert result.report.reduction == 0.0

    def test_no_blackholes_discards_everything(self, rng):
        flows = FlowDataset.from_records(flows_for_bin(0, {1: 5, 2: 5}, blackhole=False))
        result = balance(flows, rng)
        assert len(result.flows) == 0
        assert result.report.flows_before == 10

    def test_keeps_all_blackhole_flows(self, rng):
        records = flows_for_bin(0, {1: 8}, blackhole=True) + flows_for_bin(
            0, {2: 20, 3: 20}, blackhole=False
        )
        result = balance(FlowDataset.from_records(records), rng)
        kept_blackhole = int(result.flows.blackhole.sum())
        assert kept_blackhole == 8

    def test_benign_matched_to_blackhole(self, rng):
        records = flows_for_bin(0, {1: 10}, blackhole=True) + flows_for_bin(
            0, {2: 30, 3: 30}, blackhole=False
        )
        result = balance(FlowDataset.from_records(records), rng)
        benign_kept = int((~result.flows.blackhole).sum())
        assert benign_kept == 10  # equal flows
        # Equal number of distinct benign IPs (here: 1 blackholed IP).
        benign_ips = np.unique(result.flows.select(~result.flows.blackhole).dst_ip)
        assert benign_ips.shape[0] == 1

    def test_share_near_half_with_ample_benign(self, rng):
        records = []
        for b in range(5):
            records += flows_for_bin(b, {1: 10, 2: 6}, blackhole=True)
            records += flows_for_bin(b, {10: 30, 20: 30, 30: 30}, blackhole=False)
        result = balance(FlowDataset.from_records(records), rng)
        assert abs(result.blackhole_share - 0.5) < 0.05

    def test_bins_without_blackhole_dropped(self, rng):
        records = flows_for_bin(0, {1: 5}, blackhole=True) + flows_for_bin(
            0, {9: 20}, blackhole=False
        )
        records += flows_for_bin(1, {9: 50}, blackhole=False)  # bin 1: no blackhole
        result = balance(FlowDataset.from_records(records), rng)
        assert set(np.unique(result.flows.time_bin())) == {0}

    def test_report_per_bin_entries(self, rng):
        records = []
        for b in (0, 2, 5):
            records += flows_for_bin(b, {1: 5}, blackhole=True)
            records += flows_for_bin(b, {9: 20}, blackhole=False)
        result = balance(FlowDataset.from_records(records), rng)
        assert list(result.report.bins) == [0, 2, 5]
        assert (result.report.blackhole_flows == 5).all()

    def test_reduction_accounts_discards(self, rng):
        records = flows_for_bin(0, {1: 10}, blackhole=True) + flows_for_bin(
            0, {9: 100}, blackhole=False
        )
        result = balance(FlowDataset.from_records(records), rng)
        assert result.report.flows_before == 110
        assert result.report.flows_after == len(result.flows)
        assert result.report.reduction > 0.7

    def test_flows_per_ip_correlated(self, rng):
        records = []
        for b in range(30):
            n = 3 + (b % 7)
            records += flows_for_bin(b, {1: n, 2: n + 2}, blackhole=True)
            records += flows_for_bin(b, {10: 40, 20: 40, 30: 40}, blackhole=False)
        result = balance(FlowDataset.from_records(records), rng)
        assert result.report.pearson_r() > 0.5

    def test_shortfall_redistribution(self, rng):
        """When no benign IP can fill a big quota, totals still balance
        through redistribution across picked IPs."""
        records = flows_for_bin(0, {1: 40}, blackhole=True) + flows_for_bin(
            0, {10: 25, 20: 25}, blackhole=False
        )
        result = balance(FlowDataset.from_records(records), rng)
        benign_kept = int((~result.flows.blackhole).sum())
        # One blackholed IP -> one picked benign IP (25 flows) plus
        # redistribution cannot add more IPs, so totals stay at supply.
        assert benign_kept == 25


@settings(max_examples=20, deadline=None)
@given(
    n_bh=st.integers(min_value=1, max_value=30),
    n_benign_ips=st.integers(min_value=1, max_value=5),
    benign_per_ip=st.integers(min_value=1, max_value=50),
)
def test_balance_invariants(n_bh, n_benign_ips, benign_per_ip):
    """Blackhole flows always all kept; benign never exceeds blackhole."""
    records = flows_for_bin(0, {1: n_bh}, blackhole=True)
    records += flows_for_bin(
        0, {100 + i: benign_per_ip for i in range(n_benign_ips)}, blackhole=False
    )
    result = balance(FlowDataset.from_records(records), np.random.default_rng(0))
    kept_bh = int(result.flows.blackhole.sum())
    kept_benign = int((~result.flows.blackhole).sum())
    assert kept_bh == n_bh
    assert kept_benign <= n_bh
    assert kept_benign <= n_benign_ips * benign_per_ip
