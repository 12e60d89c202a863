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


def _numbered_flows(bins, order_seed=0):
    """Flows of ``bins``, each ``(blackhole counts, benign counts)`` per
    destination IP, shuffled, with ``src_ip`` numbering the rows."""
    time, dst, blackhole = [], [], []
    for bin_id, (bh_counts, be_counts) in enumerate(bins):
        for label, base, counts in ((True, 100, bh_counts), (False, 200, be_counts)):
            for i, count in enumerate(counts):
                time += [bin_id * 60 + 1] * count
                dst += [base + i] * count
                blackhole += [label] * count
    n = len(time)
    order = np.random.default_rng(order_seed).permutation(n)
    return FlowDataset({
        "time": np.array(time, dtype=np.int64)[order],
        "src_ip": np.arange(n, dtype=np.uint32),
        "dst_ip": np.array(dst, dtype=np.uint32)[order],
        "src_port": np.full(n, 123),
        "dst_port": np.full(n, 4444),
        "protocol": np.full(n, 17),
        "packets": np.full(n, 10),
        "bytes": np.full(n, 4680),
        "src_mac": np.ones(n),
        "blackhole": np.array(blackhole, dtype=bool)[order],
    })


def _assert_matches_reference(flows, seed):
    from tests.reference_balance import reference_balance

    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, expected = balance(flows, rng), reference_balance(flows, reference_rng)
    np.testing.assert_array_equal(got.flows.src_ip, expected.flows.src_ip)
    for field in ("bins", "blackhole_ips", "blackhole_flows", "benign_ips", "benign_flows"):
        a, b = getattr(got.report, field), getattr(expected.report, field)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), field
    assert (got.report.flows_before, got.report.flows_after) == (
        expected.report.flows_before,
        expected.report.flows_after,
    )
    assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestPrefixDraw:
    """The qualifying benign IPs are found by bisection, not by a scan:
    the same flows are kept, the same report made, the same draws taken."""

    def test_no_ip_meets_the_quotas(self):
        # Quotas of 40 and 30 need 20 and 15 flows: every pick falls back
        # to the largest remaining IP, and the shortfall tops up.
        _assert_matches_reference(_numbered_flows([([40, 30], [5, 9, 3])]), seed=1)

    def test_tied_counts(self):
        _assert_matches_reference(_numbered_flows([([6, 6, 6], [6, 6, 6, 6, 6])]), seed=2)

    def test_shortfall_top_up(self):
        _assert_matches_reference(_numbered_flows([([12, 12], [30, 4, 4])]), seed=3)

    def test_one_benign_ip(self):
        _assert_matches_reference(_numbered_flows([([8, 5, 2], [3])]), seed=4)

    def test_no_benign_side(self):
        _assert_matches_reference(_numbered_flows([([8, 5], [])]), seed=5)

    @settings(max_examples=150, deadline=None)
    @given(
        bins=st.lists(
            st.tuples(
                st.lists(st.integers(1, 40), min_size=0, max_size=5),
                st.lists(
                    st.one_of(st.integers(1, 4), st.integers(1, 60)), min_size=0, max_size=8
                ),
            ),
            min_size=1,
            max_size=4,
        ),
        order_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
    )
    def test_equals_the_scan(self, bins, order_seed, seed):
        _assert_matches_reference(_numbered_flows(bins, order_seed), seed)


class TestGroupedBins:
    """``balance`` groups the flows by bin once and takes one slice per
    bin; over many bins it must equal the mask per bin of
    ``tests/reference_balance.py``: kept rows, report and draws."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "shape", ["sorted", "shuffled", "bins-without-blackholes", "far-apart-bins"]
    )
    def test_multi_bin_equals_the_reference(self, seed, shape):
        from tests import strategies

        rng = strategies.rng_for(seed)
        # Mostly benign, so most picked IPs are subsampled: the rows a
        # permutation keeps depend on the order of each bin's rows.
        flows = strategies.labeled_flows(
            rng, n_flows=1500, n_targets=12, n_bins=12, start_bin=-3, attack_share=0.1
        )
        if shape == "bins-without-blackholes":
            flows = flows.with_blackhole(flows.blackhole & (flows.time // 60 % 3 != 0))
        if shape == "far-apart-bins":
            columns = flows.to_columns()
            columns["time"] = flows.time + np.where(flows.time // 60 % 2, 60 * 10**9, 0)
            flows = FlowDataset(columns)
        if shape != "sorted":
            flows = strategies.shuffled(rng, flows)
        _assert_matches_reference(flows, seed)
