"""The balancing procedure of paper §3 (Fig. 3b).

Blackholed traffic is a tiny fraction of IXP traffic (< 0.8 % of bytes,
Fig. 3a); training on the raw mix would collapse any classifier onto the
majority class. The balancing procedure selects, per one-minute bin:

1. *all* blackholed flows (the under-represented class), and
2. a benign sample matching both the number of distinct destination IPs
   and the per-destination flow counts of the blackholed traffic.

The result is an ~50:50 dataset whose two classes have correlated
flows-per-IP profiles (validated in Fig. 3c with Pearson r ≈ 0.77).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.netflow.dataset import FlowDataset
from repro.netflow.grouping import group_rows
from repro.obs import names as metric_names


@dataclass(frozen=True)
class BalanceReport:
    """Per-bin bookkeeping of the balancing procedure.

    One entry per time bin that contained blackholed traffic. The
    flows-per-IP columns feed the Fig. 3c validation scatter.
    """

    bins: np.ndarray
    blackhole_ips: np.ndarray
    blackhole_flows: np.ndarray
    benign_ips: np.ndarray
    benign_flows: np.ndarray
    flows_before: int
    flows_after: int

    @property
    def reduction(self) -> float:
        """Fraction of input flows discarded by balancing."""
        if self.flows_before == 0:
            return 0.0
        return 1.0 - self.flows_after / self.flows_before

    def flows_per_ip(self) -> tuple[np.ndarray, np.ndarray]:
        """(blackhole, benign) flows per unique IP per bin (Fig. 3c)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            bh = np.where(self.blackhole_ips > 0, self.blackhole_flows / self.blackhole_ips, 0.0)
            be = np.where(self.benign_ips > 0, self.benign_flows / self.benign_ips, 0.0)
        return bh, be

    def pearson_r(self) -> float:
        """Pearson correlation of per-bin flows/IP between the classes."""
        bh, be = self.flows_per_ip()
        if bh.size < 2 or np.std(bh) == 0 or np.std(be) == 0:
            return float("nan")
        return float(np.corrcoef(bh, be)[0, 1])


@dataclass(frozen=True)
class BalancedDataset:
    """A balanced training set plus its balance report."""

    flows: FlowDataset
    report: BalanceReport

    @property
    def blackhole_share(self) -> float:
        return self.flows.blackhole_share


def _per_ip_counts(dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique destination IPs and their flow counts."""
    ips, counts = np.unique(dst, return_counts=True)
    return ips, counts


def balance(
    flows: FlowDataset,
    rng: np.random.Generator,
) -> BalancedDataset:
    """Apply the balancing procedure to a labeled flow dataset.

    Per bin, all blackholed flows are kept. Benign destination IPs are
    then drawn (without replacement) to match the number of blackholed
    destinations; each drawn benign IP is paired with one blackholed IP
    by descending flow count and subsampled to the paired count. Bins
    without blackholed traffic contribute nothing — exactly the online
    recording behaviour that discards the unbalanced bulk early.
    """
    with obs.span(metric_names.SPAN_LABELING_BALANCE):
        result = _balance(flows, rng)
    obs.counter(metric_names.C_LABELING_FLOWS_IN).inc(result.report.flows_before)
    obs.counter(metric_names.C_LABELING_FLOWS_KEPT).inc(result.report.flows_after)
    obs.gauge(metric_names.G_LABELING_LAST_REDUCTION).set(result.report.reduction)
    return result


def _balance(
    flows: FlowDataset,
    rng: np.random.Generator,
) -> BalancedDataset:
    if len(flows) == 0:
        empty = FlowDataset.empty()
        report = BalanceReport(
            bins=np.empty(0, dtype=np.int64),
            blackhole_ips=np.empty(0, dtype=np.int64),
            blackhole_flows=np.empty(0, dtype=np.int64),
            benign_ips=np.empty(0, dtype=np.int64),
            benign_flows=np.empty(0, dtype=np.int64),
            flows_before=0,
            flows_after=0,
        )
        return BalancedDataset(flows=empty, report=report)

    bins = flows.time_bin()
    labels = flows.blackhole
    dst = flows.dst_ip
    keep_index_parts: list[np.ndarray] = []

    rep_bins: list[int] = []
    rep_bh_ips: list[int] = []
    rep_bh_flows: list[int] = []
    rep_be_ips: list[int] = []
    rep_be_flows: list[int] = []

    # One grouping pass, then one slice per bin (no sort for one bin).
    order, groups = group_rows(bins)
    for bin_id, lo, hi in groups:
        rows = np.arange(lo, hi) if order is None else order[lo:hi]
        bin_labels = labels.take(rows)
        if not bin_labels.any():
            continue
        bh_idx, be_idx = rows[bin_labels], rows[~bin_labels]
        keep_index_parts.append(bh_idx)

        bh_ips, bh_counts = _per_ip_counts(dst[bh_idx])
        n_ips = bh_ips.shape[0]
        # Order blackholed targets by descending intensity; pair benign
        # targets by the same order so flow counts correlate per IP.
        target_counts = np.sort(bh_counts)[::-1]

        be_selected = 0
        be_flow_count = 0
        if be_idx.size:
            be_ips, be_counts = _per_ip_counts(dst[be_idx])
            n_pick = min(n_ips, be_ips.shape[0])
            # For each blackholed IP's flow quota (descending), pick one
            # benign IP at random among those that can supply at least
            # half the quota, falling back to the largest remaining.
            # Randomising among qualifying IPs (instead of always taking
            # the top counts) avoids systematically selecting the same
            # heavy destinations in every bin. ``available`` stays in
            # descending-count order, so the qualifying IPs are a prefix
            # of it, found by bisecting ``supply``, the negated counts.
            available = np.argsort(be_counts, kind="stable")[::-1].tolist()
            supply = (-be_counts[available]).tolist()
            be_dst = dst[be_idx]
            leftovers: list[np.ndarray] = []  # unused flows of picked IPs
            for rank in range(n_pick):
                quota_target = int(target_counts[rank])
                threshold = max(1, quota_target // 2)
                qualifying = bisect.bisect_right(supply, -threshold)
                index = int(rng.integers(qualifying)) if qualifying else 0
                pick = available.pop(index)
                del supply[index]
                ip = be_ips[pick]
                ip_flows = be_idx[be_dst == ip]
                quota = int(min(quota_target, ip_flows.shape[0]))
                if quota <= 0:
                    continue
                permuted = rng.permutation(ip_flows)
                keep_index_parts.append(permuted[:quota])
                if quota < permuted.shape[0]:
                    leftovers.append(permuted[quota:])
                be_selected += 1
                be_flow_count += quota
                if not available:
                    break
            # Redistribution pass: when quotas could not be filled (no
            # benign IP had enough flows), top up from the unused flows
            # of the already-picked IPs so the per-bin class totals stay
            # comparable. The set of benign IPs is unchanged; only the
            # equal-flows-per-IP pairing is relaxed, which Fig. 3c
            # tolerates (the paper reports correlated, not identical,
            # per-IP counts).
            shortfall = int(bh_idx.shape[0]) - be_flow_count
            for extra in leftovers:
                if shortfall <= 0:
                    break
                take = min(shortfall, extra.shape[0])
                keep_index_parts.append(extra[:take])
                be_flow_count += take
                shortfall -= take

        rep_bins.append(int(bin_id))
        rep_bh_ips.append(n_ips)
        rep_bh_flows.append(int(bh_idx.shape[0]))
        rep_be_ips.append(be_selected)
        rep_be_flows.append(be_flow_count)

    if keep_index_parts:
        keep = np.sort(np.concatenate(keep_index_parts))
    else:
        keep = np.empty(0, dtype=np.int64)
    balanced = flows.select(keep)
    report = BalanceReport(
        bins=np.asarray(rep_bins, dtype=np.int64),
        blackhole_ips=np.asarray(rep_bh_ips, dtype=np.int64),
        blackhole_flows=np.asarray(rep_bh_flows, dtype=np.int64),
        benign_ips=np.asarray(rep_be_ips, dtype=np.int64),
        benign_flows=np.asarray(rep_be_flows, dtype=np.int64),
        flows_before=len(flows),
        flows_after=len(balanced),
    )
    return BalancedDataset(flows=balanced, report=report)
