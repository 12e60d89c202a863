"""The per-pick scan the balancer's prefix draw must equal call for call.

``repro.core.labeling.balancer._balance`` once found the benign IPs that
qualify for a quota by scanning every IP still available, per pick, and
found each bin's flows by one full-length mask per bin. The balancer now
bisects for the same set, which is a prefix of the descending-count
order, and groups the flows by bin once; this module keeps the scan and
the masks, so a test can check that both keep the same flows, report
the same bins and leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np

from repro.core.labeling.balancer import BalancedDataset, BalanceReport
from repro.netflow.dataset import FlowDataset


def reference_balance(flows: FlowDataset, rng: np.random.Generator) -> BalancedDataset:
    bins = flows.time_bin()
    labels = flows.blackhole
    dst = flows.dst_ip
    keep_index_parts: list[np.ndarray] = []
    rep: list[tuple[int, int, int, int, int]] = []

    for bin_id in np.unique(bins[labels]):
        in_bin = bins == bin_id
        bh_idx = np.flatnonzero(in_bin & labels)
        be_idx = np.flatnonzero(in_bin & ~labels)
        keep_index_parts.append(bh_idx)

        bh_ips, bh_counts = np.unique(dst[bh_idx], return_counts=True)
        n_ips = bh_ips.shape[0]
        target_counts = np.sort(bh_counts)[::-1]

        be_selected = 0
        be_flow_count = 0
        if be_idx.size:
            be_ips, be_counts = np.unique(dst[be_idx], return_counts=True)
            n_pick = min(n_ips, be_ips.shape[0])
            available = np.argsort(be_counts, kind="stable")[::-1].tolist()
            leftovers: list[np.ndarray] = []
            for rank in range(n_pick):
                quota_target = int(target_counts[rank])
                threshold = max(1, quota_target // 2)
                qualifying = [pos for pos in available if be_counts[pos] >= threshold]
                if qualifying:
                    pick = qualifying[int(rng.integers(len(qualifying)))]
                else:
                    pick = available[0]
                available.remove(pick)
                ip_flows = be_idx[dst[be_idx] == be_ips[pick]]
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
            shortfall = int(bh_idx.shape[0]) - be_flow_count
            for extra in leftovers:
                if shortfall <= 0:
                    break
                take = min(shortfall, extra.shape[0])
                keep_index_parts.append(extra[:take])
                be_flow_count += take
                shortfall -= take

        rep.append((int(bin_id), n_ips, int(bh_idx.shape[0]), be_selected, be_flow_count))

    if keep_index_parts:
        keep = np.sort(np.concatenate(keep_index_parts))
    else:
        keep = np.empty(0, dtype=np.int64)
    balanced = flows.select(keep)
    columns = np.array(rep, dtype=np.int64).reshape(-1, 5).T
    report = BalanceReport(
        bins=columns[0],
        blackhole_ips=columns[1],
        blackhole_flows=columns[2],
        benign_ips=columns[3],
        benign_flows=columns[4],
        flows_before=len(flows),
        flows_after=len(balanced),
    )
    return BalancedDataset(flows=balanced, report=report)
