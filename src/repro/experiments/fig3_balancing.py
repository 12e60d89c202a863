"""Experiment E-F3: blackholing share and balancing validation (Fig. 3).

* Fig. 3a — CDF of the per-minute blackholing traffic share per IXP.
  Expected shape: share never exceeds ~0.8 % and stays below 0.1 % in
  ~90 % of the bins.
* Fig. 3c — per-bin flows-per-unique-IP, blackhole vs benign class, and
  their Pearson correlation. Expected shape: clearly positive
  correlation (paper: r = 0.77, p < 0.01).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult, check_scale
from repro.experiments.datasets import DAYS_BY_SCALE, balanced_corpus, build_capture
from repro.ixp.profiles import ALL_PROFILES


def run(scale: str = "small") -> ExperimentResult:
    check_scale(scale)
    n_days = DAYS_BY_SCALE[scale]
    result = ExperimentResult(experiment="fig3-balancing")

    bh_per_ip_all: list[np.ndarray] = []
    benign_per_ip_all: list[np.ndarray] = []
    for profile in ALL_PROFILES:
        capture = build_capture(profile, n_days)
        share = capture.bin_stats.blackhole_share()
        sorted_share = np.sort(share)
        cdf_y = np.arange(1, sorted_share.size + 1) / sorted_share.size
        result.series[f"fig3a/{profile.name}"] = (sorted_share.tolist(), cdf_y.tolist())

        balanced = balanced_corpus(profile, n_days)
        bh, benign = balanced.report.flows_per_ip()
        bh_per_ip_all.append(bh)
        benign_per_ip_all.append(benign)
        result.series[f"fig3c/{profile.name}"] = (bh.tolist(), benign.tolist())

        result.rows.append(
            {
                "ixp": profile.name,
                "max_share": float(share.max()),
                "median_share": float(np.median(share)),
                "p90_share": float(np.percentile(share, 90)),
                "share_below_0.1pct": float((share < 0.001).mean()),
                "pearson_r": balanced.report.pearson_r(),
            }
        )

    # scipy loads here, not at import: `repro list` reads this module's
    # docstring and should not pay for scipy.stats.
    from scipy import stats

    bh_all = np.concatenate(bh_per_ip_all)
    benign_all = np.concatenate(benign_per_ip_all)
    r, p = stats.pearsonr(bh_all, benign_all)
    result.notes["pearson_r_all"] = float(r)
    result.notes["pearson_p_all"] = float(p)
    result.notes["max_share_any_ixp"] = max(row["max_share"] for row in result.rows)
    return result
