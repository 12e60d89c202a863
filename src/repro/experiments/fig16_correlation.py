"""Experiment E-F16: aggregation-induced correlation (paper Appendix B).

* Fig. 16a — CDF of pairwise Spearman correlations among the metric
  value columns, grouped by metric family (packets / bytes /
  packet size). Expected shape: a substantial share of column pairs is
  strongly correlated (paper: ~20 % above 0.7-0.8).
* Fig. 16b — PCA explained-variance curve over the full feature matrix.
  Expected shape: a few dozen components explain ~0.8 of the variance;
  ~50 components explain nearly all of it.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.core.encoding.matrix import assemble
from repro.core.encoding.pca import explained_variance_curve
from repro.core.encoding.transforms import Imputer, Standardizer
from repro.core.encoding.woe import WoEEncoder
from repro.core.features import schema
from repro.experiments.common import ExperimentResult, check_scale
from repro.experiments.datasets import merged_corpus


def _spearman_cdf(X: np.ndarray) -> np.ndarray:
    """Upper-triangle absolute Spearman correlations, sorted.

    A constant column has no ranks to correlate: every pair with it is
    NaN (with a divide warning), and the NaN filter below drops such
    pairs anyway. So constant columns leave before the correlation, and
    no reported value is a NaN.
    """
    X = X[:, np.ptp(X, axis=0) > 0]
    corr, _ = stats.spearmanr(X)
    corr = np.atleast_2d(corr)
    iu = np.triu_indices_from(corr, k=1)
    values = np.abs(corr[iu])
    return np.sort(values[~np.isnan(values)])


def run(scale: str = "small") -> ExperimentResult:
    check_scale(scale)
    merged = merged_corpus(scale)
    result = ExperimentResult(experiment="fig16-correlation")

    imputer = Imputer()
    for metric in schema.METRICS:
        columns = [
            schema.value_column(c, metric, r)
            for c in schema.CATEGORICALS
            for r in range(schema.RANKS)
        ]
        X = np.stack([merged.metrics[c] for c in columns], axis=1)
        X = imputer.transform(X)
        sorted_corr = _spearman_cdf(X)
        cdf_y = np.arange(1, sorted_corr.size + 1) / sorted_corr.size
        result.series[f"fig16a/{metric}"] = (sorted_corr.tolist(), cdf_y.tolist())
        result.rows.append(
            {
                "analysis": f"spearman/{metric}",
                "share_above_0.7": float((sorted_corr > 0.7).mean()),
                "share_above_0.8": float((sorted_corr > 0.8).mean()),
            }
        )

    woe = WoEEncoder().fit(merged)
    matrix = assemble(merged, woe)
    X = Standardizer().fit_transform(imputer.transform(matrix.X))
    curve = explained_variance_curve(X, max_components=min(100, X.shape[1]))
    result.series["fig16b/explained-variance"] = (
        list(range(1, curve.size + 1)),
        curve.tolist(),
    )
    k80 = int(np.searchsorted(curve, 0.8) + 1)
    k99 = int(np.searchsorted(curve, 0.99) + 1)
    result.rows.append(
        {"analysis": "pca", "share_above_0.7": float("nan"), "share_above_0.8": float("nan"),
         "components_for_0.8": k80, "components_for_0.99": k99}
    )
    result.notes["components_for_0.8_variance"] = k80
    result.notes["components_for_0.99_variance"] = k99
    return result
