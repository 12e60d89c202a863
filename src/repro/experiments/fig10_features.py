"""Experiment E-F10: XGB feature importance by average gain (Fig. 10).

Fits the recommended XGB model on the merged corpus and reports the top
features ranked by average split gain, in the paper's
``categorical/metric/rank`` notation.

Expected shape: the top features mix temporally stable vector
properties (source ports, packet sizes, protocol) with drifting local
knowledge (source IPs / reflectors) — no single feature family
dominates exclusively, and all are attack-relevant.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding.matrix import assemble
from repro.core.encoding.woe import WoEEncoder
from repro.core.models.boosting import GradientBoostedTrees
from repro.core.encoding.transforms import Imputer
from repro.experiments.common import ExperimentResult, check_scale
from repro.experiments.datasets import merged_corpus


def run(scale: str = "small", top: int = 10) -> ExperimentResult:
    check_scale(scale)
    merged = merged_corpus(scale)
    woe = WoEEncoder().fit(merged)
    matrix = assemble(merged, woe)
    X = Imputer().fit_transform(matrix.X)

    model = GradientBoostedTrees()
    model.fit(X, matrix.y)
    gains = model.average_gain()
    order = np.argsort(-gains, kind="stable")[:top]

    result = ExperimentResult(experiment="fig10-features")
    for rank, j in enumerate(order):
        result.rows.append(
            {
                "rank": rank + 1,
                "feature": matrix.columns[j],
                "avg_gain": float(gains[j]),
                "n_splits": int(model.feature_splits_[j]),
            }
        )
    domains = {matrix.columns[j].split("/")[0] for j in order}
    result.notes["distinct_domains_in_top"] = len(domains)
    result.notes["domains"] = ",".join(sorted(domains))
    return result
