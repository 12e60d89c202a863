"""Experiment E-F14: local explainability (paper Fig. 14).

* Fig. 14a — overlap between XGB classifications and rule-tag
  annotations: in what share of records do both mechanisms agree, and
  how many tagging rules are available to explain a coherent positive
  decision. Expected shape: strong agreement (paper: 70.9 % of records),
  most coherent positives explained by 1-3 rules.
* Fig. 14b — WoE distributions of the top XGB features, split by true
  positive vs false positive. Expected shape: clearly separated
  distributions with FPs shifted towards lower/neutral WoE.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding.matrix import assemble
from repro.core.encoding.woe import WoEEncoder
from repro.core.explain import rule_overlap, woe_distributions_by_outcome
from repro.core.features import schema
from repro.core.models.boosting import GradientBoostedTrees
from repro.core.models.pipeline import make_pipeline
from repro.core.models.selection import train_test_split
from repro.experiments.common import ExperimentResult, check_scale
from repro.experiments.datasets import merged_corpus
from repro.experiments.table3_models import mine_shared_rules


def run(scale: str = "small", seed: int = 5) -> ExperimentResult:
    check_scale(scale)
    _, rules = mine_shared_rules(scale)
    merged = merged_corpus(scale, rules=rules)

    rng = np.random.default_rng(seed)
    train_idx, test_idx = train_test_split(
        len(merged), 1.0 / 3.0, rng, stratify=merged.labels
    )
    train, test = merged.select(train_idx), merged.select(test_idx)
    woe = WoEEncoder().fit(train)
    pipeline = make_pipeline("XGB")
    matrix_train = assemble(train, woe)
    pipeline.fit(matrix_train.X, matrix_train.y)
    matrix_test = assemble(test, woe)
    predictions = pipeline.predict(matrix_test.X)

    result = ExperimentResult(experiment="fig14-explainability")

    # Fig. 14a: model / rule-tag agreement.
    overlap = rule_overlap(test, predictions)
    result.rows.append(
        {
            "metric": "coherent_share",
            "value": overlap.coherent_share,
        }
    )
    result.rows.append(
        {"metric": "explained_share (>=1 rule)", "value": overlap.explained_share}
    )
    result.rows.append(
        {
            "metric": "explained_share (1-3 rules)",
            "value": overlap.explained_up_to_3_share,
        }
    )
    result.series["fig14a/rule-count-histogram"] = (
        list(overlap.rule_count_histogram.keys()),
        list(overlap.rule_count_histogram.values()),
    )

    # Fig. 14b: WoE distributions of top XGB key features for TP vs FP.
    classifier = pipeline.classifier
    assert isinstance(classifier, GradientBoostedTrees)
    # Map gains back to original columns (FeatureReducer kept a subset).
    reducer = pipeline.transformers[0]
    kept = np.flatnonzero(reducer.keep_)
    gains = classifier.average_gain()
    key_count = len(schema.key_columns())
    key_features = [
        (matrix_test.columns[kept[j]], gains[j])
        for j in np.argsort(-gains, kind="stable")
        if kept[j] < key_count  # key (WoE) columns only
    ][:4]
    columns = [name for name, _ in key_features]
    distributions = woe_distributions_by_outcome(test, woe, predictions, columns)
    for name in columns:
        tp = distributions[name]["tp"]
        fp = distributions[name]["fp"]
        result.series[f"fig14b/{name}/tp"] = (list(range(tp.size)), tp.tolist())
        result.series[f"fig14b/{name}/fp"] = (list(range(fp.size)), fp.tolist())
        result.rows.append(
            {
                "metric": f"woe_median_tp/{name}",
                "value": float(np.median(tp)) if tp.size else float("nan"),
            }
        )
        result.rows.append(
            {
                "metric": f"woe_median_fp/{name}",
                "value": float(np.median(fp)) if fp.size else float("nan"),
            }
        )

    result.notes["coherent_share"] = overlap.coherent_share
    result.notes["explained_share"] = overlap.explained_share
    return result
