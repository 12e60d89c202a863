"""Experiment E-T3: model comparison (paper Table 3 / Table 5).

Trains every Step-2 model on a random 2/3 of the merged five-IXP
corpus, evaluates on the remaining 1/3 (overall, per attack vector, and
prediction cost), and additionally applies all models — plus the
rule-based classifier (RBC) and the dummy baseline — to the self-attack
set (SAS).

Expected shape (paper): XGB best overall and on SAS near the top; DT at
the bottom of the main group; NB-C/NB-M clearly below; NB-B worst; the
dummy at ~0.5; RBC strong on SAS despite using no learned classifier.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding.matrix import assemble
from repro.core.encoding.woe import WoEEncoder
from repro.core.models.baselines import DummyClassifier, RuleBasedClassifier
from repro.core.models.metrics import ConfusionMatrix, fbeta_score, prediction_cost_mcc
from repro.core.models.pipeline import TABLE5_MODELS, make_pipeline
from repro.core.models.selection import train_test_split
from repro.core.rules.minimize import minimal_rows
from repro.core.rules.mining import mine_rules
from repro.core.rules.model import RuleSet, RuleStatus, tagging_rules
from repro.experiments.attribution import TABLE3_VECTORS, vector_masks
from repro.experiments.common import ExperimentResult, check_scale
from repro.experiments.datasets import (
    DAYS_BY_SCALE,
    balanced_corpus,
    merged_corpus,
    sas_aggregated,
)
from repro.ixp.profiles import ALL_PROFILES
from repro.netflow.dataset import FlowDataset


#: Curation threshold: mined rules are staged at confidence >= 0.8, but
#: only high-precision rules are *accepted* as ACLs — matching the
#: paper's released rule list (all rules there have confidence > 0.9).
ACCEPT_CONFIDENCE = 0.95


def mine_shared_rules(scale: str) -> tuple[RuleSet, tuple]:
    """Mine + minimise + curate rules on the merged balanced flows.

    High-confidence rules are accepted (the automated stand-in for the
    operator review of Fig. 6); the rest stay in staging.
    """
    n_days = DAYS_BY_SCALE[scale]
    flows = FlowDataset.concat(
        [balanced_corpus(p, n_days).flows for p in ALL_PROFILES]
    )
    result = mine_rules(flows)
    rule_set = RuleSet(tagging_rules(result.table.take(minimal_rows(result.table)), result.encoder))
    for rule in rule_set:
        # Curation policy mirroring what domain experts do in the UI:
        # high confidence AND a concrete source-port constraint (rules
        # without one match too broadly to be safe ACLs).
        specific_src = rule.port_src is not None and not rule.port_src.negated
        if rule.confidence >= ACCEPT_CONFIDENCE and specific_src:
            rule_set.set_status(rule.rule_id, RuleStatus.ACCEPT)
    return rule_set, tuple(rule_set.accepted())


def run(scale: str = "small", seed: int = 1, measure_cost: bool = True) -> ExperimentResult:
    """Run the Table 3 / Table 5 experiment."""
    check_scale(scale)
    rule_set, rules = mine_shared_rules(scale)
    merged = merged_corpus(scale, rules=rules)
    sas = sas_aggregated(scale, rules=rules)

    rng = np.random.default_rng(seed)
    train_idx, test_idx = train_test_split(
        len(merged), 1.0 / 3.0, rng, stratify=merged.labels
    )
    train, test = merged.select(train_idx), merged.select(test_idx)
    woe = WoEEncoder().fit(train)
    matrix_train = assemble(train, woe)
    matrix_test = assemble(test, woe)
    matrix_sas = assemble(sas, woe)
    masks = vector_masks(test)

    result = ExperimentResult(experiment="table3-models")
    test_labels = test.labels.astype(int)
    sas_labels = sas.labels.astype(int)

    for name in TABLE5_MODELS:
        pipeline = make_pipeline(name)
        pipeline.fit(matrix_train.X, matrix_train.y)
        predictions = pipeline.predict(matrix_test.X)
        cm = ConfusionMatrix.from_predictions(test_labels, predictions)
        row: dict[str, object] = {
            "model": name,
            "fbeta": cm.fbeta(),
            "f1": cm.f1(),
            "mcc": prediction_cost_mcc(pipeline.predict, matrix_test.X)
            if measure_cost
            else float("nan"),
            "tnr": cm.tnr,
            "fnr": cm.fnr,
            "tpr": cm.tpr,
            "fpr": cm.fpr,
        }
        for vector in TABLE3_VECTORS:
            mask = masks[vector]
            # A per-vector score is only meaningful when the vector is
            # actually attacking in the test period; benign service
            # traffic (legitimate DNS/NTP/SNMP) also attributes to the
            # vector's port and must not form positive-free subsets.
            if (mask & (test_labels == 1)).sum() >= 5:
                row[vector] = fbeta_score(test_labels[mask], predictions[mask])
            else:
                row[vector] = float("nan")
        row["fbeta_sas"] = fbeta_score(sas_labels, pipeline.predict(matrix_sas.X))
        result.rows.append(row)

    # Rule-based classifier: only evaluated on the SAS (validating on
    # the mining data would leak, paper §6.1).
    rbc = RuleBasedClassifier()
    rbc_predictions = rbc.predict_records(sas)
    rbc_cm = ConfusionMatrix.from_predictions(sas_labels, rbc_predictions)
    result.rows.append(
        {
            "model": "RBC",
            "fbeta": float("nan"),
            "f1": float("nan"),
            "mcc": float("nan"),
            "tnr": float("nan"),
            "fnr": float("nan"),
            "tpr": float("nan"),
            "fpr": float("nan"),
            **{v: float("nan") for v in TABLE3_VECTORS},
            "fbeta_sas": rbc_cm.fbeta(),
        }
    )
    result.notes["rbc_sas_tpr"] = rbc_cm.tpr
    result.notes["rbc_sas_tnr"] = rbc_cm.tnr

    dummy = DummyClassifier(seed=seed)
    dummy.fit(matrix_train.X, matrix_train.y)
    dum_pred = dummy.predict(matrix_test.X)
    dum_cm = ConfusionMatrix.from_predictions(test_labels, dum_pred)
    result.rows.append(
        {
            "model": "DUM",
            "fbeta": dum_cm.fbeta(),
            "f1": dum_cm.f1(),
            "mcc": float("nan"),
            "tnr": dum_cm.tnr,
            "fnr": dum_cm.fnr,
            "tpr": dum_cm.tpr,
            "fpr": dum_cm.fpr,
            **{v: float("nan") for v in TABLE3_VECTORS},
            "fbeta_sas": fbeta_score(sas_labels, dummy.predict(matrix_sas.X)),
        }
    )

    best = max(
        (r for r in result.rows if isinstance(r["fbeta"], float) and not np.isnan(r["fbeta"])),
        key=lambda r: r["fbeta"],
    )
    result.notes["best_model"] = best["model"]
    result.notes["n_train"] = len(train)
    result.notes["n_test"] = len(test)
    result.notes["n_rules"] = len(rules)
    return result
