"""Baseline classifiers: dummy coin-toss and the rule-based classifier.

The dummy classifier (DUM) bounds the worst case (Table 3's last row:
everything ≈ 0.5). The rule-based classifier (RBC) predicts from Step-1
tagging rules alone: a target-IP record is DDoS when any of its flows
matched an accepted rule — the "interpretable-only" baseline whose
surprisingly strong SAS score (≈ 0.917 Fβ) the paper highlights.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.features.aggregation import AggregatedDataset
from repro.core.models.base import Classifier


class DummyClassifier(Classifier):
    """Uniform random guessing — the worst conceivable classifier."""

    name = "DUM"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._fitted = False

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DummyClassifier":
        # No check_fit_inputs: the dummy ignores features entirely, so
        # NaNs (pre-imputation matrices) are acceptable here.
        if np.asarray(X).shape[0] != np.asarray(y).shape[0]:
            raise ValueError("X and y length mismatch")
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("DummyClassifier is not fitted")
        rng = np.random.default_rng(self.seed)
        return rng.integers(0, 2, size=np.asarray(X).shape[0]).astype(np.int64)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(X).shape[0], 0.5)


class RuleBasedClassifier:
    """Predicts per-target records from annotated tagging rules.

    Operates on :class:`AggregatedDataset` rather than feature matrices:
    the prediction is "any flow of this record matched one of the
    accepted rules". Optionally restricted to a subset of rule ids.
    """

    name = "RBC"

    def __init__(self, rule_ids: Optional[Sequence[str]] = None):
        self._rule_ids = frozenset(rule_ids) if rule_ids is not None else None

    def predict_records(self, data: AggregatedDataset) -> np.ndarray:
        """Predict labels for aggregated records from their rule tags."""
        if data.rule_tags is None:
            raise ValueError(
                "AggregatedDataset carries no rule annotations; aggregate "
                "with a rule set to use the RBC"
            )
        out = np.zeros(len(data), dtype=np.int64)
        for i, tags in enumerate(data.rule_tags):
            if self._rule_ids is None:
                out[i] = 1 if tags else 0
            else:
                out[i] = 1 if any(t in self._rule_ids for t in tags) else 0
        return out
