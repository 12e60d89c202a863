"""Classifier interface shared by all Step-2 models."""

from __future__ import annotations

from typing import Optional

import numpy as np


class Classifier:
    """Minimal fit/predict interface on dense float matrices.

    ``predict`` returns int labels in {0, 1}; ``predict_proba`` returns
    P(y=1) per sample for models that support it.
    """

    #: Short display name (Table 3 row label).
    name: str = "classifier"

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Classifier":
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability of the positive class; default thresholds labels."""
        return self.predict(X).astype(np.float64)

    def get_params(self) -> dict[str, object]:
        """Hyperparameters, for grid-search bookkeeping."""
        return {}

    def compact(self) -> tuple[Optional[np.ndarray], "Classifier"]:
        """The input columns the fitted model reads, and a model that
        reads just those (as its columns 0, 1, ...) to the same outputs.

        ``(None, self)`` for a model that reads every column; the tree
        models, whose splits name their columns, override it.
        """
        return None, self


def check_fit_inputs(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate and canonicalise training inputs."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(np.int64).ravel()
    if X.ndim != 2:
        raise ValueError("X must be a 2-d matrix")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y length mismatch")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on empty data")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary (0/1)")
    if np.isnan(X).any():
        raise ValueError("X contains NaN; run an Imputer first")
    return X, y
