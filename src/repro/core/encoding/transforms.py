"""Numeric feature transformers of the preprocessing pipelines (Fig. 8).

All transformers follow the fit/transform contract on plain float64
matrices and are deliberately small: Imputer (I), Standardizer (S),
MinMaxNormalizer (N), FeatureReducer (FR).
"""

from __future__ import annotations

import numpy as np


class Transformer:
    """Base fit/transform interface."""

    def fit(self, X: np.ndarray) -> "Transformer":
        raise NotImplementedError

    def transform(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class Imputer(Transformer):
    """Replace NaN values with a constant (the paper uses -1)."""

    def __init__(self, fill_value: float = -1.0):
        self.fill_value = fill_value

    def fit(self, X: np.ndarray) -> "Imputer":
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if not np.isnan(X).any():
            return X
        out = X.copy()
        out[np.isnan(out)] = self.fill_value
        return out


class Standardizer(Transformer):
    """Standardise columns to zero mean and unit variance."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=np.float64)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("Standardizer is not fitted")
        return (np.asarray(X, dtype=np.float64) - self.mean_) / self.scale_


class MinMaxNormalizer(Transformer):
    """Scale columns into [0, 1] (required by multinomial naive Bayes)."""

    def __init__(self) -> None:
        self.min_: np.ndarray | None = None
        self.range_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "MinMaxNormalizer":
        X = np.asarray(X, dtype=np.float64)
        self.min_ = X.min(axis=0)
        value_range = X.max(axis=0) - self.min_
        value_range[value_range == 0.0] = 1.0
        self.range_ = value_range
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.min_ is None or self.range_ is None:
            raise RuntimeError("MinMaxNormalizer is not fitted")
        out = (np.asarray(X, dtype=np.float64) - self.min_) / self.range_
        # Transform-time values outside the fitted range are clipped so
        # downstream non-negativity assumptions hold.
        return np.clip(out, 0.0, 1.0)


class FeatureReducer(Transformer):
    """Drop near-constant columns identified on the training data (FR).

    The aggregation deliberately produces redundant columns (Appendix B);
    columns whose variance falls below ``threshold`` carry no usable
    signal and are removed before modeling.
    """

    def __init__(self, threshold: float = 1e-12):
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold
        self.keep_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "FeatureReducer":
        X = np.asarray(X, dtype=np.float64)
        # All-NaN columns have undefined variance; they are exactly the
        # columns we want dropped, so compute on zero-filled data and
        # merge: a column is kept iff its non-NaN values vary.
        mask = np.isnan(X)
        filled = np.where(mask, 0.0, X)
        counts = (~mask).sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(counts > 0, filled.sum(axis=0) / np.maximum(counts, 1), 0.0)
            squares = np.where(
                counts > 0,
                (np.where(mask, 0.0, (X - means) ** 2)).sum(axis=0) / np.maximum(counts, 1),
                0.0,
            )
        variances = np.where(counts > 1, squares, 0.0)
        keep = variances > self.threshold
        if not keep.any():
            # Never reduce to an empty matrix; keep everything instead.
            keep = np.ones(X.shape[1], dtype=bool)
        self.keep_ = keep
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.keep_ is None:
            raise RuntimeError("FeatureReducer is not fitted")
        return np.asarray(X, dtype=np.float64)[:, self.keep_]
