"""Quantile binning shared by the tree-based models.

Histogram-based tree growing (the strategy of LightGBM/XGBoost's hist
mode) first quantises every feature into at most ``max_bins`` quantile
bins; split search then scans bin boundaries instead of raw thresholds,
which makes split finding O(bins) per feature with vectorised gradient
histograms.
"""

from __future__ import annotations

import numpy as np

DEFAULT_MAX_BINS = 128


def _interpolate(ordered: np.ndarray, quantiles: np.ndarray) -> np.ndarray:
    """Quantiles of every column of a column-sorted matrix, one row each.

    ``np.quantile(column, quantiles)`` with its default ``"linear"``
    method, bit for bit (the tests pin it): the quantile sits at virtual
    index ``q * (n - 1)`` and is interpolated between the two samples
    around it from the lower one, or from the upper one when nearer to
    it, which keeps the result monotone in ``q``.
    """
    last = ordered.shape[0] - 1
    virtual = last * quantiles
    below = np.floor(virtual)
    weight = (virtual - below)[:, None]
    index = below.astype(np.intp)
    lower = ordered[index]
    upper = ordered[np.minimum(index + 1, last)]
    span = upper - lower
    edges = lower + span * weight
    np.subtract(upper, span * (1 - weight), out=edges, where=weight >= 0.5)
    return edges


class QuantileBinner:
    """Maps float features to small integer bin indices."""

    def __init__(self, max_bins: int = DEFAULT_MAX_BINS):
        if not 2 <= max_bins <= 256:
            raise ValueError("max_bins must be in [2, 256]")
        self.max_bins = max_bins
        #: Per-feature ascending arrays of bin upper edges (exclusive of
        #: the last implicit +inf bin).
        self.edges_: list[np.ndarray] | None = None
        #: Per-feature bin count, ``len(edges) + 1`` (int64).
        self.n_bins_: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self.edges_ is not None

    def fit(self, X: np.ndarray) -> "QuantileBinner":
        # One sort of the matrix serves every quantile of every column.
        ordered = np.array(X, dtype=np.float64)
        ordered.sort(axis=0)
        quantiles = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
        edges = _interpolate(ordered, quantiles)
        # Kept per column: the distinct edges (they ascend, interpolation
        # being monotone) below the column maximum. An edge at or above
        # it can never separate samples; dropping it also collapses
        # constant columns to a single bin. NaN sorts last and compares
        # false, so a column with a NaN keeps no edge, and neither does
        # an interpolation between two infinities.
        keep = edges < ordered[-1]
        keep[1:] &= edges[1:] != edges[:-1]
        kept = keep.sum(axis=0)
        self.edges_ = np.split(edges.T[keep.T], np.cumsum(kept))[:-1]
        self.n_bins_ = kept.astype(np.int64) + 1
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Return uint8 bin indices, shape like ``X``."""
        if self.edges_ is None:
            raise RuntimeError("QuantileBinner is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != len(self.edges_):
            raise ValueError("feature count mismatch")
        binned = np.empty(X.shape, dtype=np.uint8)
        for j, edges in enumerate(self.edges_):
            binned[:, j] = np.searchsorted(edges, X[:, j], side="left")
        return binned

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def n_bins(self, feature: int) -> int:
        """Number of distinct bins of one feature."""
        if self.n_bins_ is None:
            raise RuntimeError("QuantileBinner is not fitted")
        return int(self.n_bins_[feature])

    def threshold(self, feature: int, bin_index: int) -> float:
        """The raw-value threshold of splitting at ``bin <= bin_index``."""
        if self.edges_ is None:
            raise RuntimeError("QuantileBinner is not fitted")
        edges = self.edges_[feature]
        if not 0 <= bin_index < len(edges):
            raise IndexError("bin index has no upper edge")
        return float(edges[bin_index])
