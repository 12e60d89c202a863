"""Gradient-boosted decision trees (the paper's XGBoost stand-in).

Implements second-order (Newton) boosting on logistic loss with
histogram split search — the core algorithm of XGBoost [23] — including
L2 leaf regularisation, shrinkage, and per-feature *gain* accounting,
which drives the Fig. 10 feature-importance analysis ("average gain for
all splits").

The trainer is a level-wise histogram grower over the compiled-kernel
layer (:mod:`repro.core.models.kernels`): trees grow directly in flat
struct-of-arrays form, split search runs on binned codes against
per-(node, feature, bin) gradient/hessian histograms built with one
combined-key ``bincount`` per level, sibling histograms come from the
parent − child subtraction trick, and each round's margin update is a
single gather through the per-sample node-membership array — no
recursive traversal anywhere.
"""

from __future__ import annotations

import copy
from typing import Optional

import numpy as np

from repro import obs
from repro.core.models.base import Classifier, check_fit_inputs
from repro.core.models.binning import DEFAULT_MAX_BINS, QuantileBinner
from repro.core.models.kernels import (
    LEAF,
    ForestKernel,
    HistogramScratch,
    TreeKernel,
)
from repro.obs import names

#: Minimum split gain (the gamma pruning threshold).
_MIN_SPLIT_GAIN = 1e-9


def _can_split(n_rows: int, hsum: float, min_child_weight: float) -> bool:
    """The frontier's admission test: could any cell of this node be valid?

    A valid cell needs ``HL >= mcw`` and ``fl(hsum - HL) >= mcw``. With
    ``hsum < 2 * mcw`` none has both: if ``mcw <= HL <= hsum`` then
    ``HL <= hsum <= 2 * HL``, the subtraction is exact (Sterbenz) and its
    result below ``mcw``; if ``HL > hsum`` the right side is negative
    and ``mcw >= 0``. So the test is exact, not a heuristic: a node it
    turns away would have searched every cell and stayed a leaf.
    """
    return n_rows >= 2 and hsum >= 2.0 * min_child_weight


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


class GradientBoostedTrees(Classifier):
    """Newton-boosted tree ensemble for binary classification."""

    name = "XGB"

    def __init__(
        self,
        n_estimators: int = 60,
        max_depth: int = 6,
        learning_rate: float = 0.1,
        reg_lambda: float = 5.0,
        min_child_weight: float = 10.0,
        max_bins: int = DEFAULT_MAX_BINS,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if reg_lambda < 0:
            raise ValueError("reg_lambda must be non-negative")
        if not min_child_weight >= 0:  # the frontier test assumes it (and NaN is not a weight)
            raise ValueError("min_child_weight must be non-negative")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.reg_lambda = reg_lambda
        self.min_child_weight = min_child_weight
        self.max_bins = max_bins
        self._binner = QuantileBinner(max_bins)
        #: Compiled flat-array ensemble — the fitted state.
        self.forest_: Optional[ForestKernel] = None
        self.base_score_ = 0.0
        #: Per-feature accumulated split gain and split count (Fig. 10).
        self.feature_gain_: Optional[np.ndarray] = None
        self.feature_splits_: Optional[np.ndarray] = None

    def get_params(self) -> dict[str, object]:
        return {
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "learning_rate": self.learning_rate,
            "reg_lambda": self.reg_lambda,
        }

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        X, y = check_fit_inputs(X, y)
        with obs.span(names.SPAN_MODELS_FIT):
            self._fit(X, y)
        obs.counter(names.C_MODELS_TREES_BUILT).inc(self.n_estimators)
        obs.counter(names.C_MODELS_KERNEL_COMPILES).inc()
        assert self.forest_ is not None
        obs.gauge(names.G_MODELS_ENSEMBLE_NODES).set(self.forest_.n_nodes)
        return self

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        binned = self._binner.fit_transform(X)
        n, n_features = X.shape
        self.feature_gain_ = np.zeros(n_features, dtype=np.float64)
        self.feature_splits_ = np.zeros(n_features, dtype=np.int64)

        pos_rate = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
        self.base_score_ = float(np.log(pos_rate / (1.0 - pos_rate)))
        margin = np.full(n, self.base_score_, dtype=np.float64)

        # Histograms only need bins that actually occur: sizing them to
        # the widest feature keeps the cumsum/gain algebra tight when
        # features have few distinct values (padding bins past a
        # feature's real count stay empty and can never win a split).
        B = max((self._binner.n_bins(j) for j in range(n_features)), default=2)
        scratch = HistogramScratch(binned, max(B, 2))
        yf = y.astype(np.float64)
        kernels = []
        for _ in range(self.n_estimators):
            p = _sigmoid(margin)
            grad = p - yf
            hess = np.maximum(p * (1.0 - p), 1e-12)
            kernel, node_of = self._grow_tree(binned, grad, hess, scratch)
            kernels.append(kernel)
            # The per-sample node-membership array makes the round's
            # margin update one gather — no re-traversal of the tree.
            margin += self.learning_rate * kernel.value[node_of]
        self.forest_ = ForestKernel.from_trees(kernels)
        obs.counter(names.C_MODELS_HISTOGRAM_ROWS).inc(scratch.rows_scanned)

    # ------------------------------------------------------------------
    def _grow_tree(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        scratch: HistogramScratch,
    ):
        """Grow one tree level-wise; returns (kernel, leaf id per sample).

        Per level, every frontier node's (feature × bin) gradient/hessian
        histograms sit in one stacked (nodes, features, bins) block and
        the best split of *all* nodes is found with one vectorised
        cumsum + argmax pass. The frontier holds only nodes that can
        split: the root and both children of every split pass
        :func:`_can_split` or stay leaves unsearched, so a split whose
        children both fail builds no histogram and a root that fails
        builds none at all. Only the smaller child of each split is
        scanned (one slotted histogram pass over the level's rows); the
        sibling histogram is written by parent − small subtraction
        straight into the next level's preallocated block. Children are
        materialised at consecutive ids (right == left + 1), so routing
        a level down is the same branchless ``left + (code > bin)`` step
        the inference kernel uses.
        """
        n, n_features = binned.shape
        B = scratch.max_bins
        lam = self.reg_lambda
        mcw = self.min_child_weight
        assert self.feature_gain_ is not None and self.feature_splits_ is not None
        # Per-node flat arrays, grown as the tree does (node 0 = root).
        feat_l = [LEAF]
        thr_l = [0.0]
        sbin_l = [LEAF]
        left_l = [LEAF]
        g_l = [float(grad.sum())]
        h_l = [float(hess.sum())]
        node_of = np.zeros(n, dtype=np.int32)

        ids: list[int] = []  # the frontier
        HG = HH = None  # its (K, F, B) histograms
        if n_features > 0 and _can_split(n, h_l[0], mcw):
            HG, HH = scratch.pair(None, grad, hess)
            ids = [0]

        for depth in range(self.max_depth):
            if not ids:
                break
            assert HG is not None and HH is not None
            gsum = np.array([g_l[i] for i in ids])
            hsum = np.array([h_l[i] for i in ids])
            GL = np.cumsum(HG, axis=2)[:, :, :-1]
            HL = np.cumsum(HH, axis=2)[:, :, :-1]
            HR = hsum[:, None, None] - HL
            # gain = 0.5 * (GL²/(HL+λ) + GR²/(HR+λ) − gsum²/(hsum+λ)) on
            # the valid cells only, gathered in (node, feature, bin)
            # order: per cell the same operations in the same order as
            # over the whole block, so bit-identical, and a node's first
            # maximum is the first (feature, bin) to reach it.
            k, f, b = np.nonzero((HL >= mcw) & (HR >= mcw))
            gl, hl, hr = GL[k, f, b], HL[k, f, b], HR[k, f, b]
            with np.errstate(divide="ignore", invalid="ignore"):
                gr = gsum[k] - gl
                gain = gl * gl / (hl + lam) + gr * gr / (hr + lam)
                gain -= (gsum * gsum / (hsum + lam))[k]
                gain *= 0.5
            if lam == 0.0:
                # Only with no L2 term can a side without hessian divide
                # by zero (0/0, or x/0 when rounding left it a gradient):
                # a cell that does is no candidate.
                gain[~np.isfinite(gain)] = -np.inf
            bounds = np.searchsorted(k, np.arange(len(ids) + 1)).tolist()

            # Materialise the level's splits: routing tables + children.
            route_feat = np.full(len(feat_l), -1, dtype=np.int64)
            route_bin = np.zeros(len(feat_l), dtype=np.int64)
            route_left = np.zeros(len(feat_l), dtype=np.int32)
            splits: list[tuple[int, int]] = []  # (frontier idx, left child id)
            for i, nid in enumerate(ids):
                lo, hi = bounds[i], bounds[i + 1]
                if lo == hi:
                    continue
                best = lo + int(np.argmax(gain[lo:hi]))
                if not gain[best] > _MIN_SPLIT_GAIN:
                    continue
                feature, kbin = int(f[best]), int(b[best])
                self.feature_gain_[feature] += float(gain[best])
                self.feature_splits_[feature] += 1
                lid = len(feat_l)
                feat_l[nid] = route_feat[nid] = feature
                sbin_l[nid] = route_bin[nid] = kbin
                thr_l[nid] = self._binner.threshold(feature, kbin)
                left_l[nid] = route_left[nid] = lid
                left_g, left_h = float(gl[best]), float(hl[best])
                for child_g, child_h in ((left_g, left_h), (g_l[nid] - left_g, h_l[nid] - left_h)):
                    feat_l.append(LEAF)
                    thr_l.append(0.0)
                    sbin_l.append(LEAF)
                    left_l.append(LEAF)
                    g_l.append(child_g)
                    h_l.append(child_h)
                splits.append((i, lid))

            if not splits:
                break
            # Route samples of splitting nodes down one level (binned
            # codes, not raw values: bin(x) <= k  <=>  x <= edges[k];
            # children are consecutive, so right = left + 1).
            rows = np.flatnonzero(route_feat[node_of] >= 0)
            nid_r = node_of[rows]
            codes_r = binned.ravel().take(rows * n_features + route_feat[nid_r])
            child = route_left[nid_r] + (codes_r > route_bin[nid_r])
            node_of[rows] = child
            if depth + 1 >= self.max_depth:
                break

            # The next frontier: of every split, the children that can
            # split again. The smaller child is scanned, all of a level
            # in one slotted pass; its sibling is parent − small.
            counts = np.bincount(child, minlength=len(feat_l)).tolist()
            slot_of = np.full(len(feat_l), -1, dtype=np.int64)
            sources = []  # (node id, parent frontier idx, scanned slot, is_sibling)
            n_slots = 0
            for i, lid in splits:
                small, big = (lid, lid + 1) if counts[lid] <= counts[lid + 1] else (lid + 1, lid)
                admitted = [c for c in (small, big) if _can_split(counts[c], h_l[c], mcw)]
                if not admitted:
                    continue  # both children stay leaves: no histogram
                slot_of[small] = n_slots
                sources += [(c, i, n_slots, c == big) for c in admitted]
                n_slots += 1
            ids = [source[0] for source in sources]
            if not ids:
                break
            slot_r = slot_of[child]
            scanned = slot_r >= 0
            srows = rows[scanned]
            HG_small, HH_small = scratch.pair(
                srows, grad.take(srows), hess.take(srows), slot_r[scanned], n_slots
            )
            HG_next = np.empty((len(ids), n_features, B))
            HH_next = np.empty((len(ids), n_features, B))
            for pos, (_, i, slot, is_sibling) in enumerate(sources):
                if is_sibling:
                    np.subtract(HG[i], HG_small[slot], out=HG_next[pos])
                    np.subtract(HH[i], HH_small[slot], out=HH_next[pos])
                else:
                    HG_next[pos] = HG_small[slot]
                    HH_next[pos] = HH_small[slot]
            HG, HH = HG_next, HH_next

        left = np.asarray(left_l, dtype=np.int32)
        kernel = TreeKernel(
            feature=np.asarray(feat_l, dtype=np.int32),
            threshold=np.asarray(thr_l, dtype=np.float64),
            split_bin=np.asarray(sbin_l, dtype=np.int32),
            left=left,
            right=np.where(left == LEAF, LEAF, left + 1).astype(np.int32),
            value=-np.asarray(g_l) / (np.asarray(h_l) + lam),
        )
        return kernel, node_of

    # ------------------------------------------------------------------
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw margin before the sigmoid (compiled-kernel inference)."""
        if self.forest_ is None or self.forest_.n_trees == 0:
            raise RuntimeError("GradientBoostedTrees is not fitted")
        X = np.asarray(X, dtype=np.float64)
        with obs.span(names.SPAN_MODELS_PREDICT):
            return self.forest_.margin(X, self.base_score_, self.learning_rate)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(X))

    def compact(self) -> tuple[np.ndarray, "GradientBoostedTrees"]:
        if self.forest_ is None:
            raise RuntimeError("GradientBoostedTrees is not fitted")
        used, forest = self.forest_.compact()
        model = copy.copy(self)
        model.forest_ = forest
        return used, model

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)

    def average_gain(self) -> np.ndarray:
        """Average split gain per feature (Fig. 10's importance measure)."""
        if self.feature_gain_ is None or self.feature_splits_ is None:
            raise RuntimeError("GradientBoostedTrees is not fitted")
        with np.errstate(divide="ignore", invalid="ignore"):
            avg = np.where(
                self.feature_splits_ > 0,
                self.feature_gain_ / np.maximum(self.feature_splits_, 1),
                0.0,
            )
        return avg
