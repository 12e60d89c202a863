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

    # ------------------------------------------------------------------
    def _grow_tree(
        self,
        binned: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        scratch: HistogramScratch,
    ):
        """Grow one tree level-wise; returns (kernel, leaf id per sample).

        Per level, every active node's (feature × bin) gradient/hessian
        histograms sit in one stacked (nodes, features, bins) block and
        the best split of *all* nodes is found with one vectorised
        cumsum + argmax pass. Only the smaller child of each split is
        re-scanned (one slotted histogram pass over the level's rows);
        the sibling histogram is written by parent − small subtraction
        straight into the next level's preallocated block. Children are
        materialised at consecutive ids (right == left + 1), so routing
        a level down is the same branchless ``left + (code > bin)`` step
        the inference kernel uses.
        """
        n, n_features = binned.shape
        B = scratch.max_bins
        lam = self.reg_lambda
        mcw = self.min_child_weight
        # Per-node flat arrays, grown as the tree does (node 0 = root).
        feat_l = [LEAF]
        thr_l = [0.0]
        sbin_l = [LEAF]
        left_l = [LEAF]
        right_l = [LEAF]
        g_l = [float(grad.sum())]
        h_l = [float(hess.sum())]
        node_of = np.zeros(n, dtype=np.int32)

        ids: list[int] = []
        HG = HH = None  # (K, F, B) histograms of the frontier nodes
        if n_features > 0 and n >= 2:
            HG, HH = scratch.pair(None, grad, hess)
            ids = [0]

        for depth in range(self.max_depth):
            if not ids:
                break
            K = len(ids)
            assert HG is not None and HH is not None
            gsum = np.array([g_l[i] for i in ids])[:, None, None]
            hsum = np.array([h_l[i] for i in ids])[:, None, None]
            GL = np.cumsum(HG, axis=2)[:, :, :-1]
            HL = np.cumsum(HH, axis=2)[:, :, :-1]
            HR = hsum - HL
            valid = (HL >= mcw) & (HR >= mcw)
            # gain = 0.5 * (GL²/(HL+λ) + GR²/(HR+λ) − gsum²/(hsum+λ)),
            # evaluated with in-place ops to keep temporaries to two
            # (K, F, B-1) buffers. Same operation order as the naive
            # expression, so results are unchanged bit-for-bit.
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = GL * GL
                den = HL + lam
                gain /= den
                GR = np.subtract(gsum, GL, out=den)
                np.multiply(GR, GR, out=GR)
                HR += lam  # validity already checked above
                GR /= HR
                gain += GR
                gain -= gsum * gsum / (hsum + lam)
                gain *= 0.5
            if lam == 0.0:
                # 0/0 only possible with no L2 term (hessians are >= 0).
                gain[np.isnan(gain)] = -np.inf
            np.copyto(gain, -np.inf, where=~valid)
            flat = gain.reshape(K, -1)
            best_pos = np.argmax(flat, axis=1)
            best_gain = flat[np.arange(K), best_pos]
            do_split = best_gain > _MIN_SPLIT_GAIN

            # Materialise the level's splits: routing tables + children.
            assert self.feature_gain_ is not None and self.feature_splits_ is not None
            route_feat = np.full(len(feat_l), -1, dtype=np.int64)
            route_bin = np.zeros(len(feat_l), dtype=np.int64)
            route_left = np.zeros(len(feat_l), dtype=np.int32)
            splits: list[tuple[int, int, int, int]] = []  # (i, nid, lid, rid)
            for i in range(K):
                if not do_split[i]:
                    continue
                nid = ids[i]
                f, kbin = divmod(int(best_pos[i]), B - 1)
                gl = float(GL[i, f, kbin])
                hl = float(HL[i, f, kbin])
                self.feature_gain_[f] += float(best_gain[i])
                self.feature_splits_[f] += 1
                lid = len(feat_l)
                rid = lid + 1
                feat_l[nid] = f
                sbin_l[nid] = kbin
                thr_l[nid] = self._binner.threshold(f, kbin)
                left_l[nid] = lid
                right_l[nid] = rid
                for child_g, child_h in ((gl, hl), (g_l[nid] - gl, h_l[nid] - hl)):
                    feat_l.append(LEAF)
                    thr_l.append(0.0)
                    sbin_l.append(LEAF)
                    left_l.append(LEAF)
                    right_l.append(LEAF)
                    g_l.append(child_g)
                    h_l.append(child_h)
                route_feat[nid] = f
                route_bin[nid] = kbin
                route_left[nid] = lid
                splits.append((i, nid, lid, rid))

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
                ids = []
                break
            counts = np.bincount(child, minlength=len(feat_l))

            # Histogram the smaller child of every split in one slotted
            # pass; siblings come from parent − small subtraction.
            slot_of = np.full(len(feat_l), -1, dtype=np.int64)
            pairs = []  # (parent frontier idx, small id, big id)
            for i, nid, lid, rid in splits:
                if counts[lid] < 2 and counts[rid] < 2:
                    continue  # both children terminal: no hists needed
                small, big = (lid, rid) if counts[lid] <= counts[rid] else (rid, lid)
                slot_of[small] = len(pairs)
                pairs.append((i, small, big))
            ids = []
            if not pairs:
                HG = HH = None
                continue
            n_small = len(pairs)
            slot_r = slot_of[child]
            keep = slot_r >= 0
            srows = rows[keep]
            slots = slot_r[keep]
            HG_small, HH_small = scratch.pair(
                srows, grad.take(srows), hess.take(srows), slots, n_small
            )
            # Assemble the next frontier directly into fresh stacked
            # blocks: small children copy in, siblings subtract in.
            sources = []  # (is_sibling, slot, parent frontier idx)
            for slot, (i, small, big) in enumerate(pairs):
                if counts[small] >= 2:
                    ids.append(small)
                    sources.append((False, slot, i))
                if counts[big] >= 2:
                    ids.append(big)
                    sources.append((True, slot, i))
            HG_next = np.empty((len(ids), n_features, B))
            HH_next = np.empty((len(ids), n_features, B))
            for pos, (is_sibling, slot, i) in enumerate(sources):
                if is_sibling:
                    np.subtract(HG[i], HG_small[slot], out=HG_next[pos])
                    np.subtract(HH[i], HH_small[slot], out=HH_next[pos])
                else:
                    HG_next[pos] = HG_small[slot]
                    HH_next[pos] = HH_small[slot]
            HG, HH = HG_next, HH_next

        g_arr = np.asarray(g_l)
        h_arr = np.asarray(h_l)
        kernel = TreeKernel(
            feature=np.asarray(feat_l, dtype=np.int32),
            threshold=np.asarray(thr_l, dtype=np.float64),
            split_bin=np.asarray(sbin_l, dtype=np.int32),
            left=np.asarray(left_l, dtype=np.int32),
            right=np.asarray(right_l, dtype=np.int32),
            value=-g_arr / (h_arr + lam),
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
