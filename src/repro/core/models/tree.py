"""CART decision tree with histogram split search.

Supports the hyperparameters of the paper's grid (Appendix C, Table 4):
``ccp_alpha`` (minimal cost-complexity pruning), ``min_impurity_decrease``,
``min_samples_leaf`` and ``min_samples_split``, plus ``max_depth``.

The trainer builds per-(feature, bin) count/positive histograms with one
combined-key ``bincount`` per node and searches every feature's split in
a single vectorised pass; at each split only the smaller child is
re-scanned, the sibling's histograms being the parent's minus the small
child's — exact for CART, whose histograms hold integer counts, so the
fitted tree is bit-identical to the original per-feature scan. The
tree grows and prunes as a ``_Node`` graph and is compiled once to a
flat-array :class:`~repro.core.models.kernels.TreeKernel`, which handles
all prediction (iterative node-index propagation) and is the fitted
state; the graph does not outlive ``fit``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import obs
from repro.core.models.base import Classifier, check_fit_inputs
from repro.core.models.binning import DEFAULT_MAX_BINS, QuantileBinner
from repro.core.models.kernels import HistogramScratch, TreeKernel
from repro.obs import names


@dataclass
class _Node:
    n: int
    value: float  # P(y=1) in this node
    impurity: float  # gini
    feature: Optional[int] = None
    threshold: float = 0.0  # raw-value threshold; left: x <= threshold
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(pos: float, total: float) -> float:
    if total <= 0:
        return 0.0
    p = pos / total
    return 2.0 * p * (1.0 - p)


class DecisionTree(Classifier):
    """Binary CART classifier (gini impurity, histogram splits)."""

    name = "DT"

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 2,
        min_samples_leaf: int = 5,
        min_impurity_decrease: float = 0.0,
        ccp_alpha: float = 0.0,
        max_bins: int = DEFAULT_MAX_BINS,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if ccp_alpha < 0:
            raise ValueError("ccp_alpha must be non-negative")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.ccp_alpha = ccp_alpha
        self.max_bins = max_bins
        self._binner = QuantileBinner(max_bins)
        #: Compiled flat-array tree — the fitted state.
        self.kernel_: Optional[TreeKernel] = None
        self._n_train = 0

    def get_params(self) -> dict[str, object]:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "min_impurity_decrease": self.min_impurity_decrease,
            "ccp_alpha": self.ccp_alpha,
        }

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X, y = check_fit_inputs(X, y)
        with obs.span(names.SPAN_MODELS_FIT):
            binned = self._binner.fit_transform(X)
            self._n_train = X.shape[0]
            scratch = HistogramScratch(binned, self.max_bins)
            index = np.arange(X.shape[0])
            root = self._build(binned, y.astype(np.float64), index, 0, scratch, None)
            if self.ccp_alpha > 0:
                self._prune(root)
            self.kernel_ = TreeKernel.from_cart_root(root)
        obs.counter(names.C_MODELS_TREES_BUILT).inc()
        obs.counter(names.C_MODELS_KERNEL_COMPILES).inc()
        obs.counter(names.C_MODELS_HISTOGRAM_ROWS).inc(scratch.rows_scanned)
        assert self.kernel_ is not None
        obs.gauge(names.G_MODELS_ENSEMBLE_NODES).set(self.kernel_.n_nodes)
        return self

    def _build(
        self,
        binned: np.ndarray,
        y: np.ndarray,
        index: np.ndarray,
        depth: int,
        scratch: HistogramScratch,
        hist: Optional[tuple[np.ndarray, np.ndarray]],
    ) -> _Node:
        n = index.shape[0]
        if hist is None:
            pos = float(y[index].sum())
        else:
            # Every row lands in exactly one bin of feature 0, so its
            # positive histogram sums to the node total (exact: counts).
            pos = float(hist[1][0].sum())
        node = _Node(n=n, value=pos / n, impurity=_gini(pos, n))
        if (
            depth >= self.max_depth
            or n < self.min_samples_split
            or pos == 0.0
            or pos == n
        ):
            return node

        B = self.max_bins
        if hist is None:
            total_hist, pos_hist = scratch.pair(index, None, y[index])
            total_hist, pos_hist = total_hist[0], pos_hist[0]
        else:
            total_hist, pos_hist = hist

        # Vectorised split search over all (feature, bin) candidates.
        # Padding bins past a feature's real bin count are empty, so
        # their right side is 0 samples and min_samples_leaf rejects
        # them — no per-feature bookkeeping needed.
        left_n = np.cumsum(total_hist, axis=1)[:, :-1]
        left_pos = np.cumsum(pos_hist, axis=1)[:, :-1]
        right_n = n - left_n
        right_pos = pos - left_pos
        valid = (left_n >= self.min_samples_leaf) & (right_n >= self.min_samples_leaf)
        if not valid.any():
            return node
        with np.errstate(divide="ignore", invalid="ignore"):
            p_l = np.where(left_n > 0, left_pos / left_n, 0.0)
            p_r = np.where(right_n > 0, right_pos / right_n, 0.0)
        gini_l = 2.0 * p_l * (1.0 - p_l)
        gini_r = 2.0 * p_r * (1.0 - p_r)
        weighted = (left_n * gini_l + right_n * gini_r) / n
        # Impurity decrease weighted by node share of the training
        # set (sklearn's min_impurity_decrease convention).
        gain = (n / self._n_train) * (node.impurity - weighted)
        gain[~valid] = -np.inf
        # Flat C-order argmax = lowest feature then lowest bin on ties,
        # matching the original first-feature-wins per-feature scan.
        k = int(np.argmax(gain))
        best_gain = float(gain.flat[k])
        if not (best_gain > 0.0 and best_gain >= self.min_impurity_decrease):
            return node

        feature, split_bin = divmod(k, B - 1)
        node.feature = feature
        node.threshold = self._binner.threshold(feature, split_bin)
        go_left = binned[index, feature] <= split_bin
        left_index = index[go_left]
        right_index = index[~go_left]
        n_l = left_index.shape[0]
        pos_l = float(left_pos[feature, split_bin])

        def wants_hist(m: int, p: float) -> bool:
            # Mirrors the stopping test above: a child that will return
            # a leaf immediately never needs its histograms.
            return (
                depth + 1 < self.max_depth
                and m >= self.min_samples_split
                and p != 0.0
                and p != m
            )

        hist_l = hist_r = None
        if wants_hist(n_l, pos_l) or wants_hist(n - n_l, pos - pos_l):
            # Scan only the smaller child; the sibling's histograms are
            # parent − small, exact because counts are integers.
            small_is_left = n_l <= n - n_l
            small_index = left_index if small_is_left else right_index
            st, sp = scratch.pair(small_index, None, y[small_index])
            st, sp = st[0], sp[0]
            big = (total_hist - st, pos_hist - sp)
            hist_l, hist_r = ((st, sp), big) if small_is_left else (big, (st, sp))
            if not wants_hist(n_l, pos_l):
                hist_l = None
            if not wants_hist(n - n_l, pos - pos_l):
                hist_r = None
        node.left = self._build(binned, y, left_index, depth + 1, scratch, hist_l)
        node.right = self._build(binned, y, right_index, depth + 1, scratch, hist_r)
        return node

    # ------------------------------------------------------------------
    def _prune(self, root: _Node) -> None:
        """Minimal cost-complexity pruning at ``ccp_alpha``."""

        def node_cost(node: _Node) -> float:
            # Misclassification cost share of this node acting as a leaf.
            err = min(node.value, 1.0 - node.value)
            return err * node.n / self._n_train

        def subtree_cost_leaves(node: _Node) -> tuple[float, int]:
            if node.is_leaf:
                return node_cost(node), 1
            assert node.left is not None and node.right is not None
            cl, ll = subtree_cost_leaves(node.left)
            cr, lr = subtree_cost_leaves(node.right)
            return cl + cr, ll + lr

        while True:
            weakest: Optional[tuple[float, _Node]] = None

            def visit(node: _Node) -> None:
                nonlocal weakest
                if node.is_leaf:
                    return
                subtree_cost, leaves = subtree_cost_leaves(node)
                if leaves > 1:
                    g = (node_cost(node) - subtree_cost) / (leaves - 1)
                    if weakest is None or g < weakest[0]:
                        weakest = (g, node)
                assert node.left is not None and node.right is not None
                visit(node.left)
                visit(node.right)

            visit(root)
            if weakest is None or weakest[0] > self.ccp_alpha:
                break
            _, node = weakest
            node.left = None
            node.right = None
            node.feature = None

    # ------------------------------------------------------------------
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.kernel_ is None:
            raise RuntimeError("DecisionTree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        with obs.span(names.SPAN_MODELS_PREDICT):
            return self.kernel_.apply(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)

    def compact(self) -> tuple[np.ndarray, "DecisionTree"]:
        if self.kernel_ is None:
            raise RuntimeError("DecisionTree is not fitted")
        used, kernel = self.kernel_.compact()
        model = copy.copy(self)
        model.kernel_ = kernel
        return used, model

    @property
    def n_leaves(self) -> int:
        if self.kernel_ is None:
            raise RuntimeError("DecisionTree is not fitted")
        return self.kernel_.n_leaves

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if self.kernel_ is None:
            raise RuntimeError("DecisionTree is not fitted")
        return self.kernel_.max_depth()
