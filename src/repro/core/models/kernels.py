"""Flat-array tree kernels: compiled forest inference and histogram growing.

Fitted trees live as struct-of-arrays, the layout histogram GBDT
implementations (XGBoost [23], LightGBM) use for speed, instead of
Python node graphs walked one recursive call per node:

* :class:`TreeKernel` — one tree as parallel arrays ``feature[]``,
  ``threshold[]``/``split_bin[]``, ``left[]``, ``right[]``, ``value[]``
  (plus the per-node sample count ``n[]`` and gini ``impurity[]`` for
  CART trees). Prediction is iterative node-index propagation:
  O(depth) vectorised numpy ops per batch, no recursion.
* :class:`ForestKernel` — an ensemble as the same arrays stacked with a
  per-tree ``offsets`` table. Stacking renumbers every tree level-order
  so each split's children are adjacent (``right == left + 1``) and
  makes leaves self-loop with a ``+inf`` routing threshold; propagation
  then needs no masking and no ``right`` gather — a fixed ``max_depth``
  iterations of ``node = left[node] + (x > threshold[node])`` settle
  every sample in every tree simultaneously through one
  (samples × trees) node-state matrix, processed in row blocks sized to
  stay cache-resident. The margin is accumulated tree-by-tree in
  ensemble order afterwards, so results stay bit-identical to a
  sequential per-tree traversal (``tests/reference_trees.py``, the
  recursive oracle the property suite pins both kernels to).
* :class:`HistogramScratch` — the shared histogram machinery of the
  training hot paths: per-(node, feature, bin) histograms from a flat
  ``code + feature * n_bins`` key per (sample, feature), staged once
  per fit and reused across every node, level and boosting round (one
  row gather and two ``bincount`` s per call, accumulating rows in
  ascending order exactly like a per-node, per-feature scan). Sibling
  histograms are derived by subtraction (``child = parent − other
  child``), so only the smaller child of every split is ever scanned.

Compiled kernels are also the wire format: pickling a fitted tree model
ships these compact arrays (a few contiguous numpy buffers) instead of
thousands of node objects, which is what the sharded engine's model
re-broadcast sends to workers, and what ``persistence.py`` serialises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.models.tree import _Node

__all__ = [
    "TreeKernel",
    "ForestKernel",
    "HistogramScratch",
]

#: Sentinel in ``feature[]`` / ``split_bin[]`` marking a leaf node.
LEAF = -1

def _compact_features(feature: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The features the splits of ``feature[]`` read, ascending, and
    ``feature[]`` renumbered onto them (``used[i]`` becomes ``i``, leaves
    stay ``LEAF``): routing ``X[:, used]`` on the renumbered array reads
    the same value at every node as routing ``X`` on the original."""
    split = feature != LEAF
    used = np.unique(feature[split])
    return used, np.where(split, np.searchsorted(used, feature), LEAF).astype(np.int32)


#: Rows per propagation block: temporaries stay ~MBs so the node-state
#: matrix and gather targets remain cache-resident.
_BLOCK_ROWS = 4096


# ----------------------------------------------------------------------
# Flat tree / forest containers
# ----------------------------------------------------------------------
@dataclass
class TreeKernel:
    """One decision tree as parallel flat arrays (node 0 is the root).

    ``feature[i] == LEAF`` marks node *i* as a leaf; ``value[i]`` is its
    output (P(y=1) for CART, the additive leaf weight for boosting).
    Internal nodes route ``x[feature] <= threshold`` to ``left`` and the
    rest to ``right``; ``split_bin`` carries the equivalent binned-code
    threshold (``bin <= split_bin``) when the tree was grown level-wise
    on binned codes, or ``LEAF`` when unknown (CART, compiled from its
    node graph).
    Children always carry larger indices than their parent.
    """

    feature: np.ndarray  # int32, LEAF for leaves
    threshold: np.ndarray  # float64 raw-value threshold
    split_bin: np.ndarray  # int32 binned-code threshold, LEAF if unknown
    left: np.ndarray  # int32 child index, LEAF for leaves
    right: np.ndarray  # int32 child index, LEAF for leaves
    value: np.ndarray  # float64 node output
    #: CART bookkeeping (None for boosting trees): per-node sample count
    #: and gini impurity.
    n: Optional[np.ndarray] = None
    impurity: Optional[np.ndarray] = None

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_leaves(self) -> int:
        return int((self.feature == LEAF).sum())

    def max_depth(self) -> int:
        """Depth of the deepest leaf (root = depth 0)."""
        depth = np.zeros(self.n_nodes, dtype=np.int32)
        internal = np.flatnonzero(self.feature != LEAF)
        # Children always carry larger indices than their parent, so one
        # ascending pass settles every node's depth.
        for i in internal:
            depth[self.left[i]] = depth[i] + 1
            depth[self.right[i]] = depth[i] + 1
        return int(depth.max()) if self.n_nodes else 0

    def compact(self) -> tuple[np.ndarray, "TreeKernel"]:
        """The features this tree reads, and the tree renumbered onto them."""
        used, feature = _compact_features(self.feature)
        return used, replace(self, feature=feature)

    # ------------------------------------------------------------------
    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf value per row of ``X`` via iterative index propagation."""
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        # Same leaf trick as the forest path: +inf thresholds make every
        # leaf comparison False, and a self-loop keeps the index put.
        thr = np.where(self.feature == LEAF, np.inf, self.threshold)
        own = np.arange(self.n_nodes, dtype=np.int32)
        is_leaf = self.feature == LEAF
        left = np.where(is_leaf, own, self.left).astype(np.int32)
        step = np.where(is_leaf, own, self.right).astype(np.int32) - left
        Xf = X.ravel()
        n_features = X.shape[1]
        value = self.value
        depth = self.max_depth()
        out = np.empty(n, dtype=np.float64)
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(n, lo + _BLOCK_ROWS)
            node = np.zeros(hi - lo, dtype=np.int32)
            base = np.arange(lo, hi, dtype=np.int64) * n_features
            for _ in range(depth):
                feat = self.feature.take(node)
                xv = Xf.take(base + feat)
                node = left.take(node) + step.take(node) * (xv > thr.take(node))
            out[lo:hi] = value.take(node)
        return out

    # ------------------------------------------------------------------
    @classmethod
    def from_cart_root(cls, root: "_Node") -> "TreeKernel":
        """Flatten a fitted CART node graph (preorder numbering)."""
        feature, threshold, split_bin = [], [], []
        left, right, value, n, impurity = [], [], [], [], []

        def visit(node: "_Node") -> int:
            idx = len(feature)
            is_leaf = node.is_leaf
            feature.append(LEAF if is_leaf else int(node.feature))
            threshold.append(0.0 if is_leaf else float(node.threshold))
            split_bin.append(LEAF)
            left.append(LEAF)
            right.append(LEAF)
            value.append(float(node.value))
            n.append(int(node.n))
            impurity.append(float(node.impurity))
            if not is_leaf:
                left[idx] = visit(node.left)
                right[idx] = visit(node.right)
            return idx

        visit(root)
        return cls(
            feature=np.asarray(feature, dtype=np.int32),
            threshold=np.asarray(threshold, dtype=np.float64),
            split_bin=np.asarray(split_bin, dtype=np.int32),
            left=np.asarray(left, dtype=np.int32),
            right=np.asarray(right, dtype=np.int32),
            value=np.asarray(value, dtype=np.float64),
            n=np.asarray(n, dtype=np.int64),
            impurity=np.asarray(impurity, dtype=np.float64),
        )

    def level_order(self) -> "TreeKernel":
        """Renumber nodes breadth-first so split children are adjacent.

        Level order guarantees ``right == left + 1`` for every internal
        node, the invariant the forest propagation's branchless
        ``left[node] + (x > threshold)`` step relies on.
        """
        n = self.n_nodes
        order = np.empty(n, dtype=np.int64)  # order[new] = old
        order[0] = 0
        tail = 1
        for head in range(n):
            old = int(order[head])
            if self.feature[old] != LEAF:
                order[tail] = self.left[old]
                order[tail + 1] = self.right[old]
                tail += 2
        pos = np.empty(n, dtype=np.int64)  # pos[old] = new
        pos[order] = np.arange(n)
        feature = self.feature[order]
        is_leaf = feature == LEAF
        return TreeKernel(
            feature=feature,
            threshold=self.threshold[order],
            split_bin=self.split_bin[order],
            left=np.where(is_leaf, LEAF, pos[self.left[order]]).astype(np.int32),
            right=np.where(is_leaf, LEAF, pos[self.right[order]]).astype(np.int32),
            value=self.value[order],
            n=None if self.n is None else self.n[order],
            impurity=None if self.impurity is None else self.impurity[order],
        )


@dataclass
class ForestKernel:
    """A tree ensemble as stacked flat arrays plus per-tree offsets.

    ``offsets`` has ``n_trees + 1`` entries; tree *t* owns global node
    indices ``offsets[t]:offsets[t + 1]`` and its root is node
    ``offsets[t]``. Child indices in ``left``/``right`` are global, so
    propagation needs no per-tree re-basing. Invariants established by
    :meth:`from_trees` (and expected of any hand-built instance): trees
    are numbered level-order with ``right == left + 1`` at every split,
    and leaves self-loop (``left == right == own index``).
    """

    feature: np.ndarray  # int32, LEAF for leaves
    threshold: np.ndarray  # float64
    split_bin: np.ndarray  # int32
    left: np.ndarray  # int32, global node index; leaves self-loop
    right: np.ndarray  # int32, global node index; leaves self-loop
    value: np.ndarray  # float64
    offsets: np.ndarray  # int64, shape (n_trees + 1,)
    _depth: Optional[int] = field(default=None, repr=False, compare=False)
    _route: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def n_trees(self) -> int:
        return int(self.offsets.shape[0]) - 1

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    def max_depth(self) -> int:
        """Depth of the deepest leaf across all trees (cached)."""
        if self._depth is None:
            depth = np.zeros(self.n_nodes, dtype=np.int32)
            # Children always carry larger global indices than their
            # parent, so one ascending pass settles every node.
            for i in np.flatnonzero(self.feature != LEAF):
                depth[self.left[i]] = depth[i] + 1
                depth[self.right[i]] = depth[i] + 1
            self._depth = int(depth.max()) if self.n_nodes else 0
        return self._depth

    def compact(self) -> tuple[np.ndarray, "ForestKernel"]:
        """The features any tree reads, and the forest renumbered onto them."""
        used, feature = _compact_features(self.feature)
        return used, replace(self, feature=feature, _route=None)

    # ------------------------------------------------------------------
    @classmethod
    def from_trees(cls, trees: Sequence[TreeKernel]) -> "ForestKernel":
        """Stack per-tree kernels into the propagation-ready layout."""
        trees = [t.level_order() for t in trees]
        offsets = np.zeros(len(trees) + 1, dtype=np.int64)
        for t, tree in enumerate(trees):
            offsets[t + 1] = offsets[t] + tree.n_nodes

        def stacked(parts, dtype):
            if not parts:
                return np.zeros(0, dtype=dtype)
            return np.ascontiguousarray(np.concatenate(parts), dtype=dtype)

        # Leaves self-loop in the stacked layout so propagation can run
        # unconditionally for max_depth iterations with no masking.
        left_parts, right_parts = [], []
        for i, t in enumerate(trees):
            own = np.arange(t.n_nodes, dtype=np.int64)
            is_leaf = t.feature == LEAF
            left_parts.append(np.where(is_leaf, own, t.left) + offsets[i])
            right_parts.append(np.where(is_leaf, own, t.right) + offsets[i])
        return cls(
            feature=stacked([t.feature for t in trees], np.int32),
            threshold=stacked([t.threshold for t in trees], np.float64),
            split_bin=stacked([t.split_bin for t in trees], np.int32),
            left=stacked(left_parts, np.int32),
            right=stacked(right_parts, np.int32),
            value=stacked([t.value for t in trees], np.float64),
            offsets=offsets,
        )

    # ------------------------------------------------------------------
    def _routing(self) -> tuple:
        """Cached (threshold-with-inf-leaves, roots) propagation tables.

        Leaves get a ``+inf`` routing threshold: their comparison is
        always False, and with the self-loop child the node index stays
        put — so the step needs neither masking nor a ``right`` gather
        (``right == left + 1`` at every split).
        """
        if self._route is None:
            thr = np.where(self.feature == LEAF, np.inf, self.threshold)
            # int64 copies of the int32 structure arrays: ``take`` casts
            # index arrays to the platform int anyway, so propagating in
            # int64 skips one cast per gather per level.
            feature = self.feature.astype(np.int64)
            left = self.left.astype(np.int64)
            roots = self.offsets[:-1].copy()
            self._route = (thr, feature, left, roots)
        return self._route

    def _propagate(self, X: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Final (rows, trees) node indices for one row block."""
        thr, feature, left, roots = self._routing()
        node = np.broadcast_to(roots, (hi - lo, self.n_trees)).copy()
        Xf = X.ravel()
        base = (np.arange(lo, hi, dtype=np.int64) * X.shape[1])[:, None]
        for _ in range(self.max_depth()):
            feat = feature.take(node)
            # Leaves carry feature -1: a valid (last-column) gather whose
            # result is discarded by the always-False +inf comparison.
            xv = Xf.take(base + feat)
            node = left.take(node) + (xv > thr.take(node))
        return node

    def margin(
        self, X: np.ndarray, base_score: float, learning_rate: float
    ) -> np.ndarray:
        """Raw ensemble margin, bit-identical to the recursive reference.

        Per-tree leaf values come from the blocked propagation; the
        shrinkage accumulation then runs tree-by-tree in ensemble order,
        exactly like ``margin += lr * tree_output(t)`` over recursive
        traversals, so no floating-point reassociation can creep in.
        """
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        margin = np.full(n, base_score, dtype=np.float64)
        if self.n_trees == 0 or n == 0:
            return margin
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(n, lo + _BLOCK_ROWS)
            values = self.value.take(self._propagate(X, lo, hi))
            acc = margin[lo:hi]
            for t in range(self.n_trees):
                acc += learning_rate * values[:, t]
        return margin


# ----------------------------------------------------------------------
# Histogram machinery for the training hot paths
# ----------------------------------------------------------------------
class HistogramScratch:
    """Per-(node, feature, bin) histograms from staged flat keys.

    Staged once per fit: the row-major ``(samples, features)`` int64 key
    matrix ``code + feature * n_bins``, every sample's cell in a flat
    ``(feature, bin)`` histogram. A :meth:`pair` call is then one
    contiguous row gather, one add that folds each row's node slot into
    its keys (``+ slot * features * n_bins``) and two ``bincount`` s over
    the ravelled keys, the row weights repeated once per feature.
    ``bincount`` accumulates in key-array order and the ravel is
    row-major, so each (slot, feature, bin) cell sums its rows in
    ascending row order: every histogram is bit-identical to a per-node,
    per-feature scan (``tests/reference_trees.py`` keeps that scan as
    the oracle).

    ``rows_scanned`` counts the rows the fit has histogrammed so far
    (``models.histogram_rows``).
    """

    def __init__(self, binned: np.ndarray, max_bins: int):
        self.n_features = binned.shape[1]
        self.max_bins = max_bins
        self.keys = binned.astype(np.int64) + np.arange(self.n_features, dtype=np.int64) * max_bins
        self.rows_scanned = 0

    def pair(
        self,
        rows: Optional[np.ndarray],
        first: Optional[np.ndarray],
        second: np.ndarray,
        slots: Optional[np.ndarray] = None,
        n_slots: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Two (n_slots, F, B) histograms over one row subset.

        Both training hot paths need a pair per node — (count, positive)
        for CART, (gradient, hessian) for boosting. ``rows=None`` means
        all samples; ``first``/``second`` are weight vectors already
        aligned with ``rows`` (``first=None`` counts samples instead);
        ``slots`` assigns each row to one of ``n_slots`` nodes.
        """
        F, B = self.n_features, self.max_bins
        keys = self.keys if rows is None else self.keys.take(rows, axis=0)
        if slots is not None:
            keys = keys + (slots.astype(np.int64) * (F * B))[:, None]
        self.rows_scanned += keys.shape[0]
        flat = keys.ravel()
        size = n_slots * F * B
        if first is None:
            h1 = np.bincount(flat, minlength=size).astype(np.float64)
        else:
            h1 = np.bincount(flat, weights=np.repeat(first, F), minlength=size)
        h2 = np.bincount(flat, weights=np.repeat(second, F), minlength=size)
        return h1.reshape(n_slots, F, B), h2.reshape(n_slots, F, B)
