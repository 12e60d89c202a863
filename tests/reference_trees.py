"""The recursive tree traversals the compiled kernels must equal bit for bit.

Prediction used to walk each tree one Python call per node. The kernels
of ``repro.core.models.kernels`` replaced that with iterative node-index
propagation; the walk lives here, in the test tree, as their oracle. It
recurses over the kernels' own flat arrays — ``feature[node] == LEAF``
marks a leaf in a :class:`TreeKernel` and in a stacked
:class:`ForestKernel` alike — so it needs no node classes and checks
exactly what the kernels add: routing, blocking, self-looping leaves and
the per-tree accumulation order.
"""

from __future__ import annotations

import numpy as np

from repro.core.models.kernels import LEAF, ForestKernel, TreeKernel


def _descend(kernel, node: int, X: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    if index.shape[0] == 0:
        return
    if kernel.feature[node] == LEAF:
        out[index] = kernel.value[node]
        return
    go_left = X[index, kernel.feature[node]] <= kernel.threshold[node]
    _descend(kernel, int(kernel.left[node]), X, index[go_left], out)
    _descend(kernel, int(kernel.right[node]), X, index[~go_left], out)


def _tree_values(kernel, root: int, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.float64)
    _descend(kernel, root, X, np.arange(X.shape[0]), out)
    return out


def reference_cart_values(kernel: TreeKernel, X: np.ndarray) -> np.ndarray:
    """Leaf value per row, by recursion from node 0."""
    return _tree_values(kernel, 0, np.asarray(X, dtype=np.float64))


def reference_forest_margin(
    forest: ForestKernel, base_score: float, learning_rate: float, X: np.ndarray
) -> np.ndarray:
    """Boosting margin, one recursive traversal per tree in ensemble order."""
    X = np.asarray(X, dtype=np.float64)
    margin = np.full(X.shape[0], base_score, dtype=np.float64)
    for root in forest.offsets[:-1]:
        margin += learning_rate * _tree_values(forest, int(root), X)
    return margin
