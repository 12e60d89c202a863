"""The tree traversals and the tree grower the kernels must equal bit for bit.

Prediction used to walk each tree one Python call per node. The kernels
of ``repro.core.models.kernels`` replaced that with iterative node-index
propagation; the walk lives here, in the test tree, as their oracle. It
recurses over the kernels' own flat arrays — ``feature[node] == LEAF``
marks a leaf in a :class:`TreeKernel` and in a stacked
:class:`ForestKernel` alike — so it needs no node classes and checks
exactly what the kernels add: routing, blocking, self-looping leaves and
the per-tree accumulation order.

Training has its oracle here too: :func:`reference_grow_forest` is the
boosting trainer as it stood before the frontier learned which nodes
can split — every node of two rows or more is histogrammed and
searched, cell by cell over the whole dense (nodes, features, bins)
block, null and padding cells included — on
:class:`ReferenceHistogramScratch`, the per-feature ``bincount`` scan.
``GradientBoostedTrees`` must produce the same forest, gains and split
counts; ``DecisionTree`` must grow the same tree on either scratch
(:class:`ReferenceLayoutScratch` fills the real layout by the scan).

The real grower searches less and in another order. Its histograms are
per-width blocks (``HistogramScratch``), and it reads only the split
points, cells ``b < n_bins(f) − 1``. A null or padding cell sends every
row of its node left; the dense search here could pick one only by
raising ``IndexError`` in ``QuantileBinner.threshold``, which has no
edge for it. So in every fit that returns, the dense pick is a split
point and the first maximum among split points, and dropping the other
cells moves no split. The blocks permute features, so the real grower
breaks ties by original (feature, bin) order, the dense ``argmax``'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.models.binning import QuantileBinner
from repro.core.models.kernels import LEAF, ForestKernel, HistogramScratch, TreeKernel

_MIN_SPLIT_GAIN = 1e-9


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


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
class ReferenceHistogramScratch:
    """``HistogramScratch`` as a per-feature scan: one ``bincount`` pair
    per feature over the transposed bin codes, each (slot, feature, bin)
    cell accumulating its rows in ascending order."""

    def __init__(self, binned: np.ndarray, max_bins: int):
        self.codes_t = np.ascontiguousarray(binned.T)
        self.n_features = binned.shape[1]
        self.max_bins = max_bins
        self.rows_scanned = 0  # read by the fits, not compared: see ``histogram_rows``

    def pair(
        self,
        rows: Optional[np.ndarray],
        first: Optional[np.ndarray],
        second: np.ndarray,
        slots: Optional[np.ndarray] = None,
        n_slots: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        F, B = self.n_features, self.max_bins
        size = n_slots * B
        h1 = np.empty((n_slots, F, B), dtype=np.float64)
        h2 = np.empty((n_slots, F, B), dtype=np.float64)
        base = None if slots is None else slots.astype(np.int64) * B
        for j in range(F):
            if rows is None:
                codes = self.codes_t[j]
            else:
                codes = self.codes_t[j].take(rows)
            key = codes if base is None else base + codes
            if first is None:
                h1[:, j, :] = (
                    np.bincount(key, minlength=size).astype(np.float64).reshape(n_slots, B)
                )
            else:
                h1[:, j, :] = np.bincount(key, weights=first, minlength=size).reshape(
                    n_slots, B
                )
            h2[:, j, :] = np.bincount(key, weights=second, minlength=size).reshape(
                n_slots, B
            )
        return h1, h2


class ReferenceLayoutScratch(HistogramScratch):
    """``HistogramScratch``'s width-block layout, filled from the dense
    per-feature scan: a gather of each cell's (feature, bin)."""

    def __init__(self, binned: np.ndarray, n_bins: np.ndarray):
        super().__init__(binned, n_bins)
        self.dense = ReferenceHistogramScratch(binned, 256)

    def pair(self, rows, first, second, slots=None, n_slots=1):
        return np.stack(self.dense.pair(rows, first, second, slots, n_slots))[
            :, :, self.feature, self.bin
        ]


@dataclass
class ReferenceForest:
    """What a boosting fit leaves behind, plus the histogram work it needs."""

    forest: Optional[ForestKernel] = None
    feature_gain: np.ndarray = field(default_factory=lambda: np.zeros(0))
    feature_splits: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    #: Rows a grower must scan if it histograms exactly the nodes that
    #: can split (two rows or more, hessian sum of two children's
    #: ``min_child_weight``): the root's when it can, and per split with
    #: a child that can, the smaller child's. The reference itself scans
    #: more; ``models.histogram_rows`` of the real fit must read this.
    histogram_rows: int = 0


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


def reference_grow_forest(params, X: np.ndarray, y: np.ndarray) -> ReferenceForest:
    """Fit ``X, y`` as ``params`` (an unfitted ``GradientBoostedTrees``,
    read for its hyperparameters only) would."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(np.int64).ravel()
    binner = QuantileBinner(params.max_bins)
    binned = binner.fit_transform(X)
    n, n_features = X.shape
    out = ReferenceForest(
        feature_gain=np.zeros(n_features, dtype=np.float64),
        feature_splits=np.zeros(n_features, dtype=np.int64),
    )
    pos_rate = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
    margin = np.full(n, float(np.log(pos_rate / (1.0 - pos_rate))), dtype=np.float64)
    B = max((binner.n_bins(j) for j in range(n_features)), default=2)
    scratch = ReferenceHistogramScratch(binned, max(B, 2))
    yf = y.astype(np.float64)
    kernels = []
    for _ in range(params.n_estimators):
        p = _sigmoid(margin)
        grad = p - yf
        hess = np.maximum(p * (1.0 - p), 1e-12)
        kernel, node_of = _reference_grow_tree(params, binner, binned, grad, hess, scratch, out)
        kernels.append(kernel)
        margin += params.learning_rate * kernel.value[node_of]
    out.forest = ForestKernel.from_trees(kernels)
    return out


def _reference_grow_tree(params, binner, binned, grad, hess, scratch, out):
    def can_split(n_rows: int, hsum: float) -> bool:
        return n_rows >= 2 and hsum >= 2.0 * params.min_child_weight

    n, n_features = binned.shape
    B = scratch.max_bins
    lam = params.reg_lambda
    mcw = params.min_child_weight
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
        if can_split(n, h_l[0]):
            out.histogram_rows += n

    for depth in range(params.max_depth):
        if not ids:
            break
        K = len(ids)
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
            # The one line that is not the old trainer's: it dropped 0/0
            # here and let x/0 through, an infinite gain that split off
            # an empty child whose leaf value divided by zero again.
            gain[~np.isfinite(gain)] = -np.inf
        np.copyto(gain, -np.inf, where=~valid)
        flat = gain.reshape(K, -1)
        best_pos = np.argmax(flat, axis=1)
        best_gain = flat[np.arange(K), best_pos]
        do_split = best_gain > _MIN_SPLIT_GAIN

        # Materialise the level's splits: routing tables + children.
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
            out.feature_gain[f] += float(best_gain[i])
            out.feature_splits[f] += 1
            lid = len(feat_l)
            rid = lid + 1
            feat_l[nid] = f
            sbin_l[nid] = kbin
            thr_l[nid] = binner.threshold(f, kbin)
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

        if depth + 1 >= params.max_depth:
            ids = []
            break
        counts = np.bincount(child, minlength=len(feat_l))

        # Histogram the smaller child of every split in one slotted
        # pass; siblings come from parent − small subtraction.
        slot_of = np.full(len(feat_l), -1, dtype=np.int64)
        pairs = []  # (parent frontier idx, small id, big id)
        for i, nid, lid, rid in splits:
            if can_split(counts[lid], h_l[lid]) or can_split(counts[rid], h_l[rid]):
                out.histogram_rows += int(min(counts[lid], counts[rid]))
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

