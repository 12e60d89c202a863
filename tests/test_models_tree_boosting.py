"""Tests for the decision tree and gradient-boosted trees."""

import itertools
import warnings

import numpy as np
import pytest

from repro import obs
from repro.core.models import boosting, tree
from repro.core.models.boosting import GradientBoostedTrees
from repro.core.models.kernels import LEAF
from repro.core.models.tree import DecisionTree
from repro.obs import MetricRegistry, names
from tests import gen_golden
from tests.reference_trees import ReferenceLayoutScratch, reference_grow_forest


def linear_data(n=2000, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    if noise:
        flip = rng.random(n) < noise
        y = np.where(flip, 1 - y, y)
    return X, y


def xor_data(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 4))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


class TestDecisionTree:
    def test_learns_threshold(self):
        X, y = linear_data()
        model = DecisionTree(max_depth=6).fit(X[:1500], y[:1500])
        acc = (model.predict(X[1500:]) == y[1500:]).mean()
        assert acc > 0.9

    def test_learns_xor(self):
        """XOR requires interactions — a depth-2+ tree handles it."""
        X, y = xor_data()
        model = DecisionTree(max_depth=4, min_samples_leaf=1).fit(X[:1500], y[:1500])
        acc = (model.predict(X[1500:]) == y[1500:]).mean()
        assert acc > 0.9

    def test_max_depth_respected(self):
        X, y = xor_data()
        model = DecisionTree(max_depth=3).fit(X, y)
        assert model.depth() <= 3

    def test_min_samples_leaf(self):
        X, y = linear_data(n=200)
        model = DecisionTree(min_samples_leaf=50).fit(X, y)
        kernel = model.kernel_
        assert kernel.n[kernel.feature == LEAF].min() >= 50

    def test_pure_node_stops(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.ones(10, dtype=int)
        model = DecisionTree().fit(X, y)
        assert model.n_leaves == 1
        assert (model.predict(X) == 1).all()

    def test_pruning_shrinks_tree(self):
        X, y = linear_data(noise=0.15)
        full = DecisionTree(max_depth=10, ccp_alpha=0.0).fit(X, y)
        pruned = DecisionTree(max_depth=10, ccp_alpha=0.01).fit(X, y)
        assert pruned.n_leaves < full.n_leaves

    def test_predict_proba_in_unit_interval(self):
        X, y = linear_data(n=500)
        model = DecisionTree(max_depth=4).fit(X, y)
        proba = model.predict_proba(X)
        assert ((proba >= 0) & (proba <= 1)).all()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DecisionTree(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTree(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTree(ccp_alpha=-1)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTree().predict(np.zeros((1, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DecisionTree().fit(np.array([[np.nan]]), np.array([1]))


class TestGradientBoostedTrees:
    def test_learns_threshold(self):
        X, y = linear_data()
        model = GradientBoostedTrees(n_estimators=20, max_depth=3).fit(X[:1500], y[:1500])
        acc = (model.predict(X[1500:]) == y[1500:]).mean()
        assert acc > 0.93

    def test_learns_xor(self):
        X, y = xor_data()
        model = GradientBoostedTrees(
            n_estimators=30, max_depth=3, learning_rate=0.3,
            min_child_weight=1.0, reg_lambda=1.0,
        ).fit(X[:1500], y[:1500])
        acc = (model.predict(X[1500:]) == y[1500:]).mean()
        assert acc > 0.93

    def test_more_estimators_fit_train_better(self):
        X, y = linear_data(n=800, noise=0.05)
        weak = GradientBoostedTrees(n_estimators=2, max_depth=2, learning_rate=0.1)
        strong = GradientBoostedTrees(n_estimators=60, max_depth=4, learning_rate=0.1,
                                      min_child_weight=1.0, reg_lambda=1.0)
        weak_acc = (weak.fit(X, y).predict(X) == y).mean()
        strong_acc = (strong.fit(X, y).predict(X) == y).mean()
        assert strong_acc >= weak_acc

    def test_feature_gain_identifies_informative(self):
        X, y = linear_data()
        model = GradientBoostedTrees(n_estimators=10, max_depth=3).fit(X, y)
        gains = model.average_gain()
        assert gains[0] == gains.max()  # feature 0 dominates the labels
        assert gains.shape == (X.shape[1],)

    def test_proba_is_sigmoid_of_margin(self):
        X, y = linear_data(n=500)
        model = GradientBoostedTrees(n_estimators=5, max_depth=3).fit(X, y)
        margin = model.decision_function(X)
        proba = model.predict_proba(X)
        np.testing.assert_allclose(proba, 1.0 / (1.0 + np.exp(-margin)))

    def test_base_score_is_prior_logodds(self):
        X = np.zeros((100, 2))
        X[:, 0] = np.arange(100)
        y = (np.arange(100) < 25).astype(int)
        model = GradientBoostedTrees(n_estimators=1).fit(X, y)
        assert model.base_score_ == pytest.approx(np.log(0.25 / 0.75))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(learning_rate=0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(reg_lambda=-1)
        for not_a_weight in (-1e-9, -10.0, float("nan")):
            with pytest.raises(ValueError):
                GradientBoostedTrees(min_child_weight=not_a_weight)
        assert GradientBoostedTrees(min_child_weight=0).min_child_weight == 0

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.zeros((1, 2)))

    def test_no_l2_and_no_min_weight_keep_leaves_finite(self):
        """With neither, a cell with an empty side scored x/0 = inf, won
        the split and left a leaf whose value divided by zero again
        (behind a RuntimeWarning): infinite leaf values and gains."""
        X, y = linear_data(n=400, noise=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = GradientBoostedTrees(
                n_estimators=6, max_depth=4, min_child_weight=0.0, reg_lambda=0.0
            ).fit(X, y)
        assert np.isfinite(model.forest_.value).all()
        assert np.isfinite(model.feature_gain_).all()
        assert (model.predict(X) == y).mean() > 0.85

    def test_deterministic(self):
        X, y = linear_data(n=300)
        a = GradientBoostedTrees(n_estimators=5).fit(X, y).predict_proba(X)
        b = GradientBoostedTrees(n_estimators=5).fit(X, y).predict_proba(X)
        np.testing.assert_array_equal(a, b)


def _training_matrices():
    """(name, X, y): the shapes the grower's edge cases live in."""
    rng = np.random.default_rng(21)
    X, y = linear_data(n=400, seed=3, noise=0.1)
    yield "random", X, y
    yield "one row", X[:1], y[:1]
    yield "two rows", X[[0, 1]], np.array([0, 1])
    constant = X[:150].copy()
    constant[:, [1, 4]] = 7.0
    yield "constant columns", constant, y[:150]
    # The same column three times over: every split gain ties across
    # features, and the first feature in (feature, bin) order must win.
    yield "duplicated columns", X[:200][:, [0, 1, 0, 2, 0, 1]], y[:200]
    yield "no features", np.zeros((30, 0)), y[:30]
    wide = rng.normal(size=(600, 3))  # 600 distinct values: every one of 128 bins in use
    yield "more distinct values than bins", wide, (wide[:, 0] * wide[:, 1] > 0).astype(int)
    few = rng.integers(0, 3, size=(300, 5)).astype(float)  # three bins a feature
    yield "few distinct values", few, (few[:, 0] + few[:, 2] > 2).astype(int)
    # 128, 1, 3, ~20, 2 and ~70 bins interleaved, then the same six
    # again: every width block holds ties, and the first copy must win.
    # The 2-bin column is the 3-bin one's first split, so the two tie
    # across blocks too, and the earlier, wider one must win.
    cont, three = rng.normal(size=400), rng.integers(0, 3, 400)
    mixed = np.column_stack([
        cont, np.zeros(400), three, rng.integers(0, 20, 400), three > 0, rng.integers(0, 70, 400),
    ]).astype(float)
    score = cont + 2 * mixed[:, 4] + mixed[:, 3] / 10 + mixed[:, 5] / 35
    yield "width blocks", np.hstack([mixed, mixed]), (score > 3).astype(int)


_MATRICES = list(_training_matrices())
_MATRIX_IDS = [name for name, _, _ in _MATRICES]
_FOREST_ARRAYS = ("feature", "threshold", "split_bin", "left", "right", "value", "offsets")


def _fit_and_reference(X, y, **params):
    """(differences, histogram rows scanned, rows the oracle says are needed)."""
    model = GradientBoostedTrees(**{"n_estimators": 6, "max_depth": 4, **params})
    expected = reference_grow_forest(model, X, y)
    registry = MetricRegistry()
    with obs.use_registry(registry):
        model.fit(X, y)
    different = [
        name
        for name in _FOREST_ARRAYS
        if not np.array_equal(getattr(model.forest_, name), getattr(expected.forest, name))
    ]
    if not np.array_equal(model.feature_gain_, expected.feature_gain):
        different.append("feature_gain_")
    if not np.array_equal(model.feature_splits_, expected.feature_splits):
        different.append("feature_splits_")
    scanned = registry.counter(names.C_MODELS_HISTOGRAM_ROWS).value
    return different, scanned, expected.histogram_rows


#: min_child_weight: none, small, the default, more than any root holds;
#: reg_lambda; max_bins: the fewest, the default, the most.
_GROWER_GRID = list(itertools.product((0.0, 2.0, 10.0, 1e6), (0.0, 5.0), (2, 128, 256)))


class TestGrowerEqualsReference:
    """`GradientBoostedTrees` against `reference_grow_forest`, the
    trainer that histograms and searches every node: same forest, bit
    for bit, from histograms of only the nodes that can split."""

    @pytest.mark.parametrize("name,X,y", _MATRICES, ids=_MATRIX_IDS)
    def test_forest_gain_and_histogram_work(self, name, X, y):
        for mcw, lam, bins in _GROWER_GRID:
            different, scanned, needed = _fit_and_reference(
                X, y, min_child_weight=mcw, reg_lambda=lam, max_bins=bins
            )
            assert not different, (name, mcw, lam, bins, different)
            assert scanned == needed, (name, mcw, lam, bins)

    def test_a_root_that_cannot_split_builds_no_histogram(self):
        X, y = linear_data(n=300)
        different, scanned, needed = _fit_and_reference(X, y, min_child_weight=1e6)
        assert (different, scanned, needed) == ([], 0, 0)

    def test_default_parameters_on_a_wide_matrix(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(500, 40)).round(1)
        y = (X[:, 0] + X[:, 7] * X[:, 3] + rng.normal(scale=0.5, size=500) > 0).astype(int)
        different, scanned, needed = _fit_and_reference(X, y, n_estimators=12, max_depth=6)
        assert not different
        assert scanned == needed > 12 * 500

    def test_the_matrix_of_a_golden_scrubber_fit(self, monkeypatch):
        """The real shape: the FR/imputer output of the golden traces'
        scrubber fit (161 rows, 102 WoE columns), at its ten trees and
        the default depth, weights and bins."""
        seen = []
        fit = GradientBoostedTrees.fit

        def recording_fit(model, X, y):
            seen.append((X, y))
            return fit(model, X, y)

        with monkeypatch.context() as patched:
            patched.setattr(GradientBoostedTrees, "fit", recording_fit)
            gen_golden.build_scrubber()
        ((X, y),) = seen
        assert X.shape == (161, 102)
        different, scanned, needed = _fit_and_reference(X, y, n_estimators=10, max_depth=6)
        assert not different
        assert scanned == needed > 10 * 161

    def _failures(self):
        out = []
        for _, X, y in _MATRICES:
            for mcw, lam, bins in _GROWER_GRID:
                different, scanned, needed = _fit_and_reference(
                    X, y, min_child_weight=mcw, reg_lambda=lam, max_bins=bins
                )
                out.append((bool(different), scanned != needed))
        return out

    def test_an_over_eager_admission_test_changes_forests(self, monkeypatch):
        """The suite has teeth: turning away nodes of up to three
        children's weight loses splits the reference makes."""
        monkeypatch.setattr(
            boosting, "_can_split", lambda n, hsum, mcw: n >= 2 and hsum >= 3.0 * mcw
        )
        assert any(different for different, _ in self._failures())

    def test_no_admission_test_scans_rows_for_nothing(self, monkeypatch):
        """... and admitting every node of two rows, as the trainer once
        did, grows the same forests from more histogram rows."""
        monkeypatch.setattr(boosting, "_can_split", lambda n, hsum, mcw: n >= 2)
        failures = self._failures()
        assert not any(different for different, _ in failures)
        assert any(more_rows for _, more_rows in failures)


class TestDecisionTreeOnEitherScratch:
    """CART through the flat-key `pair` (its count path, `first=None`)
    and through the per-feature scan: the same tree."""

    @pytest.mark.parametrize("name,X,y", _MATRICES, ids=_MATRIX_IDS)
    def test_same_tree(self, name, X, y, monkeypatch):
        for params in (
            dict(),
            dict(max_depth=4, min_samples_leaf=1),
            dict(min_samples_leaf=20, ccp_alpha=0.005),
        ):
            fitted = DecisionTree(**params).fit(X, y).kernel_
            with monkeypatch.context() as patched:
                patched.setattr(tree, "HistogramScratch", ReferenceLayoutScratch)
                expected = DecisionTree(**params).fit(X, y).kernel_
            for array in ("feature", "threshold", "left", "right", "value", "n", "impurity"):
                assert np.array_equal(getattr(fitted, array), getattr(expected, array)), (name, array)

    def test_ties_go_to_the_first_feature(self):
        """Both scratches share the tie-break, so pin it on its own: no
        later copy of a column wins, nor the 2-bin column that ties its
        3-bin neighbour's first split from a narrower block."""
        X, y = next((X, y) for name, X, y in _MATRICES if name == "width blocks")
        for params in (dict(), dict(max_depth=4, min_samples_leaf=1)):
            feature = DecisionTree(**params).fit(X, y).kernel_.feature
            assert 2 in feature
            assert not np.isin(feature, [4, 6, 7, 8, 9, 10, 11]).any()
