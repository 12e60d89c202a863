"""Tests for the decision tree and gradient-boosted trees."""

import numpy as np
import pytest

from repro.core.models.boosting import GradientBoostedTrees
from repro.core.models.kernels import LEAF
from repro.core.models.tree import DecisionTree


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

    def test_get_params(self):
        params = DecisionTree(max_depth=7).get_params()
        assert params["max_depth"] == 7


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

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.zeros((1, 2)))

    def test_deterministic(self):
        X, y = linear_data(n=300)
        a = GradientBoostedTrees(n_estimators=5).fit(X, y).predict_proba(X)
        b = GradientBoostedTrees(n_estimators=5).fit(X, y).predict_proba(X)
        np.testing.assert_array_equal(a, b)
