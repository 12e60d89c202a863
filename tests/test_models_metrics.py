"""Tests for classification metrics (Table 3 columns)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models.metrics import (
    ConfusionMatrix,
    f1_score,
    fbeta_score,
    prediction_cost_mcc,
)


class TestConfusionMatrix:
    def test_from_predictions(self):
        y_true = np.array([1, 1, 0, 0, 1])
        y_pred = np.array([1, 0, 0, 1, 1])
        cm = ConfusionMatrix.from_predictions(y_true, y_pred)
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (2, 1, 1, 1)

    def test_rates(self):
        cm = ConfusionMatrix(tp=8, tn=6, fp=2, fn=4)
        assert cm.tpr == pytest.approx(8 / 12)
        assert cm.tnr == pytest.approx(6 / 8)
        assert cm.fpr == pytest.approx(2 / 8)
        assert cm.fnr == pytest.approx(4 / 12)
        assert cm.tpr + cm.fnr == pytest.approx(1.0)
        assert cm.tnr + cm.fpr == pytest.approx(1.0)

    def test_f1_matches_paper_formula(self):
        """F1 = tp / (tp + (fp + fn)/2), §6.1."""
        cm = ConfusionMatrix(tp=90, tn=80, fp=10, fn=20)
        assert cm.f1() == pytest.approx(90 / (90 + 0.5 * (10 + 20)))

    def test_fbeta_matches_paper_formula(self):
        """F_beta = (1+b^2) tp / ((1+b^2) tp + b^2 fn + fp), §6.1."""
        cm = ConfusionMatrix(tp=90, tn=80, fp=10, fn=20)
        b2 = 0.25
        expected = (1 + b2) * 90 / ((1 + b2) * 90 + b2 * 20 + 10)
        assert cm.fbeta(0.5) == pytest.approx(expected)

    def test_fbeta_half_penalises_fp_more(self):
        many_fp = ConfusionMatrix(tp=90, tn=90, fp=10, fn=0)
        many_fn = ConfusionMatrix(tp=90, tn=90, fp=0, fn=10)
        assert many_fp.fbeta(0.5) < many_fn.fbeta(0.5)

    def test_perfect_classifier(self):
        cm = ConfusionMatrix(tp=50, tn=50, fp=0, fn=0)
        assert cm.f1() == 1.0 and cm.fbeta() == 1.0 and cm.accuracy == 1.0

    def test_degenerate_empty(self):
        cm = ConfusionMatrix(tp=0, tn=0, fp=0, fn=0)
        assert cm.f1() == 0.0 and cm.fbeta() == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ConfusionMatrix.from_predictions(np.array([1]), np.array([1, 0]))

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(1, 1, 1, 1).fbeta(0)

    def test_precision_recall(self):
        cm = ConfusionMatrix(tp=8, tn=6, fp=2, fn=4)
        assert cm.precision == pytest.approx(0.8)
        assert cm.recall == cm.tpr


class TestHelpers:
    def test_f1_score_helper(self):
        y = np.array([1, 0, 1, 0])
        assert f1_score(y, y) == 1.0

    def test_fbeta_score_helper(self):
        y_true = np.array([1, 0, 1, 0])
        y_pred = np.array([1, 1, 1, 0])
        cm = ConfusionMatrix.from_predictions(y_true, y_pred)
        assert fbeta_score(y_true, y_pred) == pytest.approx(cm.fbeta())


class TestPredictionCost:
    def test_positive_cost(self):
        X = np.zeros((100, 3))
        cost = prediction_cost_mcc(lambda X: X.sum(axis=1), X, runs=3)
        assert cost > 0.0

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            prediction_cost_mcc(lambda X: X, np.zeros((1, 1)), runs=0)

    def test_slower_predictor_costs_more(self):
        X = np.zeros((50, 3))

        def slow(X):
            for _ in range(200):
                X = X + 0.0
            return X

        fast_cost = prediction_cost_mcc(lambda X: X, X, runs=3)
        slow_cost = prediction_cost_mcc(slow, X, runs=3)
        assert slow_cost > fast_cost


@settings(max_examples=30, deadline=None)
@given(
    y_true=st.lists(st.integers(0, 1), min_size=2, max_size=100),
    seed=st.integers(0, 10),
)
def test_confusion_counts_partition(y_true, seed):
    y_true = np.array(y_true)
    y_pred = np.random.default_rng(seed).integers(0, 2, size=y_true.shape[0])
    cm = ConfusionMatrix.from_predictions(y_true, y_pred)
    assert cm.total == y_true.shape[0]
    assert cm.tp + cm.fn == int(y_true.sum())
    assert cm.tn + cm.fp == int((1 - y_true).sum())
