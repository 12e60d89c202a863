"""Tests for the numeric transformers and PCA."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.encoding.pca import PCA, explained_variance_curve
from repro.core.encoding.transforms import (
    FeatureReducer,
    Imputer,
    MinMaxNormalizer,
    Standardizer,
)

matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(3, 30), st.integers(1, 8)),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestImputer:
    def test_fills_nan(self):
        X = np.array([[1.0, np.nan], [np.nan, 4.0]])
        out = Imputer().fit_transform(X)
        np.testing.assert_array_equal(out, [[1.0, -1.0], [-1.0, 4.0]])

    def test_custom_fill(self):
        X = np.array([[np.nan]])
        assert Imputer(fill_value=0.0).fit_transform(X)[0, 0] == 0.0

    def test_no_nan_returns_same_values(self):
        X = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(Imputer().fit_transform(X), X)


class TestStandardizer:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(500, 4))
        out = Standardizer().fit_transform(X)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_safe(self):
        X = np.ones((10, 2))
        out = Standardizer().fit_transform(X)
        assert np.isfinite(out).all()

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            Standardizer().transform(np.ones((2, 2)))

    @settings(max_examples=25, deadline=None)
    @given(X=matrices)
    def test_transform_invertible_stats(self, X):
        s = Standardizer().fit(X)
        out = s.transform(X)
        restored = out * s.scale_ + s.mean_
        np.testing.assert_allclose(restored, X, rtol=1e-6, atol=1e-6)


class TestMinMaxNormalizer:
    def test_range(self):
        X = np.array([[0.0, -5.0], [10.0, 5.0], [5.0, 0.0]])
        out = MinMaxNormalizer().fit_transform(X)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_clips_out_of_range_at_transform(self):
        n = MinMaxNormalizer().fit(np.array([[0.0], [10.0]]))
        out = n.transform(np.array([[-5.0], [20.0]]))
        np.testing.assert_array_equal(out.ravel(), [0.0, 1.0])

    def test_constant_column_safe(self):
        out = MinMaxNormalizer().fit_transform(np.full((5, 1), 3.0))
        assert np.isfinite(out).all()

    @settings(max_examples=25, deadline=None)
    @given(X=matrices)
    def test_output_in_unit_interval(self, X):
        out = MinMaxNormalizer().fit_transform(X)
        assert (out >= 0.0).all() and (out <= 1.0).all()


class TestFeatureReducer:
    def test_drops_constant_columns(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        reducer = FeatureReducer()
        out = reducer.fit_transform(X)
        assert out.shape == (10, 1)
        assert reducer.keep_.tolist() == [False, True]

    def test_keeps_everything_when_all_constant(self):
        X = np.ones((10, 3))
        out = FeatureReducer().fit_transform(X)
        assert out.shape == (10, 3)

    def test_nan_columns_dropped(self):
        X = np.column_stack([np.full(10, np.nan), np.arange(10.0)])
        assert FeatureReducer().fit_transform(X).shape == (10, 1)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            FeatureReducer(threshold=-1.0)


class TestPCA:
    def test_explained_variance_sums(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 6))
        pca = PCA(n_components=6).fit(X)
        assert pca.explained_variance_ratio_.sum() == pytest.approx(1.0, abs=1e-9)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 5))
        pca = PCA(n_components=5).fit(X)
        gram = pca.components_ @ pca.components_.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)

    def test_projection_shape(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 10))
        out = PCA(n_components=3).fit_transform(X)
        assert out.shape == (50, 3)

    def test_captures_dominant_direction(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=500)
        X = np.column_stack([t, 2 * t + rng.normal(scale=0.01, size=500), rng.normal(scale=0.01, size=500)])
        pca = PCA(n_components=1).fit(X)
        assert pca.explained_variance_ratio_[0] > 0.95

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            PCA(n_components=1).fit(np.ones((1, 3)))

    def test_explained_variance_curve_monotone(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 8))
        curve = explained_variance_curve(X)
        assert (np.diff(curve) >= -1e-12).all()
        assert curve[-1] == pytest.approx(1.0, abs=1e-8)
