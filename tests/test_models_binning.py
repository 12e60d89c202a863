"""Tests for quantile binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models.binning import QuantileBinner


class TestQuantileBinner:
    def test_rejects_bad_max_bins(self):
        with pytest.raises(ValueError):
            QuantileBinner(1)
        with pytest.raises(ValueError):
            QuantileBinner(300)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            QuantileBinner().transform(np.zeros((2, 2)))

    def test_bins_monotone_in_values(self):
        X = np.linspace(0, 1, 1000).reshape(-1, 1)
        binner = QuantileBinner(16)
        binned = binner.fit_transform(X)
        assert (np.diff(binned[:, 0].astype(int)) >= 0).all()
        assert binned.max() <= 15

    def test_constant_column_single_bin(self):
        X = np.full((100, 1), 3.0)
        binner = QuantileBinner(16)
        binned = binner.fit_transform(X)
        assert binner.n_bins(0) == 1
        assert (binned == 0).all()

    def test_threshold_consistency(self):
        """split 'bin <= k' must equal 'value <= threshold(k)'."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 1))
        binner = QuantileBinner(32)
        binned = binner.fit_transform(X)
        for k in (0, 5, 15, 30):
            if k >= binner.n_bins(0) - 1:
                continue
            threshold = binner.threshold(0, k)
            np.testing.assert_array_equal(binned[:, 0] <= k, X[:, 0] <= threshold)

    def test_threshold_out_of_range(self):
        binner = QuantileBinner(4)
        binner.fit(np.arange(10.0).reshape(-1, 1))
        with pytest.raises(IndexError):
            binner.threshold(0, 99)

    def test_feature_count_mismatch(self):
        binner = QuantileBinner(4)
        binner.fit(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            binner.transform(np.zeros((5, 3)))

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=4,
            max_size=200,
        )
    )
    def test_transform_deterministic_and_bounded(self, values):
        X = np.array(values).reshape(-1, 1)
        binner = QuantileBinner(16)
        a = binner.fit_transform(X)
        b = binner.transform(X)
        np.testing.assert_array_equal(a, b)
        assert a.max() < 16


def quantile_edges(X: np.ndarray, max_bins: int) -> list[np.ndarray]:
    """The definition `QuantileBinner.fit` must equal: `np.quantile` per
    column (the first implementation: 150 calls per fit)."""
    X = np.asarray(X, dtype=np.float64)
    quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    edges = []
    for j in range(X.shape[1]):
        column_edges = np.unique(np.quantile(X[:, j], quantiles))
        edges.append(column_edges[column_edges < X[:, j].max()])
    return edges


class TestAgainstNumpyQuantile:
    @staticmethod
    def _columns(rng: np.random.Generator, n: int) -> np.ndarray:
        return np.column_stack([
            rng.normal(size=n),
            np.full(n, 3.0),  # constant
            rng.integers(0, 2, size=n),  # two-valued
            rng.integers(0, 5, size=n) * 1.5,  # heavy ties
            np.round(rng.normal(size=n), 1) + 0.0,
            -rng.random(n),  # negative
            rng.random(n) * 1e-300,  # tiny
            rng.normal(size=n) * 1e300,  # huge
            rng.normal(size=n) * 1e-5 - 7.0,  # narrow, off zero
            np.sort(rng.lognormal(size=n)),
            np.where(rng.random(n) < 0.2, np.inf, rng.normal(size=n)),
            np.where(rng.random(n) < 0.2, -np.inf, rng.normal(size=n)),
            np.where(rng.random(n) < 0.1, np.nan, rng.normal(size=n)),
        ])

    def test_edges_equal_per_column_quantiles(self):
        compared = 0
        for n in (1, 2, 3, 127, 128, 129, 487):
            X = self._columns(np.random.default_rng(n), n)
            for max_bins in (2, 3, 16, 100, 128, 256):
                with np.errstate(invalid="ignore"):  # inf - inf between infinite samples
                    edges = QuantileBinner(max_bins).fit(X).edges_
                    expected = quantile_edges(X, max_bins)
                assert len(edges) == len(expected) == X.shape[1]
                for j, (got, want) in enumerate(zip(edges, expected)):
                    assert got.dtype == want.dtype and got.shape == want.shape, (n, max_bins, j)
                    np.testing.assert_array_equal(got, want, err_msg=f"{(n, max_bins, j)}")
                    compared += len(want)
        assert compared > 5000

    def test_accepts_integers_and_leaves_the_input_alone(self):
        X = np.random.default_rng(0).integers(0, 50, size=(200, 3))
        before = X.copy()
        edges = QuantileBinner(16).fit(X).edges_
        np.testing.assert_array_equal(X, before)
        for got, want in zip(edges, quantile_edges(X, 16)):
            np.testing.assert_array_equal(got, want)
        floats = X.astype(np.float64)
        QuantileBinner(16).fit(floats)
        np.testing.assert_array_equal(floats, before)
        assert QuantileBinner(16).fit(np.empty((5, 0))).edges_ == []
