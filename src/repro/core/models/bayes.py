"""Naive Bayes classifiers: Gaussian, multinomial, complement, Bernoulli.

The four variants of the paper (NB-G / NB-M / NB-C / NB-B, Table 5).
The non-Gaussian variants assume non-negative features; their pipelines
(Fig. 8) put a MinMax normalizer in front.
"""

from __future__ import annotations

import numpy as np

from repro.core.models.base import Classifier, check_fit_inputs


class GaussianNB(Classifier):
    """Gaussian naive Bayes with variance smoothing."""

    name = "NB-G"

    def __init__(self, var_smoothing: float = 1e-9):
        if var_smoothing < 0:
            raise ValueError("var_smoothing must be non-negative")
        self.var_smoothing = var_smoothing
        self.theta_: np.ndarray | None = None  # (2, d) means
        self.var_: np.ndarray | None = None  # (2, d) variances
        self.class_log_prior_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianNB":
        X, y = check_fit_inputs(X, y)
        d = X.shape[1]
        self.theta_ = np.zeros((2, d))
        self.var_ = np.zeros((2, d))
        priors = np.zeros(2)
        global_var = X.var(axis=0).max()
        epsilon = self.var_smoothing * max(global_var, 1e-12)
        for c in (0, 1):
            mask = y == c
            if not mask.any():
                # Missing class: flat prior mass epsilon, neutral stats.
                self.theta_[c] = X.mean(axis=0)
                self.var_[c] = X.var(axis=0) + epsilon
                priors[c] = 1e-12
                continue
            self.theta_[c] = X[mask].mean(axis=0)
            self.var_[c] = X[mask].var(axis=0) + epsilon
            priors[c] = mask.mean()
        self.class_log_prior_ = np.log(np.maximum(priors, 1e-12))
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        assert self.theta_ is not None and self.var_ is not None
        assert self.class_log_prior_ is not None
        X = np.asarray(X, dtype=np.float64)
        jll = np.empty((X.shape[0], 2))
        for c in (0, 1):
            log_det = np.log(2.0 * np.pi * self.var_[c]).sum()
            quad = ((X - self.theta_[c]) ** 2 / self.var_[c]).sum(axis=1)
            jll[:, c] = self.class_log_prior_[c] - 0.5 * (log_det + quad)
        return jll

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self._joint_log_likelihood(X), axis=1).astype(np.int64)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        probs = np.exp(jll)
        return probs[:, 1] / probs.sum(axis=1)


class _DiscreteNB(Classifier):
    """Common machinery of multinomial-family naive Bayes."""

    def __init__(self, alpha: float = 1.0):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self.feature_log_prob_: np.ndarray | None = None  # (2, d)
        self.class_log_prior_: np.ndarray | None = None

    @staticmethod
    def _check_non_negative(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if (X < 0).any():
            raise ValueError(
                "multinomial-family naive Bayes requires non-negative "
                "features; normalise first (Fig. 8 pipelines)"
            )
        return X

    def _class_counts(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        counts = np.zeros((2, X.shape[1]))
        priors = np.zeros(2)
        for c in (0, 1):
            mask = y == c
            counts[c] = X[mask].sum(axis=0)
            priors[c] = max(mask.mean(), 1e-12)
        return counts, np.log(priors)

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self._joint_log_likelihood(X), axis=1).astype(np.int64)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        probs = np.exp(jll)
        return probs[:, 1] / probs.sum(axis=1)


class MultinomialNB(_DiscreteNB):
    """Multinomial naive Bayes with additive smoothing."""

    name = "NB-M"

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MultinomialNB":
        X, y = check_fit_inputs(X, y)
        X = self._check_non_negative(X)
        counts, self.class_log_prior_ = self._class_counts(X, y)
        smoothed = counts + self.alpha
        self.feature_log_prob_ = np.log(smoothed) - np.log(
            smoothed.sum(axis=1, keepdims=True)
        )
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        assert self.feature_log_prob_ is not None and self.class_log_prior_ is not None
        X = self._check_non_negative(X)
        return X @ self.feature_log_prob_.T + self.class_log_prior_


class ComplementNB(_DiscreteNB):
    """Complement naive Bayes (weights from the complement class)."""

    name = "NB-C"

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ComplementNB":
        X, y = check_fit_inputs(X, y)
        X = self._check_non_negative(X)
        counts, self.class_log_prior_ = self._class_counts(X, y)
        # Complement counts: everything not in class c.
        total = counts.sum(axis=0, keepdims=True)
        comp = total - counts + self.alpha
        logged = np.log(comp / comp.sum(axis=1, keepdims=True))
        # CNB weights are the *negated* complement log-probabilities.
        self.feature_log_prob_ = -logged
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        assert self.feature_log_prob_ is not None and self.class_log_prior_ is not None
        X = self._check_non_negative(X)
        return X @ self.feature_log_prob_.T + self.class_log_prior_


class BernoulliNB(_DiscreteNB):
    """Bernoulli naive Bayes; features binarised at ``binarize``.

    The default ``binarize=0.0`` mirrors sklearn's default, which the
    paper evidently used: on min-max-normalised input almost every
    feature exceeds 0, so features collapse to near-constant indicators
    and NB-B degrades to the bottom of Table 5 — the behaviour we
    reproduce.
    """

    name = "NB-B"

    def __init__(self, alpha: float = 1.0, binarize: float = 0.0):
        super().__init__(alpha=alpha)
        self.binarize = binarize
        self.class_count_: np.ndarray | None = None

    def _binarize(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) > self.binarize).astype(np.float64)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BernoulliNB":
        X, y = check_fit_inputs(X, y)
        Xb = self._binarize(X)
        counts = np.zeros((2, X.shape[1]))
        class_count = np.zeros(2)
        priors = np.zeros(2)
        for c in (0, 1):
            mask = y == c
            counts[c] = Xb[mask].sum(axis=0)
            class_count[c] = mask.sum()
            priors[c] = max(mask.mean(), 1e-12)
        smoothed = (counts + self.alpha) / (class_count[:, None] + 2.0 * self.alpha)
        self.feature_log_prob_ = np.log(smoothed)
        self.class_count_ = class_count
        self.class_log_prior_ = np.log(priors)
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        assert self.feature_log_prob_ is not None and self.class_log_prior_ is not None
        Xb = self._binarize(X)
        log_p = self.feature_log_prob_
        log_1mp = np.log1p(-np.exp(log_p))
        return Xb @ (log_p - log_1mp).T + log_1mp.sum(axis=1) + self.class_log_prior_
