"""Linear support vector machine (LSVM).

Primal optimisation of the (squared) hinge loss with L2 regularisation
using scipy's L-BFGS — deterministic and fast for our feature counts.
The ``C``/``loss``/``class_weight`` parameters mirror the paper's grid
(Table 4).
"""

from __future__ import annotations

import numpy as np

from repro.core.models.base import Classifier, check_fit_inputs


class LinearSVM(Classifier):
    """L2-regularised linear SVM trained in the primal."""

    name = "LSVM"

    def __init__(
        self,
        C: float = 1.0,
        loss: str = "squared_hinge",
        class_weight: str | None = None,
        max_iter: int = 200,
    ):
        if C <= 0:
            raise ValueError("C must be positive")
        if loss not in ("hinge", "squared_hinge"):
            raise ValueError("loss must be 'hinge' or 'squared_hinge'")
        if class_weight not in (None, "balanced"):
            raise ValueError("class_weight must be None or 'balanced'")
        self.C = C
        self.loss = loss
        self.class_weight = class_weight
        self.max_iter = max_iter
        self.coef_: np.ndarray | None = None
        self.intercept_ = 0.0

    def _sample_weights(self, y: np.ndarray) -> np.ndarray:
        if self.class_weight is None:
            return np.ones(y.shape[0], dtype=np.float64)
        # Balanced: n / (2 * count(class)).
        n = y.shape[0]
        n_pos = max(int(y.sum()), 1)
        n_neg = max(n - n_pos, 1)
        weights = np.where(y == 1, n / (2.0 * n_pos), n / (2.0 * n_neg))
        return weights.astype(np.float64)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVM":
        X, y = check_fit_inputs(X, y)
        signs = np.where(y == 1, 1.0, -1.0)
        weights = self._sample_weights(y)
        n, d = X.shape
        squared = self.loss == "squared_hinge"
        # Imported here, not at the top: the streaming engine reaches this
        # module through ``repro.core.models`` but never fits an LSVM, and
        # scipy.optimize would double its resident set and start-up time.
        from scipy import optimize

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            w, b = theta[:d], theta[d]
            margin = signs * (X @ w + b)
            slack = np.maximum(0.0, 1.0 - margin)
            if squared:
                loss = float(np.dot(weights, slack**2))
                # d(slack^2)/dmargin = -2 * slack
                coeff = -2.0 * weights * slack * signs
            else:
                loss = float(np.dot(weights, slack))
                coeff = np.where(slack > 0, -weights * signs, 0.0)
            value = 0.5 * float(w @ w) + self.C * loss
            grad_w = w + self.C * (X.T @ coeff)
            grad_b = self.C * float(coeff.sum())
            return value, np.concatenate([grad_w, [grad_b]])

        theta0 = np.zeros(d + 1)
        result = optimize.minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.coef_ = result.x[:d]
        self.intercept_ = float(result.x[d])
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("LinearSVM is not fitted")
        return np.asarray(X, dtype=np.float64) @ self.coef_ + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(np.int64)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        # Platt-style squash of the margin; not calibrated, but useful
        # for ranking/explanations.
        return 1.0 / (1.0 + np.exp(-np.clip(self.decision_function(X), -30, 30)))
