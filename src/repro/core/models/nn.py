"""Feed-forward neural network (the paper's NN model).

A single-hidden-layer MLP with ReLU, inverted dropout and Adam on
binary cross-entropy — matching the paper's skorch configuration space
(hidden-layer width, dropout, learning rate; the PCA component count of
its pipeline lives in the pipeline definition, Fig. 8).
"""

from __future__ import annotations

import numpy as np

from repro.core.models.base import Classifier, check_fit_inputs


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


class NeuralNetwork(Classifier):
    """One-hidden-layer MLP trained with Adam."""

    name = "NN"

    def __init__(
        self,
        n_hidden: int = 32,
        dropout: float = 0.0,
        learning_rate: float = 2.5e-3,
        epochs: int = 60,
        batch_size: int = 256,
        seed: int = 0,
    ):
        if n_hidden < 1:
            raise ValueError("n_hidden must be >= 1")
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.n_hidden = n_hidden
        self.dropout = dropout
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self._params: dict[str, np.ndarray] | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NeuralNetwork":
        X, y = check_fit_inputs(X, y)
        rng = np.random.default_rng(self.seed)
        n, d = X.shape
        h = self.n_hidden
        params = {
            "W1": rng.normal(0.0, np.sqrt(2.0 / d), size=(d, h)),
            "b1": np.zeros(h),
            "W2": rng.normal(0.0, np.sqrt(2.0 / h), size=(h, 1)),
            "b2": np.zeros(1),
        }
        adam_m = {k: np.zeros_like(v) for k, v in params.items()}
        adam_v = {k: np.zeros_like(v) for k, v in params.items()}
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        yf = y.astype(np.float64).reshape(-1, 1)
        step = 0
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, self.batch_size):
                batch = order[lo : lo + self.batch_size]
                xb, yb = X[batch], yf[batch]
                # Forward pass.
                z1 = xb @ params["W1"] + params["b1"]
                a1 = np.maximum(z1, 0.0)
                if self.dropout > 0:
                    mask = rng.random(a1.shape) >= self.dropout
                    a1 = a1 * mask / (1.0 - self.dropout)
                z2 = a1 @ params["W2"] + params["b2"]
                p = _sigmoid(z2)
                # Backward pass (BCE loss).
                m = xb.shape[0]
                dz2 = (p - yb) / m
                grads = {
                    "W2": a1.T @ dz2,
                    "b2": dz2.sum(axis=0),
                }
                da1 = dz2 @ params["W2"].T
                if self.dropout > 0:
                    da1 = da1 * mask / (1.0 - self.dropout)
                dz1 = da1 * (z1 > 0)
                grads["W1"] = xb.T @ dz1
                grads["b1"] = dz1.sum(axis=0)
                # Adam update.
                step += 1
                for key in params:
                    adam_m[key] = beta1 * adam_m[key] + (1 - beta1) * grads[key]
                    adam_v[key] = beta2 * adam_v[key] + (1 - beta2) * grads[key] ** 2
                    m_hat = adam_m[key] / (1 - beta1**step)
                    v_hat = adam_v[key] / (1 - beta2**step)
                    params[key] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        self._params = params
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._params is None:
            raise RuntimeError("NeuralNetwork is not fitted")
        X = np.asarray(X, dtype=np.float64)
        a1 = np.maximum(X @ self._params["W1"] + self._params["b1"], 0.0)
        return _sigmoid(a1 @ self._params["W2"] + self._params["b2"]).ravel()

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)
