"""Multinomial logistic regression trained with L-BFGS.

This is the workhorse classifier of the reproduction: the influence-function
and TracIn importance methods in :mod:`repro.importance` need its gradients
and Hessian, and the Zorro-style uncertainty propagation reasons about its
loss surface. The implementation keeps the loss/gradient functions module-
level so those modules can reuse them directly.

Importing this module loads no scipy: :meth:`LogisticRegression.fit`
imports ``scipy.optimize`` on its first call, and :func:`softmax` is numpy.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..base import Estimator, check_matrix, check_xy

__all__ = ["LogisticRegression", "softmax", "softmax_loss_grad", "sigmoid"]


def softmax(x: Any, axis: int | None = None) -> np.ndarray:
    """``exp(x) / sum(exp(x))`` along ``axis`` (all entries when None).

    The row maximum is subtracted first, exactly as ``scipy.special.softmax``
    does, so large logits do not overflow and the result matches scipy's bit
    for bit. A slice that is entirely ``-inf`` gives NaN, as in scipy.
    """
    x = np.asarray(x)
    shifted = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return shifted / np.sum(shifted, axis=axis, keepdims=True)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=float)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def softmax_loss_grad(
    weights: np.ndarray,
    X: np.ndarray,
    y_index: np.ndarray,
    n_classes: int,
    l2: float,
    sample_weight: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and gradient for flattened class weights.

    ``weights`` has shape ``(n_classes * (n_features + 1),)`` — per-class
    coefficient rows with the intercept as the last entry of each row.
    """
    n, d = X.shape
    W = weights.reshape(n_classes, d + 1)
    logits = X @ W[:, :d].T + W[:, d]
    probs = softmax(logits, axis=1)
    if sample_weight is None:
        sample_weight = np.ones(n)
    total = sample_weight.sum()
    picked = probs[np.arange(n), y_index]
    loss = float(
        -np.sum(sample_weight * np.log(np.clip(picked, 1e-12, None))) / total
    )
    loss += 0.5 * l2 * float(np.sum(W[:, :d] ** 2))
    delta = probs
    delta[np.arange(n), y_index] -= 1.0
    delta *= (sample_weight / total)[:, None]
    grad = np.empty_like(W)
    grad[:, :d] = delta.T @ X + l2 * W[:, :d]
    grad[:, d] = delta.sum(axis=0)
    return loss, grad.ravel()


class LogisticRegression(Estimator):
    """Multinomial logistic regression with L2 regularisation.

    Parameters
    ----------
    l2:
        Strength of the L2 penalty on the coefficients (not the intercept).
    max_iter:
        L-BFGS iteration budget.
    """

    def __init__(self, l2: float = 1e-3, max_iter: int = 200) -> None:
        self.l2 = float(l2)
        self.max_iter = int(max_iter)

    def fit(self, X: Any, y: Any, sample_weight: Any = None) -> "LogisticRegression":
        X, y = check_xy(X, y)
        self.classes_, y_index = np.unique(y, return_inverse=True)
        n_classes = len(self.classes_)
        if n_classes < 2:
            # Degenerate training set: constant prediction.
            self.coef_ = np.zeros((1, X.shape[1]))
            self.intercept_ = np.zeros(1)
            return self
        weight = None if sample_weight is None else np.asarray(sample_weight, float)
        x0 = np.zeros(n_classes * (X.shape[1] + 1))
        from scipy.optimize import minimize  # deferred: no scipy at import

        result = minimize(
            softmax_loss_grad,
            x0,
            args=(X, y_index, n_classes, self.l2, weight),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        W = result.x.reshape(n_classes, X.shape[1] + 1)
        self.coef_ = W[:, : X.shape[1]]
        self.intercept_ = W[:, X.shape[1]]
        return self

    def decision_function(self, X: Any) -> np.ndarray:
        self._require_fitted()
        X = check_matrix(X)
        return X @ self.coef_.T + self.intercept_

    def predict_proba(self, X: Any) -> np.ndarray:
        self._require_fitted()
        logits = self.decision_function(X)
        if len(self.classes_) < 2:
            return np.ones((len(logits), 1))
        return softmax(logits, axis=1)

    def predict(self, X: Any) -> np.ndarray:
        self._require_fitted()
        if len(self.classes_) < 2:
            X = check_matrix(X)
            return np.repeat(self.classes_[:1], len(X))
        return self.classes_[np.argmax(self.decision_function(X), axis=1)]

    def log_loss(self, X: Any, y: Any) -> float:
        """Mean cross-entropy of the fitted model on (X, y)."""
        probs = self.predict_proba(X)
        y = np.asarray(y)
        index = np.searchsorted(self.classes_, y)
        index = np.clip(index, 0, len(self.classes_) - 1)
        valid = self.classes_[index] == y
        picked = np.where(valid, probs[np.arange(len(y)), index], 1e-12)
        return float(-np.mean(np.log(np.clip(picked, 1e-12, None))))
