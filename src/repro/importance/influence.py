"""Gradient-based importance: influence functions and TracIn.

Influence functions (Koh & Liang [41]) estimate the effect of removing a
training point on the validation loss via a second-order Taylor expansion
around the trained parameters — no retraining required. TracIn-style scores
(single-checkpoint variant) use first-order gradient alignment instead.

Both operate on :class:`repro.learn.LogisticRegression`, whose softmax loss
surface is available in closed form here.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..learn.models.logistic import LogisticRegression, softmax
from .base import ImportanceResult

__all__ = ["influence_importance", "tracin_importance", "per_sample_gradients"]


def _prepare(model: LogisticRegression, X: Any, y: Any) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Design matrix with bias column, class indices, and class probabilities."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    design = np.column_stack([X, np.ones(len(X))])
    classes = list(model.classes_)
    index = np.asarray([classes.index(label) for label in y.tolist()])
    logits = X @ model.coef_.T + model.intercept_
    probs = softmax(logits, axis=1)
    return design, index, probs


def per_sample_gradients(
    model: LogisticRegression, X: Any, y: Any
) -> np.ndarray:
    """Per-sample gradients of the cross-entropy loss, flattened to
    ``(n, n_classes · (n_features + 1))``.

    For the softmax loss, ``∇_W l = (p − onehot(y)) ⊗ [x, 1]``.
    """
    design, index, probs = _prepare(model, X, y)
    delta = probs.copy()
    delta[np.arange(len(index)), index] -= 1.0
    # grads[i] = outer(delta[i], design[i]) flattened
    return np.einsum("ik,id->ikd", delta, design).reshape(len(design), -1)


def _hessian(
    model: LogisticRegression, X: Any, y: Any, damping: float
) -> np.ndarray:
    """Mean Hessian of the softmax loss plus L2 and damping terms.

    ``H_i = (diag(p_i) − p_i p_iᵀ) ⊗ x_i x_iᵀ``. The softmax
    parameterisation has a shift-invariance null space, so ``damping`` keeps
    the matrix invertible (standard practice for influence functions).
    """
    design, __, probs = _prepare(model, X, y)
    n, d1 = design.shape
    k = probs.shape[1]
    H = np.zeros((k * d1, k * d1))
    for i in range(n):
        p = probs[i]
        S = np.diag(p) - np.outer(p, p)
        H += np.kron(S, np.outer(design[i], design[i]))
    H /= n
    # L2 penalty applies to weights only (not the bias column).
    l2_diag = np.tile(np.append(np.ones(d1 - 1), 0.0), k)
    H += model.l2 * np.diag(l2_diag)
    H += damping * np.eye(k * d1)
    return H


def influence_importance(
    model: LogisticRegression,
    x_train: Any,
    y_train: Any,
    x_valid: Any,
    y_valid: Any,
    damping: float = 1e-3,
) -> ImportanceResult:
    """Influence-function estimate of each point's benefit to validation loss.

    ``φ_i = (1/n) · g_validᵀ H⁻¹ g_i`` — the predicted *increase* in total
    validation loss if point i were removed. Positive = helpful, matching
    the library-wide sign convention.
    """
    if not model.is_fitted:
        model = model.fit(x_train, y_train)
    n = len(np.asarray(y_train))
    H = _hessian(model, x_train, y_train, damping)
    g_train = per_sample_gradients(model, x_train, y_train)
    g_valid = per_sample_gradients(model, x_valid, y_valid).sum(axis=0)
    # Solve H s = g_valid once, then dot with every training gradient.
    s = np.linalg.solve(H, g_valid)
    values = (g_train @ s) / n
    return ImportanceResult(
        method="influence",
        values=values,
        extras={"damping": damping},
    )


def tracin_importance(
    model: LogisticRegression,
    x_train: Any,
    y_train: Any,
    x_valid: Any,
    y_valid: Any,
) -> ImportanceResult:
    """Single-checkpoint TracIn: gradient alignment with the validation loss.

    ``φ_i = ⟨g_i, Σ_val g_val⟩`` — positive when a gradient step on point i
    would reduce the validation loss (a *proponent* in TracIn terms).
    """
    if not model.is_fitted:
        model = model.fit(x_train, y_train)
    g_train = per_sample_gradients(model, x_train, y_train)
    g_valid = per_sample_gradients(model, x_valid, y_valid).sum(axis=0)
    values = g_train @ g_valid
    return ImportanceResult(method="tracin", values=values)
