"""Probability calibration and reliability metrics.

"Calibration" is the first operation the paper's Figure 1 lists in the
*Predictive Query Processing* stage: downstream queries aggregate predicted
probabilities, so miscalibrated scores silently corrupt query answers even
when classification accuracy is fine. This module provides Platt scaling
(logistic calibration on held-out scores) and the expected calibration
error (ECE) diagnostic.

Importing this module loads no scipy; :meth:`PlattCalibrator.fit` imports
``scipy.optimize`` on its first call.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .base import Estimator
from .models.logistic import sigmoid

__all__ = ["PlattCalibrator", "expected_calibration_error", "reliability_table"]


def expected_calibration_error(
    y_true: Any, probabilities: Any, positive: Any, n_bins: int = 10
) -> float:
    """ECE: mean |confidence − accuracy| over equal-width probability bins.

    ``probabilities`` are the predicted probabilities of ``positive``.
    """
    y_true = np.asarray(y_true)
    probs = np.asarray(probabilities, dtype=float)
    if len(y_true) != len(probs):
        raise ValueError("length mismatch")
    outcomes = (y_true == positive).astype(float)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    total = 0.0
    for b in range(n_bins):
        members = (probs >= edges[b]) & (
            (probs < edges[b + 1]) if b < n_bins - 1 else (probs <= edges[b + 1])
        )
        if not members.any():
            continue
        confidence = probs[members].mean()
        accuracy = outcomes[members].mean()
        total += members.mean() * abs(confidence - accuracy)
    return float(total)


def reliability_table(
    y_true: Any, probabilities: Any, positive: Any, n_bins: int = 10
) -> list[dict]:
    """Per-bin (confidence, empirical rate, count) records for plotting."""
    y_true = np.asarray(y_true)
    probs = np.asarray(probabilities, dtype=float)
    outcomes = (y_true == positive).astype(float)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    rows = []
    for b in range(n_bins):
        members = (probs >= edges[b]) & (
            (probs < edges[b + 1]) if b < n_bins - 1 else (probs <= edges[b + 1])
        )
        if not members.any():
            continue
        rows.append(
            {
                "bin": f"[{edges[b]:.1f}, {edges[b + 1]:.1f})",
                "mean_confidence": float(probs[members].mean()),
                "empirical_rate": float(outcomes[members].mean()),
                "count": int(members.sum()),
            }
        )
    return rows


class PlattCalibrator:
    """Platt scaling: fit ``σ(a·score + b)`` on held-out scores.

    Wraps a fitted binary probabilistic classifier; ``fit`` learns the
    (a, b) recalibration on calibration data, ``predict_proba`` returns the
    recalibrated probability of the positive class.
    """

    def __init__(self, model: Estimator, positive: Any) -> None:
        self.model = model
        self.positive = positive

    def _scores(self, X: Any) -> np.ndarray:
        probs = self.model.predict_proba(X)
        classes = list(self.model.classes_)
        if self.positive not in classes:
            raise ValueError(f"positive class {self.positive!r} unknown to model")
        p = np.clip(probs[:, classes.index(self.positive)], 1e-7, 1 - 1e-7)
        return np.log(p / (1.0 - p))  # logit of the raw probability

    def fit(self, X: Any, y: Any) -> "PlattCalibrator":
        from scipy.optimize import minimize_scalar  # deferred: no scipy at import

        scores = self._scores(X)
        targets = (np.asarray(y) == self.positive).astype(float)

        def negative_log_likelihood(params: np.ndarray) -> float:
            a, b = params
            p = np.clip(sigmoid(a * scores + b), 1e-12, 1 - 1e-12)
            return float(-np.mean(targets * np.log(p) + (1 - targets) * np.log(1 - p)))

        # Coordinate descent on (a, b); the objective is convex and 2-D.
        a, b = 1.0, 0.0
        for __ in range(25):
            result = minimize_scalar(
                lambda aa: negative_log_likelihood(np.asarray([aa, b])),
                bounds=(0.01, 20.0),
                method="bounded",
            )
            a = float(result.x)
            result = minimize_scalar(
                lambda bb: negative_log_likelihood(np.asarray([a, bb])),
                bounds=(-10.0, 10.0),
                method="bounded",
            )
            b = float(result.x)
        self.a_, self.b_ = a, b
        return self

    def predict_proba(self, X: Any) -> np.ndarray:
        """Recalibrated probability of the positive class, shape (n,)."""
        if not hasattr(self, "a_"):
            raise RuntimeError("calibrator is not fitted")
        return sigmoid(self.a_ * self._scores(X) + self.b_)

    def predict(self, X: Any) -> np.ndarray:
        probs = self.predict_proba(X)
        classes = [c for c in self.model.classes_ if c != self.positive]
        negative = classes[0] if classes else self.positive
        return np.where(probs >= 0.5, self.positive, negative)
