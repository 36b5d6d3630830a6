"""Linear models: least-squares/ridge regression and a linear SVM.

These are the model classes for which the tutorial's "Learn" part provides
guarantees: certain and approximately-certain models (Zhen et al. [92]) are
defined for linear regression and SVMs, and
:mod:`repro.uncertainty.certain_models` reuses the loss functions here.

Importing this module loads no scipy; :meth:`LinearSVC.fit` imports
``scipy.optimize`` on its first call.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..base import Estimator, check_matrix, check_xy

__all__ = ["LinearRegression", "RidgeRegression", "LinearSVC", "squared_hinge_loss"]


class LinearRegression(Estimator):
    """Ordinary least squares via the normal equations (pinv for stability)."""

    def __init__(self, fit_intercept: bool = True) -> None:
        self.fit_intercept = bool(fit_intercept)

    def _design(self, X: np.ndarray) -> np.ndarray:
        if self.fit_intercept:
            return np.column_stack([X, np.ones(len(X))])
        return X

    def fit(self, X: Any, y: Any) -> "LinearRegression":
        X, y = check_xy(X, np.asarray(y, dtype=float))
        theta = np.linalg.pinv(self._design(X)) @ y
        if self.fit_intercept:
            self.coef_, self.intercept_ = theta[:-1], float(theta[-1])
        else:
            self.coef_, self.intercept_ = theta, 0.0
        return self

    def predict(self, X: Any) -> np.ndarray:
        self._require_fitted()
        return check_matrix(X) @ self.coef_ + self.intercept_

    def score(self, X: Any, y: Any) -> float:
        """Coefficient of determination R²."""
        y = np.asarray(y, dtype=float)
        residual = np.sum((y - self.predict(X)) ** 2)
        total = np.sum((y - y.mean()) ** 2)
        if total == 0:
            return 1.0 if residual == 0 else 0.0
        return float(1.0 - residual / total)

    def mse(self, X: Any, y: Any) -> float:
        y = np.asarray(y, dtype=float)
        return float(np.mean((self.predict(X) - y) ** 2))


class RidgeRegression(LinearRegression):
    """L2-regularised least squares (closed form)."""

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True) -> None:
        super().__init__(fit_intercept=fit_intercept)
        self.alpha = float(alpha)

    def fit(self, X: Any, y: Any) -> "RidgeRegression":
        X, y = check_xy(X, np.asarray(y, dtype=float))
        D = self._design(X)
        penalty = self.alpha * np.eye(D.shape[1])
        if self.fit_intercept:
            penalty[-1, -1] = 0.0  # do not shrink the intercept
        theta = np.linalg.solve(D.T @ D + penalty, D.T @ y)
        if self.fit_intercept:
            self.coef_, self.intercept_ = theta[:-1], float(theta[-1])
        else:
            self.coef_, self.intercept_ = theta, 0.0
        return self


def squared_hinge_loss(
    theta: np.ndarray, X: np.ndarray, y_signed: np.ndarray, C: float
) -> tuple[float, np.ndarray]:
    """L2-regularised squared-hinge objective and gradient.

    ``theta`` is ``(w, b)`` concatenated; ``y_signed`` is in {-1, +1}.
    """
    w, b = theta[:-1], theta[-1]
    margins = y_signed * (X @ w + b)
    slack = np.clip(1.0 - margins, 0.0, None)
    loss = 0.5 * float(w @ w) + C * float(np.sum(slack**2))
    active = slack > 0
    grad_w = w - 2.0 * C * ((slack[active] * y_signed[active]) @ X[active])
    grad_b = -2.0 * C * float(np.sum(slack[active] * y_signed[active]))
    return loss, np.append(grad_w, grad_b)


class LinearSVC(Estimator):
    """Binary linear SVM with squared hinge loss, trained with L-BFGS."""

    def __init__(self, C: float = 1.0, max_iter: int = 200) -> None:
        self.C = float(C)
        self.max_iter = int(max_iter)

    def fit(self, X: Any, y: Any) -> "LinearSVC":
        X, y = check_xy(X, y)
        self.classes_ = np.unique(y)
        if len(self.classes_) > 2:
            raise ValueError("LinearSVC is binary; got more than two classes")
        if len(self.classes_) < 2:
            self.coef_ = np.zeros(X.shape[1])
            self.intercept_ = 0.0
            return self
        y_signed = np.where(y == self.classes_[1], 1.0, -1.0)
        from scipy.optimize import minimize  # deferred: no scipy at import

        result = minimize(
            squared_hinge_loss,
            np.zeros(X.shape[1] + 1),
            args=(X, y_signed, self.C),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.coef_ = result.x[:-1]
        self.intercept_ = float(result.x[-1])
        return self

    def decision_function(self, X: Any) -> np.ndarray:
        self._require_fitted()
        return check_matrix(X) @ self.coef_ + self.intercept_

    def predict(self, X: Any) -> np.ndarray:
        self._require_fitted()
        if len(self.classes_) < 2:
            return np.repeat(self.classes_[:1], len(check_matrix(X)))
        scores = self.decision_function(X)
        return np.where(scores >= 0, self.classes_[1], self.classes_[0])
