"""Aggregate complaint resolution over predictive queries (Rain [83, 20]).

Rain's signature capability is debugging *aggregate* query complaints:
"the average predicted approval rate for sector X looks too high — which
training tuples caused that?" The resolver ranks training points by their
influence-function effect on the complained-about aggregate, removes the
most responsible ones, retrains, and verifies against the user's target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..frame import DataFrame
from ..importance.influence import _hessian, per_sample_gradients
from ..learn.base import clone
from ..learn.models.logistic import LogisticRegression, softmax
from .predictive import PredictiveQuery

__all__ = ["AggregateComplaint", "AggregateResolution", "resolve_aggregate_complaint"]


@dataclass
class AggregateComplaint:
    """The aggregate for ``group`` should be on the stated side of ``target``."""

    group: Any
    target: float
    direction: str  # "at_most" | "at_least"

    def __post_init__(self) -> None:
        if self.direction not in ("at_most", "at_least"):
            raise ValueError("direction must be 'at_most' or 'at_least'")

    def is_satisfied(self, value: float) -> bool:
        if self.direction == "at_most":
            return value <= self.target + 1e-12
        return value >= self.target - 1e-12


@dataclass
class AggregateResolution:
    resolved: bool
    removed_positions: np.ndarray
    value_before: float
    value_after: float
    trace: list[dict] = field(default_factory=list)


def _aggregate_gradient(
    model: LogisticRegression, X_group: np.ndarray, positive: Any
) -> np.ndarray:
    """∇_θ of mean P(positive | x) over the group, flattened like the
    per-sample loss gradients (class-major over [features, bias])."""
    classes = list(model.classes_)
    j = classes.index(positive)
    design = np.column_stack([X_group, np.ones(len(X_group))])
    logits = X_group @ model.coef_.T + model.intercept_
    probs = softmax(logits, axis=1)
    k = len(classes)
    grad = np.zeros((k, design.shape[1]))
    for c in range(k):
        # d p_j / d z_c = p_j (δ_{jc} − p_c); d z_c / d W_c = design row.
        factor = probs[:, j] * ((1.0 if c == j else 0.0) - probs[:, c])
        grad[c] = factor @ design / len(X_group)
    return grad.reshape(-1)


def resolve_aggregate_complaint(
    query: PredictiveQuery,
    x_train: Any,
    y_train: Any,
    frame: DataFrame,
    complaint: AggregateComplaint,
    max_removals: int = 30,
    batch_size: int = 5,
    damping: float = 1e-3,
) -> AggregateResolution:
    """Remove the training points most responsible for the complaint.

    Requires the query's model to be a fitted
    :class:`~repro.learn.LogisticRegression` (the influence machinery needs
    its loss surface). Candidates are ranked by the first-order estimate of
    how much *removing* them moves the group aggregate in the complainant's
    desired direction; batches are removed with full retraining and the
    actual query re-run as the verifier.
    """
    model = query.model
    if not isinstance(model, LogisticRegression):
        raise TypeError("aggregate complaint resolution requires LogisticRegression")
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train)

    result = query.run(frame)
    value_before = result.value_for(complaint.group)
    if complaint.is_satisfied(value_before):
        return AggregateResolution(
            resolved=True,
            removed_positions=np.empty(0, dtype=np.int64),
            value_before=value_before,
            value_after=value_before,
        )

    groups = np.asarray(frame.column(query.group_column).to_list())
    X_group = query.featurize(frame)[groups == complaint.group]

    # Removal effect of training point i on the aggregate a(θ):
    # Δθ ≈ H⁻¹ g_i / n  ⇒  Δa ≈ ∇aᵀ H⁻¹ g_i / n.
    H = _hessian(model, x_train, y_train, damping)
    grads = per_sample_gradients(model, x_train, y_train)
    agg_grad = _aggregate_gradient(model, X_group, query.positive)
    s = np.linalg.solve(H, agg_grad)
    removal_effect = (grads @ s) / len(y_train)
    # Positive effect = removal increases the aggregate. Order by how much
    # removal moves the value the way the complaint wants.
    desired_sign = -1.0 if complaint.direction == "at_most" else 1.0
    order = np.argsort(-desired_sign * removal_effect, kind="stable")

    removed: list[int] = []
    keep = np.ones(len(y_train), dtype=bool)
    trace: list[dict] = []
    value_after = value_before
    for start in range(0, min(max_removals, len(order)), batch_size):
        batch = order[start : start + batch_size]
        batch = batch[desired_sign * removal_effect[batch] > 0]
        if len(batch) == 0:
            break
        removed.extend(int(b) for b in batch)
        keep[batch] = False
        if len(np.unique(y_train[keep])) < 2:
            keep[batch] = True
            break
        retrained = clone(model).fit(x_train[keep], y_train[keep])
        patched_query = PredictiveQuery(
            model=retrained,
            featurize=query.featurize,
            group_column=query.group_column,
            aggregate=query.aggregate,
            positive=query.positive,
            calibrator=query.calibrator,
            decision_map=query.decision_map,
        )
        value_after = patched_query.run(frame).value_for(complaint.group)
        trace.append({"n_removed": len(removed), "value": value_after})
        if complaint.is_satisfied(value_after):
            return AggregateResolution(
                resolved=True,
                removed_positions=np.asarray(removed, dtype=np.int64),
                value_before=value_before,
                value_after=value_after,
                trace=trace,
            )
    return AggregateResolution(
        resolved=False,
        removed_positions=np.asarray(removed, dtype=np.int64),
        value_before=value_before,
        value_after=value_after,
        trace=trace,
    )
