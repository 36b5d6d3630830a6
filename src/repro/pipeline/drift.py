"""Distribution-drift inspections for pipeline outputs.

Extends the mlinspect-style checks with statistical drift detection between
two datasets (training output vs serving/validation output, or this week's
pipeline run vs last week's): Kolmogorov–Smirnov tests on numeric columns,
total-variation distance on categorical columns, and class-balance shift on
the label. Out-of-distribution values are one of the error families in the
paper's Figure 1; these checks are how a screening policy notices them.

Importing this module loads no scipy; :func:`numeric_drift` imports
``scipy.stats`` on its first call.
"""

from __future__ import annotations

import numpy as np

from ..frame import DataFrame
from .inspections import Issue

__all__ = [
    "numeric_drift",
    "categorical_drift",
    "label_balance_shift",
    "drift_report",
]


def numeric_drift(
    reference: DataFrame,
    current: DataFrame,
    column: str,
    p_threshold: float = 0.01,
) -> list[Issue]:
    """Two-sample KS test on a numeric column; flags significant drift."""
    ref = reference.column(column)
    cur = current.column(column)
    if not (ref.is_numeric and cur.is_numeric):
        raise TypeError(f"column {column!r} is not numeric in both frames")
    a = ref.to_numpy(fill=np.nan).astype(float)
    b = cur.to_numpy(fill=np.nan).astype(float)
    a = a[~np.isnan(a)]
    b = b[~np.isnan(b)]
    if len(a) < 5 or len(b) < 5:
        return [
            Issue(
                check="numeric_drift",
                severity="info",
                message=f"column {column!r}: too few values for a drift test",
            )
        ]
    from scipy.stats import ks_2samp  # deferred: no scipy at import

    statistic, p_value = ks_2samp(a, b)
    if p_value < p_threshold:
        return [
            Issue(
                check="numeric_drift",
                severity="warning",
                message=(
                    f"column {column!r} drifted (KS statistic {statistic:.3f}, "
                    f"p = {p_value:.2g})"
                ),
                details={"column": column, "statistic": float(statistic),
                         "p_value": float(p_value)},
            )
        ]
    return []


def categorical_drift(
    reference: DataFrame,
    current: DataFrame,
    column: str,
    tv_threshold: float = 0.15,
) -> list[Issue]:
    """Total-variation distance between category distributions."""
    ref_counts = reference.column(column).value_counts()
    cur_counts = current.column(column).value_counts()
    categories = set(ref_counts) | set(cur_counts)
    ref_total = sum(ref_counts.values()) or 1
    cur_total = sum(cur_counts.values()) or 1
    tv = 0.5 * sum(
        abs(ref_counts.get(c, 0) / ref_total - cur_counts.get(c, 0) / cur_total)
        for c in categories
    )
    if tv > tv_threshold:
        return [
            Issue(
                check="categorical_drift",
                severity="warning",
                message=(
                    f"column {column!r} category distribution shifted "
                    f"(TV distance {tv:.3f} > {tv_threshold:g})"
                ),
                details={"column": column, "tv_distance": float(tv)},
            )
        ]
    return []


def label_balance_shift(
    reference: DataFrame,
    current: DataFrame,
    label_column: str,
    threshold: float = 0.1,
) -> list[Issue]:
    """Flag when any class's share moves by more than ``threshold``."""
    ref_counts = reference.column(label_column).value_counts()
    cur_counts = current.column(label_column).value_counts()
    ref_total = sum(ref_counts.values()) or 1
    cur_total = sum(cur_counts.values()) or 1
    issues = []
    for cls in set(ref_counts) | set(cur_counts):
        before = ref_counts.get(cls, 0) / ref_total
        after = cur_counts.get(cls, 0) / cur_total
        if abs(after - before) > threshold:
            issues.append(
                Issue(
                    check="label_balance_shift",
                    severity="warning",
                    message=(
                        f"class {cls!r} share moved {before:.0%} → {after:.0%}"
                    ),
                    details={"class": cls, "before": before, "after": after},
                )
            )
    return issues


def drift_report(
    reference: DataFrame,
    current: DataFrame,
    numeric_columns: list[str] | None = None,
    categorical_columns: list[str] | None = None,
    label_column: str | None = None,
) -> list[Issue]:
    """Run every applicable drift check over two frames."""
    issues: list[Issue] = []
    shared = [c for c in reference.columns if c in current]
    if numeric_columns is None:
        numeric_columns = [
            c for c in shared
            if reference.column(c).is_numeric and current.column(c).is_numeric
        ]
    if categorical_columns is None:
        categorical_columns = [
            c for c in shared
            if reference.column(c).dtype_kind == "string" and c != label_column
        ]
    for column in numeric_columns:
        issues.extend(numeric_drift(reference, current, column))
    for column in categorical_columns:
        issues.extend(categorical_drift(reference, current, column))
    if label_column is not None and label_column in reference and label_column in current:
        issues.extend(label_balance_shift(reference, current, label_column))
    return issues
