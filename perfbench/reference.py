"""Serial per-subset references and the output checks built on them.

The references are computed by the plain, obviously-correct route: every
subset utility is evaluated one at a time through ``Utility.evaluate``
(no engine memo, no pool, no checkpoint), and the closed-form KNN-Shapley
values through the scalar Jia et al. recursion, one validation point at a
time. A run's valuation values must match them within ``TOLERANCE`` and
pick the same bottom-k rows.

References are a function of the workload's generated inputs, so they are
built once per benchmark run (before any timed child starts) and handed to
every child as a JSON file; ``perturb`` makes the negative control.
"""

from __future__ import annotations

import copy
from bisect import insort
from dataclasses import dataclass
from typing import Any

import numpy as np

#: Largest absolute difference a valuation value may have from its reference.
TOLERANCE = 1e-9
#: What ``perturb`` adds to one value of each reference (well above TOLERANCE).
PERTURBATION = 1e-6


@dataclass
class Check:
    """The verdict on one operation."""

    op: str
    ok: bool
    detail: str = ""


def compare_values(op: str, got: Any, want: Any, k: int) -> Check:
    """Values within TOLERANCE of the reference, and identical bottom-k sets.

    Rows whose reference value ties the k-th smallest (within TOLERANCE)
    may swap across the bottom-k boundary: either set is a correct answer.
    """
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return Check(op, False, f"shape {got.shape} != reference {want.shape}")
    if not np.all(np.isfinite(got)):
        return Check(op, False, "non-finite values")
    worst = float(np.max(np.abs(got - want))) if len(got) else 0.0
    k = min(k, len(want))
    differing = set(np.argsort(got, kind="stable")[:k].tolist()) ^ set(
        np.argsort(want, kind="stable")[:k].tolist()
    )
    kth = float(np.sort(want)[k - 1]) if k else 0.0
    swaps_are_ties = all(abs(want[i] - kth) <= TOLERANCE for i in differing)
    ok = worst <= TOLERANCE and swaps_are_ties
    detail = f"max |diff| {worst:.1e} over {len(want)} values; bottom-{k} " + (
        "identical" if not differing
        else f"differs in {len(differing)} rows ({'ties' if swaps_are_ties else 'not ties'})"
    )
    return Check(op, ok, detail)


def spearman(a: Any, b: Any) -> float:
    """Spearman rank correlation with ties given their average rank."""

    def ranks(values: np.ndarray) -> np.ndarray:
        order = np.argsort(values, kind="stable")
        r = np.empty(len(values))
        r[order] = np.arange(len(values), dtype=float)
        __, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        sums = np.zeros(len(counts))
        np.add.at(sums, inverse, r)
        return sums[inverse] / counts[inverse]

    ra = ranks(np.asarray(a, dtype=float))
    rb = ranks(np.asarray(b, dtype=float))
    ra, rb = ra - ra.mean(), rb - rb.mean()
    denom = float(np.sqrt((ra**2).sum() * (rb**2).sum()))
    return float((ra * rb).sum() / denom) if denom else 0.0


# ---------------------------------------------------------------------- #
# reference valuations                                                   #
# ---------------------------------------------------------------------- #
def knn_shapley_reference(x, y, x_valid, y_valid, k: int) -> np.ndarray:
    """Closed-form KNN-Shapley, one validation point at a time.

    For the training points sorted by distance to a validation point
    (nearest first, 1-indexed), Jia et al.'s recursion is
    ``s_n = match_n / n · min(K, n) / K`` and
    ``s_i = s_{i+1} + (match_i − match_{i+1}) / K · min(K, i) / i``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    n = len(y)
    values = np.zeros(n)
    for point, label in zip(np.asarray(x_valid, dtype=float), np.asarray(y_valid)):
        order = np.argsort(np.sqrt(((x - point) ** 2).sum(axis=1)), kind="stable")
        match = (y[order] == label).astype(float)
        s = np.empty(n)
        s[n - 1] = match[n - 1] / n * min(k, n) / k
        for i in range(n - 2, -1, -1):
            rank = i + 1
            s[i] = s[i + 1] + (match[i] - match[i + 1]) / k * min(k, rank) / rank
        values[order] += s
    return values / len(y_valid)


def permutation_reference(utility, n_permutations: int, seed: int) -> np.ndarray:
    """Monte-Carlo Shapley: scan each ordering, one subset evaluation per step.

    Orderings are drawn the way the valuation engine draws them (one
    ``permutation`` per ordering from ``default_rng(seed)``); every prefix
    is evaluated afresh through ``utility.evaluate``.
    """
    rng = np.random.default_rng(seed)
    n = utility.n_train
    totals = np.zeros(n)
    for __ in range(n_permutations):
        prefix: list[int] = []
        previous = utility.null_score
        row = np.zeros(n)
        for i in rng.permutation(n):
            insort(prefix, int(i))
            current = float(utility.evaluate(np.asarray(prefix, dtype=np.int64)))
            row[i] = current - previous
            previous = current
        totals += row
    return totals / n_permutations


def banzhaf_reference(utility, n_samples: int, seed: int) -> np.ndarray:
    """Maximum-sample-reuse Banzhaf: evaluate every sampled subset once."""
    rng = np.random.default_rng(seed)
    n = utility.n_train
    membership = rng.random((n_samples, n)) < 0.5
    scores = np.asarray(
        [float(utility.evaluate(np.flatnonzero(row))) for row in membership]
    )
    values = np.zeros(n)
    for i in range(n):
        with_i = membership[:, i]
        if 0 < with_i.sum() < n_samples:
            values[i] = scores[with_i].mean() - scores[~with_i].mean()
    return values


# ---------------------------------------------------------------------- #
# per-workload references                                                #
# ---------------------------------------------------------------------- #
def build(workload: str, seed: int) -> dict[str, Any]:
    """The JSON-able reference for one workload and seed."""
    import repro.core as nde
    from repro.importance import Utility
    from repro.learn import GaussianNB, KNeighborsClassifier

    from . import workloads as w

    if workload == w.PipelineMC.name:
        data = w.PipelineMC.inputs(seed)
        letters = data["letters"]
        knn_shapley = knn_shapley_reference(
            nde.default_featurize(letters["dirty"]),
            np.asarray(letters["dirty"].column("sentiment").to_list()),
            nde.default_featurize(letters["valid"]),
            np.asarray(letters["valid"].column("sentiment").to_list()),
            k=5,
        )
        tr, va = w.PipelineMC.encode(data)
        row_ids = np.asarray(tr.provenance.source_row_ids("train_df"), dtype=np.int64)
        if len(np.unique(row_ids)) != len(row_ids):
            raise ValueError("reference assumes one encoded row per source row")
        utility = Utility(KNeighborsClassifier(1), tr.X, tr.y, va.X, va.y)
        exact = knn_shapley_reference(tr.X, tr.y, va.X, va.y, k=1)
        mc = permutation_reference(utility, w.MC_PERMUTATIONS, seed)
        by_rid = np.argsort(row_ids, kind="stable")
        return {
            "knn_shapley": knn_shapley.tolist(),
            "row_ids": row_ids[by_rid].tolist(),
            "exact_knn": exact[by_rid].tolist(),
            "shapley_mc": mc[by_rid].tolist(),
            "banzhaf_mc": banzhaf_reference(utility, w.BANZHAF_SUBSETS, seed).tolist(),
        }

    if workload == w.ServicePooled.name:
        arrays = w.ServicePooled.inputs(seed)
        utility = Utility(
            GaussianNB(),
            arrays["x_train"], arrays["y_train"], arrays["x_valid"], arrays["y_valid"],
        )
        jobs = {}
        for j in range(w.SERVICE_JOBS):
            job_seed = w.job_seed(seed, j)
            jobs[str(job_seed)] = permutation_reference(
                utility, w.SERVICE_PERMUTATIONS, job_seed
            ).tolist()
        return {"jobs": jobs}

    raise ValueError(f"unknown workload {workload!r}")


def perturb(ref: dict[str, Any]) -> dict[str, Any]:
    """A copy with the first value of every reference valuation shifted."""
    out = copy.deepcopy(ref)
    for key, value in out.items():
        if key == "jobs":
            for values in value.values():
                values[0] += PERTURBATION
        elif key != "row_ids":
            value[0] += PERTURBATION
    return out
