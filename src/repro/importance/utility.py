"""Utility games over training subsets.

Game-theoretic importance methods (LOO, Shapley, Banzhaf, Beta-Shapley) all
measure the same object: a *utility function* ``v(S)`` that maps a subset S
of training points to the downstream quality of a model trained on S. This
module provides that function with consistent handling of the degenerate
subsets (empty, single-class) that subset-sampling inevitably produces.

For a model of type exactly :class:`~repro.learn.KNeighborsClassifier`,
:class:`Utility` never refits: it computes the ``n_valid × n_train``
validation-to-train distance matrix once and reads every prediction off it
(see :attr:`Utility.distances` and :attr:`Utility.scan`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..learn.base import Estimator, clone
from ..learn.metrics import accuracy
from ..learn.models.knn import KNeighborsClassifier, pairwise_distances

__all__ = ["Utility", "SubsetUtility"]


class Utility:
    """``v(S)`` = metric of ``model`` trained on subset S, on validation data.

    Parameters
    ----------
    model:
        Unfitted estimator prototype; cloned for every evaluation (an
        exact ``KNeighborsClassifier`` is never fit, see Notes).
    x_train, y_train:
        The full training pool that subsets index into.
    x_valid, y_valid:
        Held-out data on which the metric is computed.
    metric:
        ``metric(y_true, y_pred) -> float``; defaults to accuracy. For
        fairness games pass a closure over the group attribute.
    null_score:
        Value of ``v(∅)``. Defaults to the accuracy of always predicting the
        majority *validation* class — the natural "no training data" model.

    Notes
    -----
    When ``type(model) is KNeighborsClassifier`` (not a subclass, not a
    wrapper), the constructor computes :attr:`distances` once, and both
    :meth:`evaluate` and :attr:`scan` read predictions off it instead of
    fitting a model per subset. The matrix takes ``8·n_valid·n_train``
    bytes, about the working set of one ``predict`` on the full pool; the
    first evaluation adds an ``int32`` table of each training row's
    neighbour rank (half that). Predictions follow
    ``KNeighborsClassifier`` exactly: neighbours are ordered by distance,
    then by training position, and the vote picks the class with the most
    votes, ties going to the smallest label. The
    one difference from a standalone ``fit(X[S]).predict`` is rounding:
    BLAS-backed distances (euclidean, cosine) can differ in the last bits
    depending on which columns a call computes, so two training points
    whose distances tie within rounding may order differently than in a
    standalone fit. Values from :meth:`evaluate` and :attr:`scan` are
    bit-identical to each other.
    """

    def __init__(
        self,
        model: Estimator,
        x_train: Any,
        y_train: Any,
        x_valid: Any,
        y_valid: Any,
        metric: Callable[[np.ndarray, np.ndarray], float] = accuracy,
        null_score: float | None = None,
    ) -> None:
        self.model = model
        self.x_train = np.asarray(x_train, dtype=float)
        self.y_train = np.asarray(y_train)
        self.x_valid = np.asarray(x_valid, dtype=float)
        self.y_valid = np.asarray(y_valid)
        if len(self.x_train) != len(self.y_train):
            raise ValueError("x_train and y_train must have equal length")
        if len(self.x_valid) != len(self.y_valid):
            raise ValueError("x_valid and y_valid must have equal length")
        self.metric = metric
        if null_score is None:
            values, counts = np.unique(self.y_valid, return_counts=True)
            majority = values[np.argmax(counts)]
            constant = np.repeat(np.asarray([majority]), len(self.y_valid))
            null_score = float(metric(self.y_valid, constant))
        self.null_score = float(null_score)
        self.n_evaluations = 0
        self._knn = _knn_votes(model, self.x_train, self.y_train, self.x_valid)

    @property
    def n_train(self) -> int:
        return len(self.y_train)

    @property
    def distances(self) -> np.ndarray | None:
        """``n_valid × n_train`` validation-to-train distances of a KNN model.

        None unless ``type(model) is KNeighborsClassifier``. Pool workers
        receive this matrix with the dataset arrays and never recompute it.
        """
        return self._knn.distances if self._knn is not None else None

    @property
    def scan(self) -> Callable[[Sequence[int]], Iterator[float]]:
        """``scan(ordering)``: iterator of ``v(prefix)`` along one ordering.

        Yields ``v(ordering[:1])``, ``v(ordering[:2])``, … lazily, one
        value per step, each equal bit for bit to :meth:`evaluate` on the
        sorted prefix and each counted as one evaluation (single-class
        prefixes included). The scan keeps every validation point's k
        nearest neighbours as rows arrive, so a step costs
        ``O(n_valid·k)`` instead of a fit and a predict. Only utilities
        with :attr:`distances` have it; on any other model reading the
        attribute raises ``AttributeError``, so ``hasattr(utility,
        "scan")`` tells the valuation engine whether to use it.
        """
        if self._knn is None:
            raise AttributeError(
                "scan needs a KNeighborsClassifier model, not "
                f"{type(self.model).__name__}"
            )
        return self._scan

    def evaluate(self, indices: Sequence[int]) -> float:
        """``v(S)`` for S given as training positions."""
        idx = np.asarray(list(indices), dtype=np.int64)
        if len(idx) == 0:
            return self.null_score
        ys = self.y_train[idx]
        if len(np.unique(ys)) < 2:
            # Single-class subset: the model degenerates to a constant
            # predictor of that class. No model is retrained, but the metric
            # *is* evaluated, so it counts toward ``n_evaluations`` (only the
            # empty subset, answered from the cached null score, is free).
            self.n_evaluations += 1
            constant = np.repeat(ys[:1], len(self.y_valid))
            return float(self.metric(self.y_valid, constant))
        self.n_evaluations += 1
        if self._knn is not None:
            predictions = self._knn.predict(idx)
        else:
            fitted = clone(self.model).fit(self.x_train[idx], ys)
            predictions = fitted.predict(self.x_valid)
        return float(self.metric(self.y_valid, predictions))

    def _scan(self, ordering: Sequence[int]) -> Iterator[float]:
        for predictions in self._knn.prefix_predictions(ordering):
            self.n_evaluations += 1
            yield float(self.metric(self.y_valid, predictions))

    def full_score(self) -> float:
        """``v(N)`` — utility of the entire training pool."""
        return self.evaluate(np.arange(self.n_train))


def _knn_votes(
    model: Estimator,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_valid: np.ndarray,
    distances: np.ndarray | None = None,
) -> "_KNNVotes | None":
    """The prediction kernel for an exact ``KNeighborsClassifier``, or None.

    ``distances`` is a precomputed matrix (a pool worker's shared copy);
    without it the matrix is computed here.
    """
    if type(model) is not KNeighborsClassifier:
        return None
    if distances is None:
        distances = pairwise_distances(x_valid, x_train, model.metric)
    return _KNNVotes(distances, y_train, model.n_neighbors)


class _KNNVotes:
    """``KNeighborsClassifier`` predictions read off one distance matrix.

    Training labels are coded by their sorted position (``classes``), so
    ``argmax`` over per-class vote counts breaks ties toward the smallest
    label, as ``KNeighborsClassifier.predict`` does.
    """

    def __init__(
        self, distances: np.ndarray, y_train: np.ndarray, n_neighbors: int
    ) -> None:
        self.distances = distances
        self.classes, codes = np.unique(y_train, return_inverse=True)
        self.codes = codes.reshape(-1)
        self.n_neighbors = int(n_neighbors)
        self._ranks: np.ndarray | None = None

    def _vote(self, neighbor_codes: np.ndarray) -> np.ndarray:
        """Majority label per row of an ``(n_valid, k)`` code matrix.

        Code ``n_classes`` marks an empty neighbour slot and never wins.
        """
        n_valid, width = len(neighbor_codes), len(self.classes) + 1
        offsets = width * np.arange(n_valid)[:, None]
        counts = np.bincount(
            (neighbor_codes + offsets).ravel(), minlength=n_valid * width
        ).reshape(n_valid, width)
        return self.classes[np.argmax(counts[:, :-1], axis=1)]

    def predict(self, idx: np.ndarray) -> np.ndarray:
        """Predictions of KNN fit on the training positions ``idx``.

        Ranks are distinct integers, so the k smallest among ``idx`` — the
        first k of a stable argsort over ``distances[:, idx]`` with ``idx``
        sorted — come from a partition, not a sort.
        """
        k = min(self.n_neighbors, len(idx))
        nearest = np.argpartition(self.ranks()[idx], k - 1, axis=0)[:k]
        return self._vote(self.codes[idx][nearest].T)

    def ranks(self) -> np.ndarray:
        """``ranks[j, v]``: position of training row j in validation point
        v's neighbour order over the full pool (distance, then training
        position — a stable argsort). Restricted to any subset, this order
        is the subset's own stable-argsort order. Built on first use, as
        ``int32`` (half the matrix's bytes)."""
        if self._ranks is None:
            n_valid, n_train = self.distances.shape
            order = np.argsort(self.distances, axis=1, kind="stable")
            ranks = np.empty((n_train, n_valid), dtype=np.int32)
            ranks[order, np.arange(n_valid)[:, None]] = np.arange(n_train)
            self._ranks = ranks
        return self._ranks

    def prefix_predictions(self, ordering: Sequence[int]) -> Iterator[np.ndarray]:
        """Predictions after each row of ``ordering`` joins the training set.

        Restricting the full-pool neighbour order (``ranks``) to a subset
        gives the subset's stable-argsort order, so the k smallest ranks
        seen so far are exactly the neighbours :meth:`predict` would pick.
        Each validation point keeps its top-k ranks and their label codes;
        a new row replaces the worst entry of every point whose top-k it
        enters. Empty slots hold the sentinel rank ``n_train`` and the
        empty-slot code ``n_classes``.
        """
        ranks = self.ranks()
        n_train, n_valid = ranks.shape
        k = min(self.n_neighbors, n_train)
        top_rank = np.full((n_valid, k), n_train, dtype=np.int32)
        top_code = np.full((n_valid, k), len(self.classes), dtype=np.intp)
        points = np.arange(n_valid)
        for j in ordering:
            rank = ranks[j]
            worst = np.argmax(top_rank, axis=1)
            rows = np.flatnonzero(rank < top_rank[points, worst])
            top_rank[rows, worst[rows]] = rank[rows]
            top_code[rows, worst[rows]] = self.codes[j]
            yield self._vote(top_code)


class SubsetUtility:
    """Adapter exposing an arbitrary ``v(indices)`` callable as a utility.

    Lets the game-theoretic estimators run over non-model games (used in
    tests against hand-constructed games with known Shapley values).
    """

    def __init__(self, func: Callable[[Sequence[int]], float], n_train: int) -> None:
        self.func = func
        self._n = int(n_train)
        self.n_evaluations = 0

    @property
    def n_train(self) -> int:
        return self._n

    def evaluate(self, indices: Sequence[int]) -> float:
        self.n_evaluations += 1
        return float(self.func(list(indices)))

    def full_score(self) -> float:
        return self.evaluate(list(range(self._n)))

    @property
    def null_score(self) -> float:
        return float(self.func([]))
