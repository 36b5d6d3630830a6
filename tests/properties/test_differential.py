"""Differential tests: implementation variants that must agree bit-for-bit.

The library promises two strong determinism guarantees:

* :func:`knn_shapley` streams the validation set in blocks, and blocking
  must not change the result — not even in the last float bit.
* :class:`ValuationEngine` merges worker results in permutation order, so
  Monte-Carlo values are bit-identical for every ``n_workers``.

The numpy :func:`softmax` that replaced ``scipy.special.softmax`` must match
scipy bit for bit as well.

Hypothesis drives both over random games; additive games additionally have
a closed-form answer (the weights) the Monte-Carlo estimate must straddle.
"""

import numpy as np
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.importance import shapley_mc
from repro.importance.engine import ValuationEngine
from repro.importance.knn_shapley import knn_shapley
from repro.importance.utility import SubsetUtility
from repro.learn.models.logistic import softmax

seeds = st.integers(min_value=0, max_value=10_000)
weight_lists = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    min_size=3,
    max_size=8,
)


def _additive(weights):
    """v(S) = Σ_{i∈S} w_i — exact Shapley values are the weights."""
    w = np.asarray(weights, dtype=float)

    def v(indices):
        idx = np.asarray(list(indices), dtype=np.int64)
        return float(w[idx].sum()) if len(idx) else 0.0

    return SubsetUtility(v, len(w))


class TestKnnShapleyBlocking:
    @given(
        seed=seeds,
        n_train=st.integers(min_value=3, max_value=20),
        n_valid=st.integers(min_value=1, max_value=12),
        block_size=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_block_size_is_bit_identical_to_one_shot(
        self, seed, n_train, n_valid, block_size
    ):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n_train, 3))
        y = rng.integers(0, 3, size=n_train)
        x_valid = rng.normal(size=(n_valid, 3))
        y_valid = rng.integers(0, 3, size=n_valid)
        one_shot = knn_shapley(x, y, x_valid, y_valid, k=3, block_size=10_000)
        blocked = knn_shapley(x, y, x_valid, y_valid, k=3, block_size=block_size)
        assert np.array_equal(one_shot.values, blocked.values)


class TestEngineWorkerInvariance:
    @given(weights=weight_lists, seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_serial_and_parallel_permutation_runs_are_bit_identical(
        self, weights, seed
    ):
        serial = ValuationEngine(_additive(weights), n_workers=1)
        parallel = ValuationEngine(_additive(weights), n_workers=3)
        a = serial.run_permutations(8, seed=seed)
        b = parallel.run_permutations(8, seed=seed)
        assert np.array_equal(a.totals, b.totals)
        assert np.array_equal(a.values(), b.values())

    @given(weights=weight_lists, seed=seeds)
    @settings(max_examples=6, deadline=None)
    def test_antithetic_runs_are_worker_count_invariant(self, weights, seed):
        serial = ValuationEngine(_additive(weights), n_workers=1)
        parallel = ValuationEngine(_additive(weights), n_workers=2)
        a = serial.run_permutations(8, seed=seed, antithetic=True)
        b = parallel.run_permutations(8, seed=seed, antithetic=True)
        assert np.array_equal(a.values(), b.values())

    @given(weights=weight_lists, seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_evaluate_many_is_worker_count_invariant(self, weights, seed):
        rng = np.random.default_rng(seed)
        n = len(weights)
        subsets = [
            np.flatnonzero(rng.random(n) < 0.5) for __ in range(12)
        ]
        serial = ValuationEngine(_additive(weights), n_workers=1)
        parallel = ValuationEngine(_additive(weights), n_workers=3)
        assert np.array_equal(
            serial.evaluate_many(subsets), parallel.evaluate_many(subsets)
        )

    @given(weights=weight_lists, seed=seeds)
    @settings(max_examples=6, deadline=None)
    def test_shapley_mc_matches_exact_values_on_additive_games(
        self, weights, seed
    ):
        # Every permutation's marginal for i is exactly w_i, so even a
        # single-permutation estimate is exact up to FP summation noise —
        # and stays exact through the parallel path.
        result = shapley_mc(
            None, n_permutations=4, seed=seed, engine=ValuationEngine(
                _additive(weights), n_workers=2
            ),
        )
        np.testing.assert_allclose(result.values, np.asarray(weights), atol=1e-9)


logits = st.integers(min_value=1, max_value=2).flatmap(
    lambda ndim: hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=ndim, max_dims=ndim, max_side=6),
        elements=st.one_of(
            st.floats(min_value=-1e3, max_value=1e3), st.just(-np.inf)
        ),
    )
)


class TestSoftmaxMatchesScipy:
    @given(x=logits, axis=st.sampled_from([None, 0, 1, -1]))
    @example(x=np.array([[-np.inf, -np.inf], [1e3, -np.inf]]), axis=1)
    @example(x=np.array([-1e3, 1e3, -np.inf]), axis=None)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, x, axis):
        if axis == 1 and x.ndim == 1:
            axis = 0
        with np.errstate(invalid="ignore"):  # all -inf slices give NaN
            ours = softmax(x, axis=axis)
            reference = scipy.special.softmax(x, axis=axis)
        assert ours.dtype == reference.dtype
        assert np.array_equal(ours, reference, equal_nan=True)
