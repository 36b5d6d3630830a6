"""Permutation-scan kernel for KNN utilities: differential and pool tests.

``Utility`` reads an exact ``KNeighborsClassifier``'s predictions off one
validation-to-train distance matrix, both per subset (``evaluate``) and
along a permutation (``scan``). The contract pinned here:

* every value ``scan`` yields equals ``evaluate`` on the sorted prefix, bit
  for bit, for any k, distance metric, scoring metric, and prefix shape
  (smaller than k, single-class);
* on small-integer features — where every distance is exact, so duplicated
  rows with conflicting labels are true ties — ``evaluate`` equals a
  standalone ``fit(X[S]).predict``, tie rule included;
* only a model of type exactly ``KNeighborsClassifier`` gets the kernel;
* engine runs on the kernel equal runs on the generic refit path, and
  serial, per-run pool (every mode), registry-leased and checkpoint-resumed
  runs agree in values and evaluation census;
* pool workers read the driver's distance matrix rather than computing
  their own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.importance.engine as engine_mod
import repro.importance.utility as utility_mod
from repro.importance import Utility, ValuationEngine, valuation_pool
from repro.importance.pool import _rebuild_utility, _utility_spec
from repro.importance.shm import SharedArrayBundle
from repro.learn import KNeighborsClassifier, LogisticRegression, clone
from repro.learn.metrics import accuracy
from repro.unlearning import RemovalAwareKNN

needs_fork = pytest.mark.skipif(
    engine_mod._FORK_CTX is None, reason="requires a fork-capable platform"
)


def minority_recall(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """A scoring metric other than accuracy (module-level, so it pickles)."""
    hits = y_true == 0
    return float(np.mean(y_pred[hits] == 0)) if hits.any() else 0.0


METRICS = {"accuracy": accuracy, "minority_recall": minority_recall}


class PlainKNN(KNeighborsClassifier):
    """A subclass: same predictions, but the utility must refit it."""


def integer_game(seed: int, n_train: int = 24, n_valid: int = 11, n_classes: int = 3):
    """Small-integer features with duplicated rows carrying other labels."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(n_train, 3)).astype(float)
    x[n_train // 2 :] = x[: n_train - n_train // 2]  # every row twice
    y = rng.integers(0, n_classes, size=n_train)
    x_valid = rng.integers(-2, 3, size=(n_valid, 3)).astype(float)
    y_valid = rng.integers(0, n_classes, size=n_valid)
    return x, y, x_valid, y_valid


def knn_utility(
    seed: int = 0, k: int = 3, distance: str = "euclidean",
    metric=accuracy, model_type=KNeighborsClassifier, **sizes,
) -> Utility:
    x, y, x_valid, y_valid = integer_game(seed, **sizes)
    return Utility(
        model_type(k, metric=distance), x, y, x_valid, y_valid, metric=metric
    )


games = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "k": st.sampled_from([1, 2, 3, 5]),
        "distance": st.sampled_from(["euclidean", "manhattan", "cosine"]),
        "metric": st.sampled_from(sorted(METRICS)),
        "n_classes": st.integers(min_value=1, max_value=3),
        "n_train": st.integers(min_value=1, max_value=16),
    }
)


def build(game: dict) -> Utility:
    return knn_utility(
        seed=game["seed"], k=game["k"], distance=game["distance"],
        metric=METRICS[game["metric"]], n_classes=game["n_classes"],
        n_train=game["n_train"], n_valid=9,
    )


# ---------------------------------------------------------------------- #
# differential: scan vs evaluate vs fit/predict                          #
# ---------------------------------------------------------------------- #


class TestKernelDifferential:
    @given(game=games, order_seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_scan_equals_evaluate_on_every_sorted_prefix(self, game, order_seed):
        utility = build(game)
        order = np.random.default_rng(order_seed).permutation(utility.n_train)
        before = utility.n_evaluations
        scanned = list(utility.scan(order))
        assert utility.n_evaluations - before == utility.n_train
        expected = [
            utility.evaluate(np.sort(order[: m + 1])) for m in range(len(order))
        ]
        assert scanned == expected  # exact float equality, prefix by prefix

    @given(game=games, subset_seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_evaluate_equals_standalone_fit_predict(self, game, subset_seed):
        utility = build(game)
        rng = np.random.default_rng(subset_seed)
        for __ in range(6):
            size = int(rng.integers(1, utility.n_train + 1))
            subset = np.sort(rng.choice(utility.n_train, size=size, replace=False))
            fitted = clone(utility.model).fit(
                utility.x_train[subset], utility.y_train[subset]
            )
            want = utility.metric(utility.y_valid, fitted.predict(utility.x_valid))
            assert utility.evaluate(subset) == float(want)

    def test_ties_go_to_the_lower_training_position_then_smallest_label(self):
        # Two identical training rows, labels "b" then "a": 1-NN takes the
        # first position ("b"); 2-NN ties one vote each and takes "a".
        x = np.asarray([[0.0], [0.0], [5.0]])
        y = np.asarray(["b", "a", "b"])
        x_valid, y_valid = np.asarray([[0.0]]), np.asarray(["b"])
        one = Utility(KNeighborsClassifier(1), x, y, x_valid, y_valid)
        two = Utility(KNeighborsClassifier(2), x, y, x_valid, y_valid)
        assert one.evaluate([0, 1, 2]) == 1.0
        assert two.evaluate([0, 1, 2]) == 0.0
        assert list(one.scan([2, 1, 0])) == [1.0, 0.0, 1.0]
        assert list(two.scan([2, 1, 0])) == [1.0, 0.0, 0.0]

    def test_single_class_prefixes_count_as_evaluations(self):
        utility = knn_utility(seed=3, n_classes=1)
        before = utility.n_evaluations
        values = list(utility.scan(np.arange(utility.n_train)))
        assert utility.n_evaluations - before == utility.n_train
        assert len(set(values)) == 1


class TestKernelScope:
    @pytest.mark.parametrize(
        "model", [PlainKNN(3), RemovalAwareKNN(3), LogisticRegression(max_iter=5)]
    )
    def test_only_exact_knn_models_get_a_scan(self, model):
        x, y, x_valid, y_valid = integer_game(0)
        utility = Utility(model, x, y, x_valid, y_valid)
        assert not hasattr(utility, "scan")
        assert utility.distances is None

    def test_distance_matrix_is_computed_once_at_construction(self):
        utility = knn_utility(seed=1)
        assert utility.distances.shape == (len(utility.y_valid), utility.n_train)
        distances = utility.distances
        utility.evaluate(np.arange(5))
        list(utility.scan(np.arange(utility.n_train)))
        assert utility.distances is distances


# ---------------------------------------------------------------------- #
# engine: kernel path vs generic refit path                              #
# ---------------------------------------------------------------------- #


ENGINE_KNOBS = [
    {},
    {"weights": np.linspace(2.0, 0.5, 24)},
    {"truncation_tolerance": 0.05},
    {"antithetic": True},
    {"antithetic": True, "truncation_tolerance": 0.02, "check_every": 3,
     "convergence_tolerance": 1e-9},
]


class TestEngineOnKernel:
    @pytest.mark.parametrize("knobs", ENGINE_KNOBS)
    def test_kernel_run_equals_generic_run(self, knobs):
        kernel = ValuationEngine(knn_utility(seed=5)).run_permutations(
            9, seed=2, **knobs
        )
        generic = ValuationEngine(
            knn_utility(seed=5, model_type=PlainKNN)
        ).run_permutations(9, seed=2, **knobs)
        assert np.array_equal(kernel.values(), generic.values())
        assert np.array_equal(kernel.stderr(), generic.stderr())
        assert kernel.truncated_scans == generic.truncated_scans

    def test_kernel_scan_bypasses_the_subset_cache(self):
        engine = ValuationEngine(knn_utility(seed=5))
        run = engine.run_permutations(4, seed=2)
        # Only the v(∅) anchor goes through the memo; no prefix does.
        assert engine.cache.stats()["misses"] == 1
        assert run.n_evaluations == 4 * 24


# ---------------------------------------------------------------------- #
# pools: every mode agrees with serial, workers use the driver's matrix  #
# ---------------------------------------------------------------------- #


def unpicklable_metric():
    def metric(y_true, y_pred):
        return float(np.mean(y_true == y_pred))

    return metric


def serial_reference(**kwargs):
    utility = knn_utility(seed=7, **kwargs)
    run = ValuationEngine(utility).run_permutations(8, seed=4, antithetic=True)
    return run, utility.n_evaluations


def assert_same_run(run, evaluations, reference):
    ref_run, ref_evaluations = reference
    assert np.array_equal(run.values(), ref_run.values())
    assert np.array_equal(run.stderr(), ref_run.stderr())
    assert run.n_evaluations == ref_run.n_evaluations
    assert evaluations == ref_evaluations


@pytest.fixture()
def per_run_modes(monkeypatch):
    """Record the mode of every per-run pool the engine opens."""
    modes: list[str] = []

    class Recording(engine_mod._PerRunPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            modes.append(self.mode)

    monkeypatch.setattr(engine_mod, "_PerRunPool", Recording)
    return modes


class TestPoolModes:
    @needs_fork
    def test_per_run_shm_fork_pool(self, per_run_modes):
        utility = knn_utility(seed=7)
        run = ValuationEngine(utility, n_workers=2).run_permutations(
            8, seed=4, antithetic=True
        )
        assert per_run_modes == ["shm-fork"]
        assert_same_run(run, utility.n_evaluations, serial_reference())

    @needs_fork
    def test_per_run_fork_pool_with_closure_metric(self, per_run_modes):
        metric = unpicklable_metric()
        utility = knn_utility(seed=7, metric=metric)
        run = ValuationEngine(utility, n_workers=2).run_permutations(
            8, seed=4, antithetic=True
        )
        assert per_run_modes == ["fork"]
        assert_same_run(run, utility.n_evaluations, serial_reference(metric=metric))

    @pytest.mark.slow
    def test_per_run_spawn_pool(self, per_run_modes, monkeypatch):
        monkeypatch.setattr(engine_mod, "_FORK_CTX", None)
        utility = knn_utility(seed=7)
        run = ValuationEngine(utility, n_workers=2).run_permutations(
            8, seed=4, antithetic=True
        )
        assert per_run_modes == ["shm-spawn"]
        assert_same_run(run, utility.n_evaluations, serial_reference())

    def test_registry_leased_pool(self):
        with valuation_pool(n_workers=2) as registry:
            utility = knn_utility(seed=7)
            run = ValuationEngine(utility, n_workers=2).run_permutations(
                8, seed=4, antithetic=True
            )
            assert registry.stats()["pools"] == 1
        assert_same_run(run, utility.n_evaluations, serial_reference())

    def test_checkpoint_resumed_pooled_run(self, tmp_path):
        ck = tmp_path / "ck.json"
        with ValuationEngine(
            knn_utility(seed=7), n_workers=2, pool=True, checkpoint=ck
        ) as engine:
            partial = engine.run_permutations(
                8, seed=4, antithetic=True, check_every=3, max_evals=30
            )
        assert partial.stop_reason == "eval_budget"
        utility = knn_utility(seed=7)
        with ValuationEngine(
            utility, n_workers=2, pool=True, checkpoint=ck, resume=True
        ) as engine:
            resumed = engine.run_permutations(
                8, seed=4, antithetic=True, check_every=3
            )
        assert resumed.resumed_from == 3
        reference = ValuationEngine(knn_utility(seed=7)).run_permutations(
            8, seed=4, antithetic=True, check_every=3
        )
        assert np.array_equal(resumed.values(), reference.values())
        assert np.array_equal(resumed.stderr(), reference.stderr())
        assert resumed.n_evaluations == reference.n_evaluations


class TestWorkersReadTheDriversMatrix:
    def test_rebuilt_utility_views_the_published_matrix(self, monkeypatch):
        utility = knn_utility(seed=9)
        spec = _utility_spec(utility)
        assert spec["arrays"]["distances"] is utility.distances
        bundle = SharedArrayBundle.create(spec.pop("arrays"))
        try:

            def no_recompute(*args, **kwargs):
                raise AssertionError("worker recomputed the distance matrix")

            monkeypatch.setattr(utility_mod, "pairwise_distances", no_recompute)
            rebuilt, __ = _rebuild_utility(
                {"spec": {"bundle": bundle.spec(), **spec}, "utility": None}
            )
            assert np.array_equal(rebuilt.distances, utility.distances)
            assert not rebuilt.distances.flags.writeable  # a shared view
            order = np.arange(utility.n_train)
            assert list(rebuilt.scan(order)) == list(utility.scan(order))
            del rebuilt
        finally:
            bundle.close()

    @needs_fork
    def test_pooled_run_never_computes_distances(self, monkeypatch):
        utility = knn_utility(seed=9)
        reference = ValuationEngine(knn_utility(seed=9)).run_permutations(6, seed=1)

        def no_recompute(*args, **kwargs):
            raise AssertionError("worker recomputed the distance matrix")

        # Forked workers inherit the patched module: a worker that built
        # its own matrix would fail every chunk.
        monkeypatch.setattr(utility_mod, "pairwise_distances", no_recompute)
        with ValuationEngine(utility, n_workers=2, pool=True) as engine:
            assert engine._pool.mode == "shm-fork"
            run = engine.run_permutations(6, seed=1)
        assert np.array_equal(run.values(), reference.values())
