"""The ``navigating_data_errors``-style facade (the paper's ``nde`` module).

This module reproduces, call for call, the API the paper's hands-on session
shows in Figures 2–4::

    import repro.core as nde

    train_df, valid_df, test_df = nde.load_recommendation_letters()
    train_df_err = nde.inject_labelerrors(train_df, fraction=0.1)
    acc_dirty = nde.evaluate_model(train_df_err, valid_df)

    importances = nde.knn_shapley_values(train_df_err, validation=valid_df)
    lowest = np.argsort(importances)[:25]
    nde.pretty_print(train_df_err.take(lowest))

Each function is a thin composition of the real subsystems
(:mod:`repro.errors`, :mod:`repro.importance`, :mod:`repro.pipeline`,
:mod:`repro.uncertainty`), so the facade stays honest: everything it does
can also be done, with more control, through the underlying packages.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..datasets import load_recommendation_letters, load_sidedata
from ..errors import inject_label_errors
from ..frame import DataFrame
from ..learn.base import Estimator, clone
from ..learn.models.logistic import LogisticRegression
from ..importance.banzhaf import banzhaf_mc
from ..importance.base import ImportanceResult
from ..importance.beta_shapley import beta_shapley_mc
from ..importance.checkpoint import CheckpointStore
from ..importance.engine import DEFAULT_CACHE_SIZE, ValuationEngine, ValuationResult
from ..importance.knn_shapley import knn_shapley
from ..importance.pool import PoolRegistry, WorkerPool, valuation_pool
from ..importance.shapley import shapley_mc
from ..importance.utility import Utility
from ..obs import (
    DriftThresholds,
    PipelineMonitor,
    RunDiff,
    RunLedger,
    RunRecord,
    SLOPolicy,
    SLOTracker,
    TraceReport,
    compare_runs,
    flight_recorder,
    parse_openmetrics,
    render_openmetrics,
    tracing,
)
from ..pipeline.canonical import CanonicalPipeline, compile_pipeline
from ..pipeline.datascope import SourceImportance, datascope_importance
from ..service import (
    AdmissionPolicy,
    BreakerPolicy,
    JobRejected,
    JobRequest,
    JobRuntime,
    JobState,
    RetryPolicy,
    TelemetryServer,
    register_valuation,
)
from ..pipeline.execute import PipelineResult, execute
from ..pipeline.execute import execute_robust as _execute_robust
from ..pipeline.operators import Node
from ..pipeline.resilience import ExecutionPolicy
from ..pipeline.plan import show_query_plan
from ..text import TextEmbedder
from ..uncertainty.symbolic import UncertainDataset, encode_symbolic as _encode_symbolic
from ..uncertainty.zorro import estimate_with_zorro as _estimate_with_zorro
from ..viz.ascii_chart import line_chart
from ..viz.table import pretty_print

__all__ = [
    "CheckpointStore",
    "ValuationResult",
    "load_recommendation_letters",
    "load_sidedata",
    "inject_labelerrors",
    "default_featurize",
    "evaluate_model",
    "knn_shapley_values",
    "shapley_values",
    "banzhaf_values",
    "beta_shapley_values",
    "valuation_engine",
    "valuation_pool",
    "WorkerPool",
    "PoolRegistry",
    "pretty_print",
    "show_query_plan",
    "with_provenance",
    "execute_robust",
    "datascope",
    "exact_knn_values",
    "compile_pipeline",
    "CanonicalPipeline",
    "remove",
    "evaluate_change",
    "encode_symbolic",
    "estimate_with_zorro",
    "visualize_uncertainty",
    "tracing",
    "TraceReport",
    "monitor",
    "compare_runs",
    "PipelineMonitor",
    "RunLedger",
    "RunRecord",
    "RunDiff",
    "DriftThresholds",
    "AdmissionPolicy",
    "BreakerPolicy",
    "JobRejected",
    "JobRequest",
    "JobRuntime",
    "JobState",
    "RetryPolicy",
    "SLOPolicy",
    "SLOTracker",
    "TelemetryServer",
    "flight_recorder",
    "job_runtime",
    "parse_openmetrics",
    "register_valuation",
    "render_openmetrics",
    "telemetry_server",
]

_DEFAULT_EMBEDDER = TextEmbedder(n_features=48)
# column -> (imputation default, centre, scale); scaling keeps the numeric
# features commensurate with the unit-norm text embedding so distance-based
# methods (KNN, KNN-Shapley) are not dominated by raw ages.
_NUMERIC_SPECS = {"employer_rating": (3.0, 3.3, 1.0), "age": (40.0, 43.0, 13.0)}


def inject_labelerrors(
    train_df: DataFrame, fraction: float = 0.1, seed: int = 0
) -> DataFrame:
    """Flip a fraction of sentiment labels (Figure 2's ``nde.inject_labelerrors``).

    Returns only the corrupted frame, as in the paper's snippet; use
    :func:`repro.errors.inject_label_errors` when the ground-truth report is
    needed.
    """
    corrupted, __ = inject_label_errors(train_df, "sentiment", fraction, seed=seed)
    return corrupted


def default_featurize(frame: DataFrame) -> np.ndarray:
    """The scenario's standard featurisation: letter embedding + numerics."""
    blocks = [_DEFAULT_EMBEDDER.transform(frame.column("letter_text"))]
    for column, (default, centre, scale) in _NUMERIC_SPECS.items():
        if column in frame:
            values = frame.column(column).fillna(default).to_numpy().astype(float)
            blocks.append(((values - centre) / scale).reshape(-1, 1))
    return np.column_stack(blocks)


def evaluate_model(
    train_df: DataFrame,
    valid_df: DataFrame,
    label_column: str = "sentiment",
    model: Estimator | None = None,
) -> float:
    """Train the scenario classifier and return validation accuracy."""
    model = model if model is not None else LogisticRegression(max_iter=100)
    y_train = np.asarray(train_df.column(label_column).to_list())
    fitted = clone(model).fit(default_featurize(train_df), y_train)
    y_valid = np.asarray(valid_df.column(label_column).to_list())
    return float(fitted.score(default_featurize(valid_df), y_valid))


def knn_shapley_values(
    train_df: DataFrame,
    validation: DataFrame,
    label_column: str = "sentiment",
    k: int = 5,
    block_size: int = 1024,
) -> np.ndarray:
    """Per-training-row KNN-Shapley importance (Figure 2's core call).

    ``block_size`` streams the train×valid distance matrix in fixed-size
    slabs, so memory stays bounded for large validation sets.
    """
    values = knn_shapley(
        default_featurize(train_df),
        np.asarray(train_df.column(label_column).to_list()),
        default_featurize(validation),
        np.asarray(validation.column(label_column).to_list()),
        k=k,
        block_size=block_size,
    )
    return values.values


def valuation_engine(
    train_df: DataFrame,
    validation: DataFrame,
    label_column: str = "sentiment",
    model: Estimator | None = None,
    n_workers: int = 1,
    cache_size: int = DEFAULT_CACHE_SIZE,
    checkpoint=None,
    resume: bool = False,
    pool: Any | None = None,
) -> ValuationEngine:
    """A shared Monte-Carlo valuation engine over the scenario featurisation.

    Pass the returned engine to :func:`shapley_values`,
    :func:`banzhaf_values`, or :func:`beta_shapley_values` to amortize one
    subset-utility memo (and one worker pool configuration) across several
    estimator calls::

        engine = nde.valuation_engine(train_df_err, valid_df, n_workers=4)
        shap = nde.shapley_values(train_df_err, valid_df, engine=engine)
        banz = nde.banzhaf_values(train_df_err, valid_df, engine=engine)
        engine.cache.stats()   # hits / misses / evictions / hit_rate

    ``pool=True`` gives the engine its own persistent
    :class:`~repro.importance.WorkerPool` (shared-memory data plane, no
    per-run pool); inside a :func:`valuation_pool` block the default
    (``pool=None``) leases a warm pool from the registry automatically.

    ``checkpoint=`` (a file path) makes valuation runs snapshot their
    accumulator state at wave boundaries; ``resume=True`` restores a killed
    run from its snapshot and finishes bit-identical to an uninterrupted
    one (refusing on a configuration mismatch).
    """
    model = model if model is not None else LogisticRegression(max_iter=100)
    return ValuationEngine(
        Utility(
            model,
            default_featurize(train_df),
            np.asarray(train_df.column(label_column).to_list()),
            default_featurize(validation),
            np.asarray(validation.column(label_column).to_list()),
        ),
        n_workers=n_workers,
        cache_size=cache_size,
        checkpoint=checkpoint,
        resume=resume,
        pool=pool,
    )


def shapley_values(
    train_df: DataFrame,
    validation: DataFrame,
    label_column: str = "sentiment",
    n_permutations: int = 50,
    truncation_tolerance: float = 0.0,
    convergence_tolerance: float | None = None,
    check_every: int = 10,
    antithetic: bool = False,
    seed: int = 0,
    n_workers: int = 1,
    cache_size: int = DEFAULT_CACHE_SIZE,
    deadline_s: float | None = None,
    max_evals: int | None = None,
    checkpoint=None,
    resume: bool = False,
    return_result: bool = False,
    model: Estimator | None = None,
    engine: ValuationEngine | None = None,
    pool: Any | None = None,
) -> np.ndarray | ImportanceResult:
    """Per-training-row Monte-Carlo (TMC) Shapley importance.

    The retraining-based sibling of :func:`knn_shapley_values`, run on the
    shared valuation engine: ``n_workers`` fans permutations out over
    processes (the values do not depend on the worker count),
    ``cache_size`` bounds the subset-utility memo, and
    ``convergence_tolerance`` stops sampling once every point's standard
    error is below it. ``pool=`` (or an enclosing :func:`valuation_pool`
    block) runs the fan-out on a persistent shared-memory worker pool
    instead of forking a fleet per call.

    ``deadline_s``/``max_evals`` degrade gracefully: when the budget runs
    out mid-run the best current estimate comes back instead of an
    exception. ``checkpoint``/``resume`` make the run killable: state is
    snapshotted at wave boundaries and a resumed run finishes bit-identical
    to an uninterrupted one. Pass ``return_result=True`` for the full
    :class:`~repro.importance.ImportanceResult` (per-row ``stderr``,
    ``converged`` flag, evaluation census in ``extras``) instead of the
    bare values array.
    """
    if engine is None:
        engine = valuation_engine(
            train_df, validation, label_column=label_column, model=model,
            n_workers=n_workers, cache_size=cache_size,
            checkpoint=checkpoint, resume=resume, pool=pool,
        )
    result = shapley_mc(
        None,
        n_permutations=n_permutations,
        truncation_tolerance=truncation_tolerance,
        convergence_tolerance=convergence_tolerance,
        check_every=check_every,
        antithetic=antithetic,
        seed=seed,
        deadline_s=deadline_s,
        max_evals=max_evals,
        engine=engine,
    )
    return result if return_result else result.values


def banzhaf_values(
    train_df: DataFrame,
    validation: DataFrame,
    label_column: str = "sentiment",
    n_samples: int = 100,
    seed: int = 0,
    n_workers: int = 1,
    cache_size: int = DEFAULT_CACHE_SIZE,
    checkpoint=None,
    resume: bool = False,
    return_result: bool = False,
    model: Estimator | None = None,
    engine: ValuationEngine | None = None,
    pool: Any | None = None,
) -> np.ndarray | ImportanceResult:
    """Per-training-row Banzhaf importance (MSR estimator) on the engine.

    ``checkpoint``/``resume`` snapshot the evaluated subset utilities in
    waves, so a killed run resumes without re-paying for finished subsets.
    ``pool=`` (or an enclosing :func:`valuation_pool` block) runs subset
    evaluation on a persistent shared-memory worker pool.
    """
    if engine is None:
        engine = valuation_engine(
            train_df, validation, label_column=label_column, model=model,
            n_workers=n_workers, cache_size=cache_size,
            checkpoint=checkpoint, resume=resume, pool=pool,
        )
    result = banzhaf_mc(None, n_samples=n_samples, seed=seed, engine=engine)
    return result if return_result else result.values


def beta_shapley_values(
    train_df: DataFrame,
    validation: DataFrame,
    label_column: str = "sentiment",
    alpha: float = 1.0,
    beta: float = 16.0,
    n_permutations: int = 50,
    convergence_tolerance: float | None = None,
    check_every: int = 10,
    antithetic: bool = False,
    seed: int = 0,
    n_workers: int = 1,
    cache_size: int = DEFAULT_CACHE_SIZE,
    deadline_s: float | None = None,
    max_evals: int | None = None,
    checkpoint=None,
    resume: bool = False,
    return_result: bool = False,
    model: Estimator | None = None,
    engine: ValuationEngine | None = None,
    pool: Any | None = None,
) -> np.ndarray | ImportanceResult:
    """Per-training-row Beta(α, β)-Shapley importance on the engine.

    Shares :func:`shapley_values`' budget (``deadline_s``/``max_evals``),
    checkpoint/resume, and ``pool=`` semantics.
    """
    if engine is None:
        engine = valuation_engine(
            train_df, validation, label_column=label_column, model=model,
            n_workers=n_workers, cache_size=cache_size,
            checkpoint=checkpoint, resume=resume, pool=pool,
        )
    result = beta_shapley_mc(
        None,
        alpha=alpha,
        beta=beta,
        n_permutations=n_permutations,
        convergence_tolerance=convergence_tolerance,
        check_every=check_every,
        antithetic=antithetic,
        seed=seed,
        deadline_s=deadline_s,
        max_evals=max_evals,
        engine=engine,
    )
    return result if return_result else result.values


def with_provenance(
    pipeline_sink: Node, sources: Mapping[str, DataFrame]
) -> tuple[np.ndarray, PipelineResult]:
    """Run a pipeline and return ``(X_train, result-with-provenance)``.

    Mirrors Figure 3's ``X_train, prov = nde.with_provenance(pipeline(...))``
    — the returned result object carries the provenance.
    """
    result = execute(pipeline_sink, sources, fit=True)
    if result.X is None:
        raise TypeError("pipeline must end in an encode() node")
    return result.X, result


def monitor(bins: int = 10, max_rows: int | None = None) -> PipelineMonitor:
    """A fresh per-node data-quality monitor for ``monitor=`` knobs.

    Pass it to :func:`execute_robust` (or ``pipeline.execute``) to stream
    per-column quality profiles — completeness, distinctness, moments,
    histograms, categorical top-k — at every pipeline node, then persist
    them with :class:`RunLedger` and diff runs with :func:`compare_runs`::

        mon = nde.monitor()
        result = nde.execute_robust(sink, sources, monitor=mon)
        ledger = nde.RunLedger("runs.jsonl")
        record = ledger.record_run(result, monitor=mon, sources=sources)
        diff = nde.compare_runs(ledger.last(2)[0], record)
        print(diff.render())
    """
    return PipelineMonitor(bins=bins, max_rows=max_rows)


def execute_robust(
    pipeline_sink: Node,
    sources: Mapping[str, DataFrame],
    fit: bool = True,
    policy: ExecutionPolicy | None = None,
    monitor: PipelineMonitor | bool | None = None,
    **policy_overrides: Any,
) -> PipelineResult:
    """Run a pipeline with row-level quarantine instead of fail-fast crashes.

    Rows that an operator cannot process (UDF exceptions, poisonous join
    keys, timeouts, silently corrupted cells) are dropped into
    ``result.quarantine`` with their why-provenance, so they can be fed
    straight back into the Identify tooling::

        result = nde.execute_robust(sink, sources)
        bad_ids = result.quarantine.row_ids("train_df")   # identified errors
        report = result.quarantine.to_error_report("train_df")

    Keyword overrides (``max_retries=3``, ``timeout=0.5``, ...) are forwarded
    to :meth:`repro.pipeline.ExecutionPolicy.robust`. ``monitor`` (an
    :func:`nde.monitor` object, or ``True`` for a default one) streams
    per-node data-quality profiles into ``result.quality_profiles``.
    """
    return _execute_robust(
        pipeline_sink,
        sources,
        fit=fit,
        policy=policy,
        monitor=monitor,
        **policy_overrides,
    )


def datascope(
    train_result: PipelineResult,
    validation_result: PipelineResult,
    source: str | None = None,
    k: int = 5,
    method: str = "knn",
    n_workers: int = 1,
    cache_size: int = DEFAULT_CACHE_SIZE,
    **method_options: Any,
) -> SourceImportance:
    """Shapley importance over the pipeline's source tuples (Figure 3).

    ``method="knn"`` (default) is the exact polynomial-time KNN proxy;
    ``method="shapley_mc"`` retrains the real downstream model on the
    shared valuation engine with ``n_workers``-way fan-out (extra options
    like ``n_permutations``/``convergence_tolerance``/``model`` pass
    through to :func:`repro.pipeline.datascope.datascope_importance`).
    """
    if validation_result.X is None:
        raise TypeError("validation pipeline result has no encoded output")
    return datascope_importance(
        train_result,
        validation_result.X,
        validation_result.y,
        source=source,
        k=k,
        method=method,
        n_workers=n_workers,
        cache_size=cache_size,
        **method_options,
    )


def exact_knn_values(
    train_result: PipelineResult,
    validation_result: PipelineResult,
    source: str | None = None,
    k: int = 1,
    ledger: RunLedger | None = None,
    **options: Any,
) -> SourceImportance:
    """Exact PTIME Shapley over the pipeline's source rows (Datascope).

    The sub-second replacement for hours of Monte-Carlo retraining: the
    pipeline is compiled to canonical provenance form
    (:func:`compile_pipeline`) and the KNN-Shapley game is played with
    *source rows as players*, valued exactly — ``stderr`` is identically
    zero and ``extras["valuation"].stop_reason == "exact"``. Any ``k``
    for map-form pipelines; fork-form (a source row feeding several
    encoded rows) requires ``k=1``. Pass ``ledger=`` to record the
    compile fingerprint in the run ledger.
    """
    if validation_result.X is None:
        raise TypeError("validation pipeline result has no encoded output")
    return datascope_importance(
        train_result,
        validation_result.X,
        validation_result.y,
        source=source,
        k=k,
        method="exact_knn",
        ledger=ledger,
        **options,
    )


def remove(
    result: PipelineResult, source: str, row_ids: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Drop source tuples from the encoded matrix via provenance (Figure 3)."""
    return result.remove_source_rows(source, row_ids)


def evaluate_change(
    X_before: np.ndarray,
    y_before: np.ndarray,
    X_after: np.ndarray,
    y_after: np.ndarray,
    x_valid: np.ndarray,
    y_valid: np.ndarray,
    model: Estimator | None = None,
) -> float:
    """Accuracy delta from retraining on a modified matrix (Figure 3's
    ``nde.evaluate_change``): positive = the change helped."""
    model = model if model is not None else LogisticRegression(max_iter=100)
    before = clone(model).fit(X_before, y_before).score(x_valid, y_valid)
    after = clone(model).fit(X_after, y_after).score(x_valid, y_valid)
    return float(after - before)


def encode_symbolic(
    train_df: DataFrame,
    uncertain_feature: str = "employer_rating",
    missing_percentage: float = 10.0,
    missingness: str = "MNAR",
    feature_columns: Sequence[str] = ("employer_rating", "age"),
    label_column: str = "sentiment",
    positive_label: Any = "positive",
    seed: int = 0,
) -> UncertainDataset:
    """Figure 4's ``nde.encode_symbolic``: inject missingness, lift to intervals."""
    return _encode_symbolic(
        train_df,
        uncertain_feature=uncertain_feature,
        feature_columns=list(feature_columns),
        label_column=label_column,
        missing_percentage=missing_percentage,
        missingness=missingness,
        positive_label=positive_label,
        seed=seed,
    )


def estimate_with_zorro(
    symbolic_train: UncertainDataset,
    test_df: DataFrame,
    feature_columns: Sequence[str] = ("employer_rating", "age"),
    label_column: str = "sentiment",
    positive_label: Any = "positive",
    l2: float = 0.5,
) -> float:
    """Figure 4's ``nde.estimate_with_zorro``: maximum worst-case loss."""
    x_test = test_df.select(list(feature_columns)).to_numpy()
    # Test features must be concrete: impute any missing test cells at the
    # column mean of the symbolic training data's centers.
    centers = symbolic_train.X.center
    for j in range(x_test.shape[1]):
        column = x_test[:, j]
        column[np.isnan(column)] = centers[:, j].mean()
    y_test = test_df.column(label_column).to_list()
    report = _estimate_with_zorro(
        symbolic_train, x_test, y_test, l2=l2, positive_label=positive_label
    )
    return report["max_worst_case_loss"]


def visualize_uncertainty(max_losses: Mapping[float, float], feature: str) -> str:
    """Figure 4's ``nde.visualize_uncertainty``: render the loss curve."""
    xs = sorted(max_losses)
    chart = line_chart(
        xs,
        {"max worst-case loss": [max_losses[x] for x in xs]},
        title=f"Maximum worst-case loss vs % missing values in {feature!r}",
        x_label="percentage of missing values",
        y_label="max worst-case loss",
    )
    print(chart)
    return chart


def job_runtime(
    journal: Any | None = None,
    checkpoint_dir: Any | None = None,
    ledger: RunLedger | None = None,
    max_queue_depth: int = 64,
    max_queued_per_tenant: int | None = None,
    max_concurrency: int = 2,
    failure_threshold: int = 3,
    cooldown_s: float = 30.0,
    chaos: Any | None = None,
    train_df: DataFrame | None = None,
    validation: DataFrame | None = None,
    label_column: str = "sentiment",
    model: Estimator | None = None,
    n_workers: int = 1,
    pool: Any | None = None,
    slo: SLOPolicy | SLOTracker | None = None,
    flight_dir: Any | None = None,
) -> JobRuntime:
    """A ready-to-serve :class:`~repro.service.JobRuntime` (the nde facade).

    Wires up admission control (``max_queue_depth``, per-tenant quota),
    per-tenant circuit breakers (``failure_threshold``/``cooldown_s``),
    the crash-safe job journal, per-job checkpointing, per-tenant SLO
    tracking (``slo`` — a policy or a shared tracker), and the crash
    flight recorder (``flight_dir`` — where dumps land on worker crashes
    and failed jobs). ``pool=4``
    (an int, or a :class:`PoolRegistry`) gives valuation jobs a warm
    shared-memory worker-pool registry: sequential jobs over the same
    dataset fingerprint reuse one long-lived fleet instead of forking per
    run. When ``train_df``/``validation`` are given, a ``"valuation"``
    handler over the scenario featurisation is registered too, so::

        runtime = nde.job_runtime(journal="svc.jsonl", checkpoint_dir="ck",
                                  train_df=train_df_err, validation=valid_df)
        async with runtime:
            job = runtime.submit(nde.JobRequest(
                kind="valuation",
                params={"n_permutations": 100, "seed": 0},
                tenant="alice", deadline_s=30.0,
            ))
            values = (await job.wait()).values()

    serves deduplicated, deadline-bounded Shapley runs to many tenants.
    """
    runtime = JobRuntime(
        journal=journal,
        checkpoint_dir=checkpoint_dir,
        ledger=ledger,
        policy=AdmissionPolicy(
            max_queue_depth=max_queue_depth,
            max_queued_per_tenant=max_queued_per_tenant,
        ),
        breaker_policy=BreakerPolicy(
            failure_threshold=failure_threshold, cooldown_s=cooldown_s
        ),
        max_concurrency=max_concurrency,
        pool=pool,
        chaos=chaos,
        slo=slo,
        flight_dir=flight_dir,
    )
    if train_df is not None and validation is not None:
        engine = valuation_engine(
            train_df,
            validation,
            label_column=label_column,
            model=model,
            n_workers=n_workers,
        )
        register_valuation(runtime, lambda params: engine)
    return runtime


def telemetry_server(
    runtime: JobRuntime,
    host: str = "127.0.0.1",
    port: int = 0,
) -> TelemetryServer:
    """The operational HTTP surface for a runtime (the nde facade).

    Returns an (unstarted) :class:`~repro.service.TelemetryServer` bound to
    ``runtime``, serving ``/metrics`` (OpenMetrics text with tenant-labeled
    latency histograms), ``/healthz`` (flips to 503 while draining),
    ``/jobs``, and ``/slo``::

        runtime = nde.job_runtime(train_df=train_df_err, validation=valid_df)
        async with runtime, nde.telemetry_server(runtime) as server:
            print(f"scrape {server.url}/metrics")

    ``port=0`` (the default) binds an ephemeral port; read ``server.port``
    after ``start()``.
    """
    return TelemetryServer(runtime, host=host, port=port)
