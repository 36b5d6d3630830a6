"""Built-in handlers: running the valuation engine under the job runtime.

The runtime itself is computation-agnostic — handlers are plain
``fn(params, context)`` callables. This module supplies the adapter for
the flagship workload: Monte-Carlo valuation on a
:class:`~repro.importance.engine.ValuationEngine`, with all four service
behaviours wired through:

- the job's remaining **deadline** becomes the engine's ``deadline_s`` (a
  params-level deadline, if any, only tightens it);
- the job's per-id **checkpoint store** becomes the engine's checkpoint,
  so recovered jobs resume from their wave watermark bit-identically;
- wave-boundary **progress snapshots** flow through ``context.progress``
  to every deduplicated subscriber;
- the engine's graceful degradation (``stop_reason`` =
  ``deadline``/``eval_budget``) surfaces as the job's ``degraded``
  terminal state.

Engines are produced by an ``engine_factory(params)`` the operator
registers — the factory owns dataset access, model choice, and worker
pools; request params stay JSON-able so the journal can resurrect them.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from ..importance.pool import PoolUnavailable
from .runtime import JobContext, JobRuntime

__all__ = ["make_valuation_handler", "register_valuation"]

#: ``run_permutations`` keyword arguments a request may set via ``params``.
#: ``weights`` is accepted as a JSON list and converted; ``deadline_s`` is
#: handled separately (it merges with the job deadline instead of passing
#: through).
_RUN_KEYS = (
    "n_permutations",
    "seed",
    "truncation_tolerance",
    "convergence_tolerance",
    "check_every",
    "antithetic",
    "max_evals",
)


def make_valuation_handler(
    engine_factory: Callable[[dict], Any],
) -> Callable[[dict, JobContext], Any]:
    """Adapter from service jobs to ``ValuationEngine.run_permutations``.

    ``engine_factory(params)`` must return the engine to run on — built
    fresh or pulled from an operator-side pool/cache keyed on whatever in
    ``params`` names the dataset. The handler then runs the permutation
    sampler with the request's sampling knobs (``n_permutations``,
    ``seed``, ``convergence_tolerance``, ... — see ``_RUN_KEYS``) and
    returns the :class:`~repro.importance.engine.PermutationRun`.
    """

    def handler(params: Mapping[str, Any], context: JobContext) -> Any:
        params = dict(params)
        engine = engine_factory(params)
        if context.checkpoint is not None and engine.checkpoint is None:
            # Per-job, id-keyed snapshots: what makes the job recoverable
            # after a runtime SIGKILL. A factory-provided store wins.
            engine.checkpoint = context.checkpoint
            engine.resume = context.resume
        registry = getattr(context, "pool_registry", None)
        if (
            registry is not None
            and engine.n_workers > 1
            and getattr(engine, "_pool", None) is None
        ):
            # Sequential jobs over the same dataset fingerprint land on
            # one warm shared-memory fleet instead of forking per run.
            # An unpoolable utility falls back to a per-run pool.
            try:
                engine.use_pool(
                    registry.lease(engine.utility, engine.n_workers)
                )
            except PoolUnavailable:
                pass
        kwargs = {key: params[key] for key in _RUN_KEYS if key in params}
        kwargs.setdefault("n_permutations", 50)
        if params.get("weights") is not None:
            kwargs["weights"] = np.asarray(params["weights"], dtype=float)
        deadline = context.deadline_s
        if params.get("deadline_s") is not None:
            own = float(params["deadline_s"])
            deadline = own if deadline is None else min(deadline, own)
        return engine.run_permutations(
            **kwargs,
            deadline_s=deadline,
            progress_callback=context.engine_progress,
        )

    return handler


def register_valuation(
    runtime: JobRuntime,
    engine_factory: Callable[[dict], Any],
    kind: str = "valuation",
) -> None:
    """Register the valuation handler on ``runtime`` under ``kind``."""
    runtime.register_handler(kind, make_valuation_handler(engine_factory))
