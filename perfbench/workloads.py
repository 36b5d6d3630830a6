"""The benchmark workloads, as run inside one fresh child process.

Each workload is a class with four steps, called in order by
:mod:`perfbench.child`:

``setup()``
    Input generation and any runtime or pool start. Everything up to the
    first timed call; its end is the ``setup_done`` mark.
``run()``
    The timed calls into the program. Returns the outputs to verify.
``check(outputs, reference)``
    One :class:`Check` per operation (a valuation call, or a service job),
    compared against the serial reference from :mod:`perfbench.reference`.
``close()``
    Releases what ``setup`` started (only the service workload holds any).

``inputs(seed)`` is shared with ``reference.build``, so the reference
and the timed run value exactly the same generated data. The program only
ever receives those generated inputs.

Spans opened here go through ``repro.obs.span``: in an untraced child
tracing is off and each one costs a flag check. In a traced child they
mark the layer boundaries the per-layer split is computed from.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import repro.core as nde
from repro.cleaning import CleaningOracle
from repro.datasets import generate_hiring_data
from repro.errors import inject_label_errors
from repro.importance import Utility, ValuationEngine, banzhaf_mc
from repro.learn import (
    CellImputer,
    ColumnTransformer,
    GaussianNB,
    KNeighborsClassifier,
    OneHotEncoder,
    Pipeline,
    StandardScaler,
)
from repro.learn.metrics import accuracy
from repro.learn.model_selection import split_frame
from repro.obs import span
from repro.pipeline import PipelinePlan, execute
from repro.service import JobRequest, JobState, register_valuation
from repro.text import SentenceBertTransformer

from . import reference
from .reference import Check

#: Sizes. Each is fixed, so every seed does the same amount of work.
LETTERS_N = 400
LETTERS_ERROR_FRACTION = 0.2
CLEAN_K = 40
ZORRO_PERCENTAGES = (5, 10, 15, 20, 25)

HIRING_N = 900
#: The hiring base table and its train/validation split stay fixed (the
#: paper's Fig. 3 data), so the pipeline emits the same number of rows for
#: every seed; the seed drives the injected label errors and the sampling.
HIRING_DATA_SEED = 7
HIRING_SPLIT_SEED = 1
PIPELINE_ERROR_FRACTION = 0.2
MC_PERMUTATIONS = 8
BANZHAF_SUBSETS = 500
PROVENANCE_REMOVE_K = 25
SPEARMAN_FLOOR = 0.5

SERVICE_LETTERS = 120
SERVICE_JOBS = 220
SERVICE_CLIENTS = 2
SERVICE_POOL = 2
SERVICE_TENANTS = ("tenant-a", "tenant-b")
#: Two permutations per job: one wave of two chunks, one per pool worker.
#: A one-permutation run never reaches the pool (the engine scans a single
#: ordering in-process), so it would not exercise worker IPC.
SERVICE_PERMUTATIONS = 2
SERVICE_RECOVERIES = 5


@dataclass
class Instrument:
    """What a workload needs to know about the run it is part of.

    ``model`` and ``metric`` swap in the timing wrappers of
    :mod:`perfbench.layers` in a traced child; an untraced child runs the
    program's own estimator and metric untouched.
    """

    traced: bool
    marks: dict[str, float]
    layer_raw: dict[str, Any] = field(default_factory=dict)

    def mark(self, name: str) -> None:
        self.marks[name] = time.perf_counter()

    def model(self, estimator: Any) -> Any:
        if not self.traced:
            return estimator
        from .layers import TimedEstimator

        return TimedEstimator(estimator)

    def metric(self) -> Any:
        if not self.traced:
            return accuracy
        from .layers import TimedMetric

        return TimedMetric()


def _labels(frame, column: str = "sentiment") -> np.ndarray:
    return np.asarray(frame.column(column).to_list())


# ---------------------------------------------------------------------- #
# pipeline_mc                                                            #
# ---------------------------------------------------------------------- #
def build_pipeline():
    """The paper's Fig. 3 join-join-filter-UDF-encode pipeline."""
    plan = PipelinePlan()
    train = plan.source("train_df")
    jobs = plan.source("jobdetail_df")
    social = plan.source("social_df")
    encoder = ColumnTransformer(
        [
            (SentenceBertTransformer(n_features=32), "letter_text"),
            (Pipeline([CellImputer(), OneHotEncoder()]), "degree"),
            (StandardScaler(), ["age", "employer_rating"]),
        ]
    )
    return (
        train.join(jobs, on="job_id")
        .join(social, on="person_id")
        .filter(lambda df: df["sector"] == "healthcare", "sector == 'healthcare'")
        .with_column("has_twitter", lambda df: df["twitter"].notnull(), "has_twitter")
        .encode(encoder, label_column="sentiment")
    )


class PipelineMC:
    """The closed-form Identify and Learn steps, then the Fig. 3 Debug path.

    Fig. 2: KNN-Shapley over the letters data, clean the lowest rows with
    the oracle, re-evaluate KNN(5); Fig. 4: the Zorro MNAR curve. Then the
    Fig. 3 pipeline, exact Datascope, MC-Shapley and MSR Banzhaf.
    """

    name = "pipeline_mc"
    ops = (
        "knn_shapley", "fig2_cleaning", "fig4_zorro",
        "provenance", "exact_knn", "shapley_mc", "banzhaf_mc",
    )

    def __init__(self, seed: int, state_dir: Path, inst: Instrument) -> None:
        self.seed = seed
        self.inst = inst

    @staticmethod
    def inputs(seed: int) -> dict[str, Any]:
        letters_train, letters_valid, letters_test = nde.load_recommendation_letters(
            n=LETTERS_N, seed=seed
        )
        letters_dirty = nde.inject_labelerrors(
            letters_train, fraction=LETTERS_ERROR_FRACTION, seed=seed
        )
        data = generate_hiring_data(n=HIRING_N, seed=HIRING_DATA_SEED)
        train, valid = split_frame(
            data["letters"], fractions=(0.75, 0.25), seed=HIRING_SPLIT_SEED
        )
        dirty, __ = inject_label_errors(
            train, "sentiment", fraction=PIPELINE_ERROR_FRACTION, seed=seed
        )
        sources = {
            "train_df": dirty,
            "jobdetail_df": data["jobdetail"],
            "social_df": data["social"],
        }
        return {
            "sink": build_pipeline(),
            "sources": sources,
            "valid_sources": dict(sources, train_df=valid),
            "dirty": dirty,
            "letters": {
                "train": letters_train,
                "valid": letters_valid,
                "test": letters_test,
                "dirty": letters_dirty,
            },
        }

    @staticmethod
    def encode(data: dict[str, Any]):
        train_result = execute(data["sink"], data["sources"], fit=True)
        valid_result = execute(data["sink"], data["valid_sources"], fit=False)
        return train_result, valid_result

    def setup(self) -> None:
        with span("bench.datasets.generate"):
            self.data = self.inputs(self.seed)

    def closed_form(self) -> dict[str, Any]:
        """Fig. 2 identify-and-clean and the Fig. 4 Zorro curve."""
        d = self.data["letters"]
        with span("bench.importance.knn_shapley"):
            values = nde.knn_shapley_values(d["dirty"], validation=d["valid"])
        lowest = np.argsort(values, kind="stable")[:CLEAN_K]
        with span("bench.cleaning.oracle"):
            cleaned = CleaningOracle(d["train"]).clean(
                d["dirty"], [int(d["dirty"].row_ids[p]) for p in lowest]
            )
        with span("bench.learn.evaluate_model"):
            acc_dirty = nde.evaluate_model(
                d["dirty"], d["valid"], model=KNeighborsClassifier(5)
            )
            acc_cleaned = nde.evaluate_model(
                cleaned, d["valid"], model=KNeighborsClassifier(5)
            )
        with span("bench.uncertainty.zorro"):
            curve = [
                nde.estimate_with_zorro(
                    nde.encode_symbolic(
                        d["train"],
                        uncertain_feature="employer_rating",
                        missing_percentage=p,
                        missingness="MNAR",
                        seed=self.seed,
                    ),
                    d["test"],
                )
                for p in ZORRO_PERCENTAGES
            ]
        return {
            "knn_shapley": values,
            "flagged": lowest,
            "cleaned": cleaned,
            "acc_dirty": acc_dirty,
            "acc_cleaned": acc_cleaned,
            "zorro_curve": curve,
        }

    def run(self) -> dict[str, Any]:
        inst = self.inst
        out = self.closed_form()
        with span("bench.pipeline.execute"):
            tr, va = self.encode(self.data)
        with span("bench.importance.exact_knn"):
            exact = nde.datascope(tr, va, source="train_df", k=1, method="exact_knn")

        engine = ValuationEngine(
            Utility(
                inst.model(KNeighborsClassifier(1)), tr.X, tr.y, va.X, va.y,
                metric=inst.metric(),
            )
        )
        started = time.perf_counter()
        with span("bench.importance.shapley_mc"):
            mc = nde.datascope(
                tr, va, source="train_df", method="shapley_mc",
                n_permutations=MC_PERMUTATIONS, seed=self.seed, engine=engine,
            )
        mc_s = time.perf_counter() - started

        utility = Utility(
            inst.model(KNeighborsClassifier(1)), tr.X, tr.y, va.X, va.y,
            metric=inst.metric(),
        )
        started = time.perf_counter()
        with span("bench.importance.banzhaf_mc"):
            banzhaf = banzhaf_mc(utility, n_samples=BANZHAF_SUBSETS, seed=self.seed)
        banzhaf_s = time.perf_counter() - started
        n_rows = len(tr.y)
        return dict(
            out,
            train_result=tr,
            valid_result=va,
            exact=exact,
            mc=mc,
            banzhaf=banzhaf.values,
            rates={
                "perm_rows_per_s": MC_PERMUTATIONS * n_rows / mc_s,
                "subsets_per_s": BANZHAF_SUBSETS / banzhaf_s,
            },
        )

    def check(self, out: dict[str, Any], ref: dict[str, Any]) -> list[Check]:
        curve = out["zorro_curve"]
        monotone = all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))
        checks = [
            reference.compare_values(
                "knn_shapley", out["knn_shapley"], ref["knn_shapley"], CLEAN_K
            ),
            self._check_cleaning(out),
            Check("fig4_zorro", monotone, "curve " + ", ".join(f"{v:.4f}" for v in curve)),
        ]

        tr = out["train_result"]
        dirty = self.data["dirty"]
        # Provenance removal must equal a re-run over the filtered source.
        lowest = out["exact"].lowest(dirty, PROVENANCE_REMOVE_K)
        removed = dirty.row_ids[lowest]
        x_clean, y_clean = nde.remove(tr, "train_df", removed.tolist())
        keep = ~np.isin(dirty.row_ids, removed)
        rerun = execute(
            self.data["sink"],
            dict(self.data["sources"], train_df=dirty.filter(keep)),
            fit=False,
        )
        same = bool(
            x_clean.shape == rerun.X.shape
            and np.allclose(x_clean, rerun.X)
            and np.array_equal(y_clean, rerun.y)
        )
        checks.append(Check("provenance", same, f"removed {len(removed)} source rows"))

        rids = [int(r) for r in ref["row_ids"]]
        k = max(5, len(rids) // 10)
        exact = np.asarray([out["exact"].by_row_id.get(r, np.nan) for r in rids])
        mc = np.asarray([out["mc"].by_row_id.get(r, np.nan) for r in rids])
        checks.append(reference.compare_values("exact_knn", exact, ref["exact_knn"], k))
        mc_check = reference.compare_values("shapley_mc", mc, ref["shapley_mc"], k)
        rho = reference.spearman(exact, mc)
        if rho < SPEARMAN_FLOOR:
            mc_check.ok = False
        mc_check.detail += f"; spearman(exact, mc) {rho:.3f} (floor {SPEARMAN_FLOOR})"
        checks.append(mc_check)
        checks.append(
            reference.compare_values(
                "banzhaf_mc", out["banzhaf"], ref["banzhaf_mc"], max(5, len(tr.y) // 10)
            )
        )
        return checks

    def _check_cleaning(self, out: dict[str, Any]) -> Check:
        """The lowest rows beat chance at finding errors; the oracle fixed them.

        The CLEAN_K lowest-Shapley rows must hold more injected errors than
        a random pick of CLEAN_K rows holds on average, and cleaning must
        repair exactly those. Whether that raises KNN(5) accuracy on the 80
        validation rows is up to one validation row either way on about one
        seed in a hundred, so the accuracies are reported, not checked.
        """
        d = self.data["letters"]
        truth = _labels(d["train"])
        errors = _labels(d["dirty"]) != truth
        found = int(errors[out["flagged"]].sum())
        by_chance = CLEAN_K * float(errors.mean())
        left = int((_labels(out["cleaned"]) != truth).sum())
        aligned = np.array_equal(d["dirty"].row_ids, d["train"].row_ids) and (
            np.array_equal(out["cleaned"].row_ids, d["train"].row_ids)
        )
        ok = aligned and found > by_chance and left == errors.sum() - found
        return Check(
            "fig2_cleaning",
            bool(ok),
            f"{found} of the {CLEAN_K} lowest rows are injected errors "
            f"(chance {by_chance:.1f}); {left} of "
            f"{int(errors.sum())} errors left after cleaning; KNN(5) accuracy "
            f"dirty {out['acc_dirty']:.4f} -> cleaned {out['acc_cleaned']:.4f}",
        )

    def close(self) -> None:
        return None


# ---------------------------------------------------------------------- #
# service_pooled                                                         #
# ---------------------------------------------------------------------- #
def job_seed(seed: int, index: int) -> int:
    """Distinct per-job sampling seed, derived from the run seed."""
    return seed * 10_000 + index


class ServicePooled:
    """Closed-loop valuation jobs on a journaled, pooled job runtime."""

    name = "service_pooled"
    ops = tuple(f"job[{j}]" for j in range(SERVICE_JOBS)) + ("recovery",)

    def __init__(self, seed: int, state_dir: Path, inst: Instrument) -> None:
        self.seed = seed
        self.inst = inst
        self.state_dir = Path(state_dir)

    @staticmethod
    def inputs(seed: int) -> dict[str, np.ndarray]:
        train, valid, __ = nde.load_recommendation_letters(n=SERVICE_LETTERS, seed=seed)
        return {
            "x_train": nde.default_featurize(train),
            "y_train": _labels(train),
            "x_valid": nde.default_featurize(valid),
            "y_valid": _labels(valid),
        }

    def setup(self) -> None:
        inst = self.inst
        with span("bench.datasets.generate"):
            arrays = self.inputs(self.seed)
        utility = Utility(
            inst.model(GaussianNB()),
            arrays["x_train"], arrays["y_train"], arrays["x_valid"], arrays["y_valid"],
            metric=inst.metric(),
        )
        self.journal_path = self.state_dir / "journal.jsonl"
        self.ledger = nde.RunLedger(self.state_dir / "ledger.jsonl")
        self.runtime = nde.job_runtime(
            journal=self.journal_path,
            checkpoint_dir=self.state_dir / "checkpoints",
            ledger=self.ledger,
            pool=SERVICE_POOL,
        )
        # One engine per job (its own memo and checkpoint store), all
        # leasing the runtime's single warm pool for this dataset.
        register_valuation(
            self.runtime, lambda params: ValuationEngine(utility, n_workers=SERVICE_POOL)
        )
        if inst.traced:
            from .layers import instrument_service

            instrument_service(self.runtime, self.ledger, inst.layer_raw)
        started = time.perf_counter()
        with span("bench.pool.start"):
            self.runtime.pool_registry.lease(utility, SERVICE_POOL)
        inst.layer_raw["pool_start_s"] = time.perf_counter() - started
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.runtime.start())
        self.stopped = False

    async def _closed_loop(self) -> list[dict[str, Any]]:
        indices = iter(range(SERVICE_JOBS))
        records: list[dict[str, Any]] = []

        async def client() -> None:
            for j in indices:
                request = JobRequest(
                    kind="valuation",
                    params={
                        "n_permutations": SERVICE_PERMUTATIONS,
                        "seed": job_seed(self.seed, j),
                    },
                    tenant=SERVICE_TENANTS[j % len(SERVICE_TENANTS)],
                )
                started = time.perf_counter()
                with span("bench.service.submit"):
                    job = self.runtime.submit(request)
                values, error = None, None
                try:
                    result = await job.wait()
                    values = np.asarray(result.values(), dtype=float)
                except Exception as exc:  # noqa: BLE001 - counted as a failed job
                    error = f"{type(exc).__name__}: {exc}"
                records.append(
                    {
                        "index": j,
                        "job_id": job.job_id,
                        "state": job.state.value,
                        "error": job.error or error,
                        "latency_s": time.perf_counter() - started,
                        "queue_wait_s": job.queue_wait_s,
                        "values": values,
                    }
                )

        await asyncio.gather(*(client() for __ in range(SERVICE_CLIENTS)))
        return sorted(records, key=lambda r: r["index"])

    def run(self) -> dict[str, Any]:
        started = time.perf_counter()
        jobs = self.loop.run_until_complete(self._closed_loop())
        loop_s = time.perf_counter() - started
        self.loop.run_until_complete(self._stop())
        if self.inst.traced:
            from .layers import snapshot_state

            snapshot_state(self.inst.layer_raw)
        recoveries = self._recover()
        latencies = np.asarray([r["latency_s"] for r in jobs])
        completed = sum(r["state"] == JobState.COMPLETED.value for r in jobs)
        return {
            "jobs": jobs,
            "recoveries": recoveries,
            "rates": {
                "jobs_per_s": completed / loop_s,
                "job_latency_p50_s": float(np.percentile(latencies, 50)),
                "job_latency_p95_s": float(np.percentile(latencies, 95)),
                "recover_s": float(np.median([r["seconds"] for r in recoveries])),
            },
        }

    async def _stop(self) -> None:
        self.stopped = True
        await self.runtime.drain()
        await self.runtime.stop()

    def _recover(self) -> list[dict[str, Any]]:
        """Reopen a runtime over fresh copies of the run's journal."""
        out = []
        for r in range(SERVICE_RECOVERIES):
            journal_copy = self.state_dir / f"recover-{r}" / "journal.jsonl"
            journal_copy.parent.mkdir()
            shutil.copyfile(self.journal_path, journal_copy)
            load_before = _journal_load_s(self.inst)
            started = time.perf_counter()
            with span("bench.state.recover"):
                runtime = nde.job_runtime(journal=journal_copy)
                requeued = runtime.recover()
            seconds = time.perf_counter() - started
            load_s = _journal_load_s(self.inst) - load_before
            entries = runtime.journal.replay()
            jobs = [e for jid, e in entries.items() if jid != "-"]
            out.append(
                {
                    "seconds": seconds,
                    "load_s": load_s,
                    "requeued": len(requeued),
                    "jobs": len(jobs),
                    "non_terminal": sum(not e.terminal for e in jobs),
                }
            )
        return out

    def check(self, out: dict[str, Any], ref: dict[str, Any]) -> list[Check]:
        checks = []
        k = max(5, len(next(iter(ref["jobs"].values()))) // 10)
        for record in out["jobs"]:
            op = f"job[{record['index']}]"
            if record["state"] != JobState.COMPLETED.value or record["values"] is None:
                checks.append(
                    Check(op, False, f"state {record['state']}: {record['error']}")
                )
                continue
            want = ref["jobs"][str(job_seed(self.seed, record["index"]))]
            checks.append(reference.compare_values(op, record["values"], want, k))
        bad = [
            r for r in out["recoveries"]
            if r["requeued"] or r["non_terminal"] or r["jobs"] != SERVICE_JOBS
        ]
        checks.append(
            Check(
                "recovery",
                not bad,
                f"{len(out['recoveries'])} reopenings, "
                f"{sum(r['requeued'] for r in out['recoveries'])} jobs re-enqueued, "
                f"{sum(r['non_terminal'] for r in out['recoveries'])} non-terminal",
            )
        )
        return checks

    def close(self) -> None:
        if not self.stopped:
            self.loop.run_until_complete(self._stop())
        self.loop.close()


def _journal_load_s(inst: Instrument) -> float:
    return sum(d for __, d in inst.layer_raw.get("journal_load", ()))


WORKLOADS = {cls.name: cls for cls in (PipelineMC, ServicePooled)}

