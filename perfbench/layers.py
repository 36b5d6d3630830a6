"""Per-layer instrumentation (child side) and the per-layer split (parent side).

Child side, used only in a traced child:

- :class:`TimedEstimator` and :class:`TimedMetric` wrap the model and the
  metric inside ``Utility.evaluate``. They are picklable, so pool workers
  run them too, and they add their time to ``bench.learn.*`` counters that
  reach the child's main process through the pool's telemetry backhaul.
- :class:`StateHooks` is an ``IOHooks`` that counts commits, fsyncs and
  staged bytes of every atomic write.
- :func:`instrument_service` wraps the public ``JobJournal.record``,
  ``RunLedger.append``, ``CheckpointStore.save``, ``WorkerPool.dispatch``
  and ``JobJournal.events`` with timers and ``bench.*`` spans. The child is
  a throwaway process, so the wrappers stay installed until it exits.

Parent side, :func:`per_layer` turns one traced child's span export, its
raw layer records and its marks into the per-layer metrics named in
``BENCHMARK.json``, plus a wall-time attribution by layer and the largest
intervals no span covers.
"""

from __future__ import annotations

import functools
import heapq
import os
import re
import threading
import time
from typing import Any, Iterable

import numpy as np

from repro.importance.checkpoint import CheckpointStore
from repro.importance.pool import WorkerPool
from repro.learn.base import Estimator
from repro.learn.metrics import accuracy
from repro.obs import IOHooks, install_io_hooks
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service import JobJournal

#: The process that imported this module first: the child's main process.
#: Forked pool workers inherit the value, so they can tell they are workers.
_MAIN_PID = os.getpid()

#: Printed to stderr by a traced child once ``import repro`` is done, so the
#: parent can cut the ``-X importtime`` listing at the end of startup.
IMPORT_DONE_MARKER = "perfbench: import repro done"


def _learn_add(name: str, amount: float) -> None:
    if not obs_trace.enabled():
        return
    where = "" if os.getpid() == _MAIN_PID else ".worker"
    obs_metrics.counter(f"bench.learn{where}.{name}").inc(amount)


class TimedEstimator(Estimator):
    """Delegates to ``inner`` and times ``fit`` and ``predict``."""

    def __init__(self, inner: Estimator) -> None:
        self.inner = inner

    def reset(self) -> "TimedEstimator":
        self.inner.reset()
        return self

    def fit(self, X: Any, y: Any) -> "TimedEstimator":
        started = time.perf_counter()
        self.inner.fit(X, y)
        _learn_add("fit_s", time.perf_counter() - started)
        _learn_add("fit_calls", 1)
        return self

    def predict(self, X: Any) -> np.ndarray:
        started = time.perf_counter()
        out = self.inner.predict(X)
        _learn_add("predict_s", time.perf_counter() - started)
        return out


class TimedMetric:
    """Accuracy, timed."""

    def __call__(self, y_true: Any, y_pred: Any) -> float:
        started = time.perf_counter()
        value = accuracy(y_true, y_pred)
        _learn_add("metric_s", time.perf_counter() - started)
        return value

    def __repr__(self) -> str:
        return "TimedMetric(accuracy)"


class StateHooks(IOHooks):
    """Counts what every atomic write costs; never injects a fault."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fsync_started = threading.local()
        self.counts = {"commits": 0, "fsyncs": 0, "bytes_staged": 0, "fsync_s": 0.0}

    def _add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def on_commit(self, path, handle) -> None:
        handle.flush()
        self._add("commits", 1)
        self._add("bytes_staged", os.fstat(handle.fileno()).st_size)

    def on_fsync(self, path, fileno) -> bool:
        self._add("fsyncs", 1)
        self._fsync_started.t = time.perf_counter()
        return True

    def on_replace(self, tmp, path, when) -> None:
        started = getattr(self._fsync_started, "t", None)
        if when == "before" and started is not None:
            self._add("fsync_s", time.perf_counter() - started)
            self._fsync_started.t = None

    def on_dirsync(self, dirpath) -> bool:
        self._add("fsyncs", 1)
        return True


def _timed(owner: Any, attr: str, span_name: str, records: list) -> None:
    """Replace ``owner.attr`` with a wrapper that spans and times each call."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        try:
            with obs_trace.span(span_name):
                return original(*args, **kwargs)
        finally:
            records.append((started, time.perf_counter() - started))

    setattr(owner, attr, wrapper)


def instrument_service(runtime: Any, ledger: Any, raw: dict[str, Any]) -> None:
    """Install the state-plane and pool timers on one service runtime."""
    hooks = StateHooks()
    install_io_hooks(hooks)
    raw["io_hooks"] = hooks
    for key in ("journal_append", "ledger_append", "checkpoint_save",
                "pool_dispatch", "journal_load"):
        raw[key] = []
    _timed(runtime.journal, "record", "bench.state.journal_append", raw["journal_append"])
    _timed(ledger, "append", "bench.state.ledger_append", raw["ledger_append"])
    _timed(CheckpointStore, "save", "bench.state.checkpoint_save", raw["checkpoint_save"])
    _timed(WorkerPool, "dispatch", "bench.pool.dispatch", raw["pool_dispatch"])
    _timed(JobJournal, "events", "bench.state.journal_load", raw["journal_load"])


def snapshot_state(raw: dict[str, Any]) -> None:
    """Freeze the IO counters of the serving phase (before recovery)."""
    raw["io_serving"] = dict(raw["io_hooks"].counts)


def export_raw(raw: dict[str, Any]) -> dict[str, Any]:
    """The JSON-able part of a child's raw layer records."""
    return {k: v for k, v in raw.items() if k != "io_hooks"}


# ---------------------------------------------------------------------- #
# parent side                                                            #
# ---------------------------------------------------------------------- #
#: (span-name prefix, layer). First match wins; names are the package's
#: modules, plus the process itself and the benchmark's own checks.
LAYERS = (
    ("startup.", "startup"),
    ("bench.datasets.", "datasets"),
    ("bench.pipeline.", "pipeline"),
    ("pipeline.datascope", "pipeline.datascope"),
    ("pipeline.", "pipeline"),
    ("node.", "pipeline"),
    ("bench.importance.knn_shapley", "importance.knn_shapley"),
    ("importance.knn_shapley", "importance.knn_shapley"),
    ("bench.importance.exact_knn", "importance.exact_knn"),
    ("importance.exact_knn", "importance.exact_knn"),
    ("bench.importance.", "importance.engine"),
    ("engine.", "importance.engine"),
    ("bench.pool.", "importance.pool"),
    ("worker.", "importance.pool"),
    ("bench.uncertainty.zorro", "uncertainty.zorro"),
    ("bench.cleaning.", "cleaning"),
    ("bench.learn.", "learn"),
    ("bench.service.", "service"),
    ("service.", "service"),
    ("bench.state.", "state"),
    ("bench.check", "bench.check"),
    ("trace.", "trace"),
    ("process.", "process"),
)

#: Spans that only group others (a pool's whole lifetime, per-worker
#: groups); counting them would hide every gap they enclose.
_CONTAINERS = re.compile(r"^(engine\.pool\.lifecycle|worker\[\d+\])$")

#: The ROADMAP's coverage target: untraced time above this share of
#: ``total_s`` gets its largest intervals named.
COVERAGE_TARGET = 0.10

def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "other:" + name


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def attribute(intervals: list[tuple[float, float, str, int]], lo: float, hi: float):
    """Split ``[lo, hi]`` among named intervals; return (per-layer s, gaps).

    Intervals are ``(start, end, name, depth)``. At every instant the open
    interval deepest in the span tree wins (the newest one among equals):
    the innermost span on one thread, and across threads the work nearest
    the leaves, such as a pool worker's chunk over a job waiting for it.
    The per-layer seconds therefore add up to the covered wall time, and
    ``gaps`` lists the stretches no interval covers.
    """
    items = sorted(
        (max(a, lo), min(b, hi), name, depth)
        for a, b, name, depth in intervals
        if b > lo and a < hi
    )
    points = sorted({lo, hi, *(i[0] for i in items), *(i[1] for i in items)})
    by_layer: dict[str, float] = {}
    gaps: list[tuple[float, float]] = []
    heap: list[tuple[int, float, float, str]] = []
    nxt = 0
    for a, b in zip(points, points[1:]):
        while nxt < len(items) and items[nxt][0] <= a:
            start, end, name, depth = items[nxt]
            heapq.heappush(heap, (-depth, -start, end, name))
            nxt += 1
        while heap and heap[0][2] <= a:
            heapq.heappop(heap)
        if heap:
            layer = layer_of(heap[0][3])
            by_layer[layer] = by_layer.get(layer, 0.0) + (b - a)
        elif gaps and gaps[-1][1] == a:
            gaps[-1] = (gaps[-1][0], b)
        else:
            gaps.append((a, b))
    return by_layer, gaps


def _neighbours(intervals, gap) -> str:
    before = max((i for i in intervals if i[1] <= gap[0]), key=lambda i: i[1], default=None)
    after = min((i for i in intervals if i[0] >= gap[1]), key=lambda i: i[0], default=None)
    return (
        f"after {before[2] if before else 'spawn'}, "
        f"before {after[2] if after else 'exit'}"
    )


def parse_importtime(stderr: str) -> tuple[float, int]:
    """(scipy import seconds, modules loaded) up to the import-done marker."""
    scipy_us, modules = 0, 0
    for line in stderr.splitlines():
        if line.startswith(IMPORT_DONE_MARKER):
            break
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        modules += 1
        name = parts[2].strip()
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += int(parts[0])
    return scipy_us / 1e6, modules


def _counter(metrics: dict, name: str) -> float:
    return float(metrics.get(name, {}).get("value", 0.0))


def _p50(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


def per_layer(
    spans: list,
    metrics: dict[str, Any],
    child: dict[str, Any],
    t_spawn: float,
    t_exit: float,
    importtime: str,
    import_s: float,
    leftovers: tuple[int, int],
    n_workers: int,
) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics of one traced child, and what to print about it.

    ``spans`` and ``metrics`` come from the child's ``TraceReport``
    export; ``child`` is its result record (marks, raw layer records, job
    records); ``import_s`` is ``import repro`` as timed in an untraced
    child, free of ``-X importtime`` overhead.
    """
    marks = child["marks"]
    raw = child.get("layer_raw", {})
    by_id = {s.span_id: s for s in spans}

    def under(s, ancestor: str) -> bool:
        while s.parent_id is not None and s.parent_id in by_id:
            s = by_id[s.parent_id]
            if s.name == ancestor:
                return True
        return False

    def total(pred) -> float:
        return sum(s.duration or 0.0 for s in spans if pred(s))

    depth: dict[int, int] = {}

    def depth_of(s) -> int:
        if s.span_id not in depth:
            parent = by_id.get(s.parent_id)
            depth[s.span_id] = 0 if parent is None else depth_of(parent) + 1
        return depth[s.span_id]

    work = [
        (s.start, s.start + (s.duration or 0.0), s.name, depth_of(s))
        for s in spans
        if not _CONTAINERS.match(s.name)
    ]
    work.append((t_spawn, marks["child_start"], "startup.interpreter", 0))
    work.append((marks["import_start"], marks["import_done"], "startup.import", 0))
    work.append((marks["trace_closed"], marks["exported"], "trace.export", 0))
    work.append((marks["done"], t_exit, "process.exit", 0))
    by_layer, gaps = attribute(work, t_spawn, t_exit)
    covered = sum(by_layer.values())
    wall = t_exit - t_spawn
    # What the program's own spans cover, without the benchmark's: the
    # share an in-program tracing change would have to raise.
    program_covered = _union_length(
        (a, b) for a, b, name, __ in work
        if not name.startswith(("bench.", "startup.", "trace.", "process."))
    )

    learn_main = sum(
        _counter(metrics, f"bench.learn.{k}") for k in ("fit_s", "predict_s", "metric_s")
    )
    learn = {
        k: _counter(metrics, f"bench.learn.{k}") + _counter(metrics, f"bench.learn.worker.{k}")
        for k in ("fit_calls", "fit_s", "predict_s", "metric_s")
    }
    if learn_main:
        by_layer["learn"] = by_layer.get("learn", 0.0) + learn_main
        by_layer["importance.engine"] = by_layer.get("importance.engine", 0.0) - learn_main

    hits = _counter(metrics, "engine.cache.hits")
    lookups = hits + _counter(metrics, "engine.cache.misses")

    def intervals(name: str) -> list[tuple[float, float]]:
        return [(s.start, s.start + (s.duration or 0.0)) for s in spans if s.name == name]

    chunks = intervals("worker.chunk")
    dispatches = intervals("bench.pool.dispatch")
    busy = sum(b - a for a, b in chunks)
    dispatch_s = sum(b - a for a, b in dispatches)
    driver_wait = sum(
        (b - a) - _union_length(
            (max(c0, a), min(c1, b)) for c0, c1 in chunks if c1 > a and c0 < b
        )
        for a, b in dispatches
    )

    jobs = child.get("jobs", [])
    handler = {
        s.attrs.get("job_id"): s.duration or 0.0 for s in spans if s.name == "service.job"
    }
    overheads = [
        j["latency_s"] - (j["queue_wait_s"] or 0.0) - handler[j["job_id"]]
        for j in jobs
        if j["job_id"] in handler
    ]

    appends = [d for __, d in sorted(raw.get("journal_append", []))]
    tenth = len(appends) // 10
    growth = (
        float(np.median(appends[-tenth:]) / np.median(appends[:tenth])) if tenth else 0.0
    )
    io = raw.get("io_serving", {})
    scipy_s, modules = parse_importtime(importtime)

    values = {
        "startup.import_s": import_s,
        "startup.scipy_import_s": scipy_s,
        "startup.modules_loaded": modules,
        "datasets.generate_s": total(lambda s: s.name == "bench.datasets.generate"),
        "pipeline.execute_s": total(
            lambda s: s.name == "pipeline.execute" and under(s, "bench.pipeline.execute")
        ),
        "pipeline.join_s": total(
            lambda s: s.name.startswith("node.join#") and under(s, "bench.pipeline.execute")
        ),
        "pipeline.encode_s": total(
            lambda s: s.name.startswith("node.encode#") and under(s, "bench.pipeline.execute")
        ),
        "pipeline.rows_out": sum(
            s.attrs.get("rows_out", 0)
            for s in spans
            if s.name.startswith("node.encode#") and under(s, "bench.pipeline.execute")
        ),
        "knn_shapley_s": total(lambda s: s.name == "bench.importance.knn_shapley"),
        "zorro_s": total(lambda s: s.name == "bench.uncertainty.zorro"),
        "learn.fit_calls": learn["fit_calls"],
        "learn.fit_s": learn["fit_s"],
        "learn.predict_s": learn["predict_s"],
        "learn.metric_s": learn["metric_s"],
        "engine.evaluations": _counter(metrics, "engine.evaluations"),
        "engine.valuation_s": total(
            lambda s: s.name in ("engine.run_permutations", "engine.evaluate_many")
        ),
        "engine.self_s": max(0.0, by_layer.get("importance.engine", 0.0)),
        "engine.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "engine.cache_hits": hits,
        "engine.cache_lookups": lookups,
        "engine.waves": sum(1 for s in spans if s.name == "engine.wave"),
        "pool.start_s": raw.get("pool_start_s", 0.0),
        "pool.worker_busy_s": busy,
        "pool.driver_wait_s": driver_wait,
        "pool.utilization": busy / (n_workers * dispatch_s) if dispatch_s else 0.0,
        "pool.chunks_requeued": _counter(metrics, "engine.pool.chunks_requeued"),
        "pool.worker_starts": _counter(metrics, "engine.pool.worker_starts"),
        "pool.leftover_processes": leftovers[0],
        "pool.leftover_shm_segments": leftovers[1],
        "service.queue_wait_s": _p50([j["queue_wait_s"] or 0.0 for j in jobs]),
        "service.handler_s": _p50(list(handler.values())),
        "service.overhead_s": _p50(overheads),
        "state.journal_append_s": sum(appends),
        "state.journal_append_p50_s": _p50(appends),
        "state.ledger_append_s": sum(d for __, d in raw.get("ledger_append", [])),
        "state.checkpoint_save_s": sum(d for __, d in raw.get("checkpoint_save", [])),
        "state.fsync_s": io.get("fsync_s", 0.0),
        "state.commits": io.get("commits", 0),
        "state.fsyncs": io.get("fsyncs", 0),
        "state.bytes_staged": io.get("bytes_staged", 0),
        "state.journal_records": len(appends),
        "state.append_growth_ratio": growth,
        "state.recover_load_s": _p50([r["load_s"] for r in child.get("recoveries", [])]),
        "trace.untraced_s": wall - covered,
        "trace.coverage_ratio": covered / wall,
    }
    uncovered = sorted(gaps, key=lambda g: g[0] - g[1])[:3]
    report = {
        "by_layer": dict(sorted(by_layer.items(), key=lambda kv: -kv[1])),
        "uncovered": [
            {
                "from_s": a - t_spawn,
                "to_s": b - t_spawn,
                "seconds": b - a,
                "where": _neighbours(work, (a, b)),
            }
            for a, b in uncovered
        ],
        "growth_points": [tenth, len(appends)],
        "program_coverage": program_covered / wall,
    }
    return values, report
