#!/usr/bin/env python3
"""Cold-process, per-layer benchmark of the Identify → Debug → Learn paths.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline_mc --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 30 --trace 1

Every iteration is a fresh ``python -m perfbench.child`` process, timed from
spawn to exit, over an empty state directory. The run keeps starting
iterations while the next one is expected to finish within ``--seconds``
(at least one; in a traced run at least one untraced/traced pair) and
reports medians. Each child verifies its outputs against a serial
reference built here before the first child starts.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics; the traced child runs with ``-X importtime`` under
``repro.obs.tracing()`` and its span export is kept next to the run record.

Human-readable tables go first; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``. Run records
and traces land in ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import perfbench  # noqa: E402 - needs the repository root on sys.path

SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: Printed, not gated: ``work_s`` is ``total_s`` without set-up and exit,
#: and the rates exist on one workload each (see README).
PRINTED_UNITS = {
    "work_s": "s",
    "perm_rows_per_s": "1/s",
    "subsets_per_s": "1/s",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p95_s": "s",
    "recover_s": "s",
}
#: ``setup_s`` is the median of at least this many set-ups per run; set-up
#: only children top up workloads with few full iterations.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 100.0
#: One BLAS thread per process. With the default of one per core, the
#: service workload's driver and two pool workers oversubscribe the cores,
#: and every BLAS call waits at a barrier for its slowest thread, so a
#: stall on either core of a shared host stalls the call.
BLAS_THREADS = {
    name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-shm-"


@dataclass
class ChildRun:
    traced: bool
    setup_only: bool
    returncode: int
    t_spawn: float
    t_exit: float
    stderr: str
    record: dict[str, Any] | None
    leftover_processes: int
    leftover_shm: int
    trace_path: Path | None = None

    @property
    def total_s(self) -> float:
        return self.t_exit - self.t_spawn

    @property
    def ok(self) -> bool:
        return self.record is not None


@dataclass
class WorkloadRun:
    name: str
    children: list[ChildRun] = field(default_factory=list)


# ---------------------------------------------------------------------- #
# hygiene                                                                #
# ---------------------------------------------------------------------- #
def _session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


def reap_session(sid: int) -> int:
    """Kill what the child left running; return how many were left."""
    left = _session_members(sid)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while _session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return len(left)


def shm_segments() -> set[str]:
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX)}


# ---------------------------------------------------------------------- #
# children                                                               #
# ---------------------------------------------------------------------- #
def child_env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(tmp)
    env.update(BLAS_THREADS)
    return env


def spawn(
    name: str, seed: int, run_dir: Path, index: int, traced: bool,
    setup_only: bool, reference: Path,
) -> ChildRun:
    state = run_dir / f"state-{index}"
    state.mkdir()
    result = run_dir / f"child-{index}.json"
    trace_path = run_dir / f"trace-{index}.jsonl" if traced else None
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [
        "-m", "perfbench.child", "--workload", name, "--seed", str(seed),
        "--state", str(state), "--result", str(result),
        "--reference", str(reference), "--trace", "1" if traced else "0",
    ]
    if trace_path is not None:
        cmd += ["--trace-out", str(trace_path)]
    if setup_only:
        cmd.append("--setup-only")
    shm_before = shm_segments()
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(state), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        __, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        __, stderr = proc.communicate()
        stderr += f"\nperfbench: child killed after {CHILD_TIMEOUT_S:.0f} s"
    t_exit = time.perf_counter()
    leftover_processes = reap_session(proc.pid)
    leftover_shm = sorted(shm_segments() - shm_before)
    for segment in leftover_shm:
        try:
            (SHM_DIR / segment).unlink()
        except FileNotFoundError:
            pass
    record = None
    if proc.returncode == 0 and result.exists():
        record = json.loads(result.read_text())
    shutil.rmtree(state, ignore_errors=True)
    if proc.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        print(f"perfbench: {name} child {index} exited {proc.returncode}:\n{tail}",
              file=sys.stderr)
    return ChildRun(
        traced=traced, setup_only=setup_only, returncode=proc.returncode,
        t_spawn=t_spawn, t_exit=t_exit, stderr=stderr if traced else "",
        record=record, leftover_processes=leftover_processes,
        leftover_shm=len(leftover_shm), trace_path=trace_path,
    )


def run_dir_for(name: str, seed: int, traced: bool) -> Path:
    return OUT / f"{name}-seed{seed}-trace{int(traced)}-{os.getpid()}"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> WorkloadRun:
    from perfbench import reference as ref_module

    run_dir = run_dir_for(name, seed, traced)
    run_dir.mkdir(parents=True)
    # Building the reference imports repro here first, which also leaves
    # the byte-compiled package every child imports.
    ref = ref_module.build(name, seed)
    ref_path = run_dir / "reference.json"
    ref_path.write_text(json.dumps(ref))

    run = WorkloadRun(name)
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        sides = [False]
        if traced:
            # Alternate which side goes first, pair by pair.
            sides = [False, True] if index % 4 == 0 else [True, False]
        batch_started = time.perf_counter()
        for side in sides:
            run.children.append(spawn(name, seed, run_dir, index, side, False, ref_path))
            index += 1
        batch_s = time.perf_counter() - batch_started
        if time.perf_counter() + batch_s > deadline:
            break
    if not traced:
        for __ in range(SETUP_SAMPLES - sum(c.ok for c in run.children)):
            run.children.append(spawn(name, seed, run_dir, index, False, True, ref_path))
            index += 1
    return run


# ---------------------------------------------------------------------- #
# summaries                                                              #
# ---------------------------------------------------------------------- #
def tail_percentile(samples: list[float]) -> tuple[str, float] | None:
    """The highest listed percentile with at least ten samples beyond it."""
    for q in (99.9, 99, 95, 90, 75, 50):
        if len(samples) * (1 - q / 100) >= 10:
            return f"p{q:g}", float(np.percentile(samples, q))
    return None


def describe(samples: list[float]) -> str:
    tail = tail_percentile(samples)
    tail_text = f"{tail[0]} {tail[1]:.6g}" if tail else "no tail (<20 samples)"
    return f"median {statistics.median(samples):.6g}, {tail_text}, n={len(samples)}"


def accounting(run: WorkloadRun) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure lines) over every full child of the run."""
    from perfbench.workloads import WORKLOADS

    ops = WORKLOADS[run.name].ops
    attempted = failed = 0
    lines = []
    for child in run.children:
        if child.setup_only:
            if not child.ok:
                attempted, failed = attempted + 1, failed + 1
                lines.append("set-up-only child failed")
            continue
        attempted += len(ops)
        if not child.ok:
            failed += len(ops)
            lines.append(f"child exited {child.returncode}: all {len(ops)} operations failed")
            continue
        for check in child.record["checks"]:
            if not check["ok"]:
                failed += 1
                lines.append(f"{check['op']}: {check['detail']}")
    return attempted, failed, lines


def end_to_end(
    run: WorkloadRun, units: dict[str, str]
) -> tuple[dict[str, float], list[str]]:
    full = [c for c in run.children if c.ok and not c.traced and not c.setup_only]
    setups = [c for c in run.children if c.ok and not c.traced]
    if not full:
        raise RuntimeError(f"{run.name}: no untraced iteration completed")
    samples = {
        "total_s": [c.total_s for c in full],
        "setup_s": [c.record["marks"]["setup_done"] - c.t_spawn for c in setups],
        "peak_rss_mb": [c.record["peak_rss_mb"] for c in full],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    lines = [
        f"  {k:<20} {metrics[k]:>12.6g} {units[k]:<5} ({describe(v)})"
        for k, v in samples.items()
    ]
    rates: dict[str, list[float]] = {
        "work_s": [
            c.record["marks"]["verified"] - c.record["marks"]["setup_done"] for c in full
        ]
    }
    for child in full:
        for key, value in child.record.get("rates", {}).items():
            rates.setdefault(key, []).append(value)
    latencies = [job["latency_s"] for c in full for job in c.record.get("jobs", [])]
    for key, values in rates.items():
        if key.startswith("job_latency_"):
            # Pool every job of every iteration for the latency percentiles.
            q = 50 if key.endswith("p50_s") else 95
            value = float(np.percentile(latencies, q))
            detail = f"over {len(latencies)} jobs"
        else:
            value = statistics.median(values)
            detail = describe(values)
        lines.append(f"  {key:<20} {value:>12.6g} {PRINTED_UNITS[key]:<5} ({detail})")
    return metrics, lines


def per_layer_run(
    run: WorkloadRun, units: dict[str, str]
) -> tuple[dict[str, float], list[str]]:
    from repro.obs import TraceReport

    from perfbench import layers
    from perfbench.workloads import SERVICE_POOL

    traced = [c for c in run.children if c.ok and c.traced]
    untraced = [c for c in run.children if c.ok and not c.traced and not c.setup_only]
    if not traced or not untraced:
        raise RuntimeError(f"{run.name}: no traced/untraced pair completed")
    import_s = statistics.median(
        c.record["marks"]["import_done"] - c.record["marks"]["import_start"]
        for c in untraced
    )
    leftovers = (
        sum(c.leftover_processes for c in run.children),
        sum(c.leftover_shm for c in run.children),
    )
    samples: dict[str, list[float]] = {}
    reports = []
    for child in traced:
        report = TraceReport.from_jsonl(child.trace_path)
        values, detail = layers.per_layer(
            report.spans, report.metrics, child.record, child.t_spawn, child.t_exit,
            child.stderr, import_s, leftovers, SERVICE_POOL,
        )
        reports.append((child, detail))
        for key, value in values.items():
            samples.setdefault(key, []).append(value)
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(c.total_s for c in traced)
        / statistics.median(c.total_s for c in untraced)
        - 1.0
    )
    lines = [
        f"  {k:<28} {metrics[k]:>14.6g} {unit}"
        for k, unit in units.items()
    ]
    child, detail = reports[0]
    lines.append(f"  wall time by layer, traced child ({child.total_s:.3f} s, "
                 f"trace {child.trace_path.name}):")
    lines += [f"    {layer:<26} {s:>9.4f} s" for layer, s in detail["by_layer"].items()]
    lines.append(
        f"  the program's own spans cover {detail['program_coverage']:.1%} of it"
    )
    untraced_s = metrics["trace.untraced_s"]
    if untraced_s > layers.COVERAGE_TARGET * child.total_s:
        lines.append(
            f"  untraced {untraced_s:.3f} s exceeds {layers.COVERAGE_TARGET:.0%} of "
            "total_s; largest uncovered intervals (for in-program tracing):"
        )
        lines += [
            f"    {g['seconds']:.4f} s at +{g['from_s']:.3f} s ({g['where']})"
            for g in detail["uncovered"]
        ]
    if detail["growth_points"][1]:
        first, count = detail["growth_points"]
        lines.append(
            f"  append growth: first {first} vs last {first} of {count} journal records"
        )
    return metrics, lines


def provenance(seed: int, seconds: float) -> list[str]:
    try:
        from importlib.metadata import version

        scipy_version = version("scipy")
    except Exception:  # noqa: BLE001 - provenance is best effort
        scipy_version = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "none (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return [
        f"  nproc {os.cpu_count()}, affinity {affinity} cpus, {platform.machine()}",
        f"  python {platform.python_version()}, numpy {np.__version__}, scipy {scipy_version}",
        f"  git {sha}, src sha256 {digest.hexdigest()[:16]}",
        f"  seed {seed}, seconds {seconds:g}",
    ]


def report_workload(
    run: WorkloadRun, traced: bool, seed: int, seconds: float
) -> dict[str, Any]:
    attempted, failed, failures = accounting(run)
    lines = [f"== {run.name} (seed {seed}, {'traced' if traced else 'untraced'})"]
    origin = provenance(seed, seconds)
    lines += origin
    full = [c for c in run.children if not c.setup_only]
    lines.append(
        f"  children: {len(full)} full ({sum(c.traced for c in full)} traced), "
        f"{len(run.children) - len(full)} set-up only"
    )
    units = perfbench.units("per_layer" if traced else "end_to_end")
    metrics, metric_lines = (per_layer_run if traced else end_to_end)(run, units)
    lines += metric_lines
    lines.append(
        f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)"
    )
    lines += [f"  FAILED {line}" for line in failures[:20]]
    print("\n".join(lines), flush=True)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    record = {
        "workload": run.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "provenance": origin,
        "summary": summary,
        "children": [
            {k: v for k, v in vars(c).items() if k not in ("stderr", "trace_path")}
            for c in run.children
        ],
    }
    (run_dir_for(run.name, seed, traced) / "run.json").write_text(json.dumps(record, default=str))
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]),
    )
    names = [w["name"] for w in perfbench.spec()["workloads"]]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]

    if args.workload != "all":
        names = [args.workload]
    summaries = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        summaries[name] = report_workload(run, bool(args.trace), args.seed, args.seconds)
    if len(names) == 1:
        result = summaries[names[0]]
    else:
        result = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{name}.{k}": v for name, s in summaries.items() for k, v in s["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
