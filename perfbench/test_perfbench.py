"""The benchmark's own tests: its checks are live, and it refuses to run blind.

Run from the repository root with ``python3 -m pytest perfbench -q``. The
negative controls run each workload once, end to end, against a perturbed
reference; together they take about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import reference, spec, units

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Operations per iteration, and how many of them compare against a reference.
OPS = {
    "pipeline_mc": (7, 4),
    "service_pooled": (221, 220),
}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_compare_values_accepts_the_reference_itself():
    values = np.linspace(-1.0, 1.0, 50)
    assert reference.compare_values("v", values, values.copy(), 5).ok


def test_compare_values_rejects_a_perturbed_reference():
    values = np.linspace(-1.0, 1.0, 50)
    want = values.copy()
    want[20] += reference.PERTURBATION
    check = reference.compare_values("v", values, want, 5)
    assert not check.ok
    assert "max |diff| 1.0e-06" in check.detail


def test_compare_values_allows_ties_at_the_boundary():
    values = np.array([0.0, 1.0, 1.0, 2.0])
    assert reference.compare_values("v", values[[0, 2, 1, 3]], values, 2).ok


def test_perturb_shifts_every_valuation_but_not_row_ids():
    ref = {"row_ids": [3, 1], "exact_knn": [0.5, 0.25], "jobs": {"7": [1.0, 2.0]}}
    out = reference.perturb(ref)
    assert out["row_ids"] == [3, 1]
    assert out["exact_knn"][0] == 0.5 + reference.PERTURBATION
    assert out["jobs"]["7"][0] == 1.0 + reference.PERTURBATION
    assert ref["exact_knn"][0] == 0.5


@pytest.mark.parametrize("workload", sorted(OPS))
def test_negative_control_fails_every_reference_check(workload, monkeypatch, capsys):
    from perfbench import run

    build = reference.build
    monkeypatch.setattr(
        reference, "build", lambda *args: reference.perturb(build(*args))
    )
    assert run.main([
        "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0",
    ]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    per_iteration, valuations = OPS[workload]
    iterations = result["attempted"] // per_iteration
    assert iterations >= 1
    assert result["correct"] is False
    # Exactly the checks against the perturbed reference fail; the
    # reference-free checks (cleaning, Zorro, provenance, recovery) pass.
    assert result["failed"] == iterations * valuations


def test_per_layer_reports_exactly_the_metrics_of_benchmark_json():
    from perfbench import layers

    marks = dict.fromkeys(
        ("child_start", "import_start", "import_done", "trace_closed", "exported", "done"),
        0.5,
    )
    values, __ = layers.per_layer(
        [], {}, {"marks": marks}, 0.0, 1.0, "", 0.1, (0, 0), 2
    )
    # ``trace.overhead_ratio`` compares two children, so the run adds it.
    assert set(values) | {"trace.overhead_ratio"} == set(units("per_layer"))
    assert sorted(OPS) == sorted(w["name"] for w in spec()["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench(
        tmp_path, "--workload", "pipeline_mc", "--seed", "0",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
