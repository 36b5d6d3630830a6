"""Startup contract: ``import repro`` loads no scipy.

scipy is imported only where it is used: ``scipy.optimize`` inside the
``fit`` of ``LogisticRegression``, ``LinearSVC`` and ``PlattCalibrator``,
and ``scipy.stats`` inside ``numeric_drift``. Every check runs in a fresh
interpreter, since the test process itself has scipy loaded long ago.

* importing ``repro``, ``repro.core`` and ``repro.service``, then running
  KNN and Gaussian NB valuations, leaves no ``scipy`` module loaded;
* each deferred call works on first use in a fresh process, loads the
  scipy module it needs, and returns the same bits as in a process that
  imported scipy before ``repro``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def _run(script: str, *args: str) -> dict:
    """Run ``PRELUDE + script`` in a fresh interpreter; return its JSON line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(PRELUDE) + textwrap.dedent(script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_and_knn_nb_valuations_load_no_scipy():
    out = _run(
        """
        import repro, repro.core, repro.service
        after_import = scipy_modules()

        from repro.datasets import make_classification
        from repro.importance import Utility, ValuationEngine
        from repro.learn import GaussianNB, KNeighborsClassifier

        X, y = make_classification(n=60, n_features=3, seed=2)
        for model in (KNeighborsClassifier(3), GaussianNB()):
            utility = Utility(model, X[:40], y[:40], X[40:], y[40:])
            run = ValuationEngine(utility).run_permutations(n_permutations=4, seed=1)
            assert run.values().shape == (40,) and run.n_evaluations > 0
        print(json.dumps({"after_import": after_import, "after_valuation": scipy_modules()}))
        """
    )
    assert out == {"after_import": [], "after_valuation": []}


FIRST_CALLS = """
import numpy as np

if sys.argv[1] == "preload":
    import scipy.optimize, scipy.special, scipy.stats

from repro.datasets import make_classification
from repro.frame import DataFrame
from repro.learn import GaussianNB, LinearSVC, LogisticRegression, PlattCalibrator
from repro.pipeline import numeric_drift

X, y = make_classification(n=160, n_features=4, seed=5)
rng = np.random.default_rng(0)
reference = DataFrame({"value": rng.normal(size=300)})
current = DataFrame({"value": rng.normal(loc=0.5, size=300)})

def call(name):
    if name == "lr":
        model = LogisticRegression().fit(X[:100], y[:100])
        return [*model.coef_.ravel(), *model.intercept_, *model.predict_proba(X[100:]).ravel()]
    if name == "svc":
        model = LinearSVC().fit(X[:100], y[:100])
        return [*model.coef_, model.intercept_]
    if name == "platt":
        calibrator = PlattCalibrator(GaussianNB().fit(X[:80], y[:80]), positive=1)
        calibrator.fit(X[80:120], y[80:120])
        return [calibrator.a_, calibrator.b_, *calibrator.predict_proba(X[120:])]
    (issue,) = numeric_drift(reference, current, "value")
    return [issue.details["statistic"], issue.details["p_value"]]

names = sys.argv[2:]
before = scipy_modules()
results = {name: [float(v).hex() for v in call(name)] for name in names}
print(json.dumps({"before": before, "after": scipy_modules(), "results": results}))
"""

NEEDS = {
    "lr": "scipy.optimize",
    "svc": "scipy.optimize",
    "platt": "scipy.optimize",
    "drift": "scipy.stats",
}


@pytest.fixture(scope="module")
def preloaded():
    """Every deferred call's result in a process that imported scipy first."""
    return _run(FIRST_CALLS, "preload", *NEEDS)["results"]


@pytest.mark.parametrize("name", sorted(NEEDS))
def test_first_call_loads_scipy_and_matches_a_preloaded_process(name, preloaded):
    out = _run(FIRST_CALLS, "fresh", name)
    assert out["before"] == []
    assert NEEDS[name] in out["after"]
    assert out["results"][name] == preloaded[name]
