"""Cold-process, per-layer benchmark of the Identify → Debug → Learn paths.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""

import json
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics with their units."""
    return json.loads(SPEC_PATH.read_text())


def units(section: str) -> dict[str, str]:
    """Metric name → unit of one ``BENCHMARK.json`` section, in file order."""
    return {m["name"]: m["unit"] for m in spec()[section]}
