"""One cold workload process: import, set up, run, verify, report.

Started by :mod:`perfbench.run` as ``python -m perfbench.child ...`` from
the repository root, with ``src`` on ``PYTHONPATH``. Every timestamp it
records is a ``time.perf_counter()`` reading (CLOCK_MONOTONIC on Linux),
which the parent compares with its own spawn and exit readings.

The result record is written to ``--result`` as JSON. With ``--trace 1``
the whole workload runs under ``repro.obs.tracing()`` and the merged span
report is saved to ``--trace-out`` through ``TraceReport.save_jsonl``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - the first reading above is the process start
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--state", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--reference", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    marks = {"child_start": T_START, "import_start": time.perf_counter()}
    import repro  # noqa: F401 - the startup being measured

    marks["import_done"] = time.perf_counter()
    from repro.obs import span, tracing

    from perfbench import layers
    from perfbench.workloads import WORKLOADS, Instrument

    traced = bool(args.trace)
    if traced:
        print(layers.IMPORT_DONE_MARKER, file=sys.stderr, flush=True)
    inst = Instrument(traced=traced, marks=marks)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    with tracing() if traced else contextlib.nullcontext() as report:
        workload = WORKLOADS[args.workload](args.seed, args.state, inst)
        workload.setup()
        inst.mark("setup_done")
        if not args.setup_only:
            reference = json.loads(args.reference.read_text())
            outputs = workload.run()
            inst.mark("work_done")
            with span("bench.check"):
                checks = workload.check(outputs, reference)
            inst.mark("verified")
            record["checks"] = [vars(c) for c in checks]
            record["rates"] = outputs.get("rates", {})
            if "jobs" in outputs:
                record["jobs"] = [
                    {k: v for k, v in job.items() if k != "values"}
                    for job in outputs["jobs"]
                ]
                record["recoveries"] = outputs["recoveries"]
        workload.close()
    inst.mark("trace_closed")
    if traced:
        report.save_jsonl(args.trace_out)
    inst.mark("exported")
    record["layer_raw"] = layers.export_raw(inst.layer_raw)
    record["peak_rss_mb"] = _rss_mb()
    inst.mark("done")
    record["marks"] = marks
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
