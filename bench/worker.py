"""One benchmark process: set up, then run timed passes over a workload.

Started by run.py in a fresh interpreter.  Once set-up (import, config
parsing, warm-up) is done it prints READY with the CPU seconds spent so
far, raw and normalized by calibration runs before and after set-up (the
first needs numpy, so numpy's import is part of set-up but not bracketed).
With --probe it exits there.  Otherwise it loads the reference
values, runs passes until --seconds have passed, checks every output, and
prints one JSON line with its results.

A pass runs every operation of the workload once; its time is the sum of
the operations' normalized CPU times, so output checks and calibration
are not counted.  With
--trace 1 untraced and traced passes alternate: the per-layer numbers
come from the traced passes, and the ratio of the two medians is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter

from calibrate import calibration_seconds, normalized

# How strongly set-up CPU time follows the calibration kernel's: the slope
# of log set-up time against log kernel time (mean of the runs before and
# after set-up), fitted over 36 set-ups of csv-io on the reference machine.
SETUP_SENSITIVITY = 0.6

HERE = os.path.dirname(os.path.abspath(__file__))


def _check_import_location() -> None:
    import treetrace

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(treetrace.__file__).startswith(src + os.sep):
        raise SystemExit(f"treetrace was imported from {treetrace.__file__}, not from {src}")


def run_pass(workload, outcomes) -> dict:
    """Run each operation once.  Returns per operation its CPU seconds,
    normalized CPU seconds and wall seconds, the calibration seconds
    around the operations, and the bytes of the CSV files touched."""
    cpu, norm, wall = [], [], []
    cal = [calibration_seconds()]
    csv_bytes = 0
    for op in workload.ops:
        error = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = op.call()
        except Exception as exc:  # an operation failing is a measured outcome
            error = exc
        cpu.append(time.process_time() - c0)
        wall.append(time.perf_counter() - w0)
        cal.append(calibration_seconds())
        norm.append(normalized(cpu[-1], workload.sensitivity, cal[-2], cal[-1]))
        if error is None:
            try:
                problem = op.check(result)
            except (OSError, ValueError, KeyError) as exc:
                problem = f"output unreadable: {exc!r}"
            status = "ok" if problem is None else "failed"
        elif op.known is not None and op.known.matches(error):
            status, problem = "known", f"{type(error).__name__} ({op.known.roadmap})"
        else:
            status, problem = "failed", f"{type(error).__name__}: {error}"
        outcome = outcomes.setdefault(op.name, {"counts": Counter(), "message": None})
        outcome["counts"][status] += 1
        if problem is not None and outcome["message"] is None:
            outcome["message"] = problem
        csv_bytes += sum(os.path.getsize(f) for f in op.files if os.path.exists(f))
    return {"cpu": cpu, "norm": norm, "wall": wall, "calibration": cal, "csv_bytes": csv_bytes}


def _layer_metrics(tracer, workload, first_span, measured) -> dict:
    """Per-layer numbers of one traced pass, CPU times normalized by the
    pass's median calibration."""
    raw = tracer.layer_metrics(first_span, measured["csv_bytes"])
    factor = normalized(1.0, workload.sensitivity, statistics.median(measured["calibration"]))
    return {k: v * factor if k.endswith("_s") else v for k, v in raw.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    args = parser.parse_args(argv)

    t0 = time.process_time()
    before = calibration_seconds()
    calibrating = time.process_time() - t0
    _check_import_location()
    import workloads

    workload = workloads.Workload(args.workload, args.seed, args.run_dir)
    workload.warm_up()
    setup = time.process_time() - calibrating
    after = calibration_seconds()
    setup_norm = normalized(setup, SETUP_SENSITIVITY, before, after)
    print(f"READY {setup!r} {setup_norm!r}", flush=True)
    if args.probe:
        return 0

    workload.prepare(os.path.join(HERE, "reference.json"))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    outcomes: dict[str, dict] = {}
    untraced: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(traced) < len(untraced):
            tracer.reset_counters()
            first_span = len(tracer.spans)
            tracer.install()
            try:
                measured = run_pass(workload, outcomes)
            finally:
                tracer.uninstall()
            traced.append(measured)
            layers.append(_layer_metrics(tracer, workload, first_span, measured))
        else:
            untraced.append(run_pass(workload, outcomes))
        both_kinds = tracer is None or (traced and len(traced) == len(untraced))
        if time.perf_counter() - start >= args.seconds and both_kinds:
            break

    counts = Counter()
    for outcome in outcomes.values():
        counts.update(outcome["counts"])
    attempted = sum(counts.values())
    untraced_norm = [sum(p["norm"]) for p in untraced]
    if tracer is None:
        metrics = {
            "norm_cpu_s": statistics.median(untraced_norm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": counts["ok"] / attempted,
        }
    else:
        metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
        traced_norm = [sum(p["norm"]) for p in traced]
        metrics["trace_overhead_share"] = (
            statistics.median(traced_norm) / statistics.median(untraced_norm) - 1.0
        )
        if args.spans:
            tracer.write(args.spans)

    import numpy
    import scipy
    import treetrace

    result = {
        "metrics": metrics,
        "op_names": [op.name for op in workload.ops],
        "passes": {"untraced": untraced, "traced": traced},
        "attempted": attempted,
        "ok": counts["ok"],
        "known": counts["known"],
        "failed": counts["failed"],
        "errors": workload.errors,
        "operations": {
            name: {"counts": dict(o["counts"]), "message": o["message"]}
            for name, o in outcomes.items()
        },
        "inputs": f"input set {workload.offset} of {workloads.OFFSETS}",
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "treetrace": treetrace.__version__,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
