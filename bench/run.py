"""Benchmark of treetrace: four verify and function-file workloads, timed
from outside the program.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify-default --seed 0 --seconds 16 --trace 0

Each run starts fresh single-threaded interpreters (worker.py), with
OMP/OpenBLAS/MKL pinned to one thread and treetrace imported from ./src.
With --trace 0 it reports the end-to-end metrics:

  setup_s      median over SETUP_SAMPLES fresh interpreters of the
               normalized CPU seconds to import treetrace, parse the
               configs and make one warm-up call per entry point
  norm_cpu_s   median normalized CPU seconds of one pass over the
               workload's operations
  peak_rss_mb  peak resident memory of the measuring process
  ok_share     operations that completed with a correct output, divided
               by the operations attempted

CPU seconds are user + system time of the single-threaded process.  On a
shared machine they swing by up to 1.7 times with the load of other
tenants, so each operation's CPU time, and each set-up's, is rescaled
to the reference machine speed by a calibration kernel run around it
(calibrate.py).  The raw CPU and wall times are printed and kept in the
result file as well.

With --trace 1 it reports the per-layer metrics of a traced run instead.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `failed` counts operations that
failed in a way not documented as a known defect; known defects lower
ok_share and are listed by name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# the same names as workloads.WORKLOADS; the launcher imports neither
# numpy nor treetrace, so that set-up is measured in fresh interpreters only
WORKLOADS = ("verify-default", "deep-sweep", "equivalence-deep", "csv-io")
SETUP_SAMPLES = 3
RUN_ROOT = ".bench_run"
TIMEOUT_S = 170.0

UNITS = {
    "setup_s": "s",
    "norm_cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "trace_overhead_share": "ratio",
    "young.evals_per_gauge": "evals/call",
    "young.modular_evals": "count",
    "hajlasz.iterations": "count",
    "hajlasz.failed": "count",
    "cli.csv_bytes": "bytes",
    "boundary_norms.double_exact_share": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "count" if name.endswith("_calls") else "s"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, run_dir, deadline, *extra) -> tuple[subprocess.Popen, tuple[float, float]]:
    """Start worker.py and wait for its READY line; returns the process and
    the CPU seconds it spent on set-up, raw and normalized."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--run-dir", run_dir,
        *extra,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    words = proc.stdout.readline().split()
    if len(words) != 3 or words[0] != "READY":
        stop(proc, deadline)
        raise RuntimeError(f"worker set-up failed (exit code {proc.returncode})")
    return proc, (float(words[1]), float(words[2]))


def stop(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for the process until the deadline, killing it after; returns its output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    return out


def git_describe() -> str:
    if not os.path.isdir(".git"):
        return "unavailable (not a git checkout)"
    try:
        res = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return res.stdout.strip() or "unavailable"


def measure(args) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    run_dir = os.path.abspath(
        os.path.join(RUN_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    )
    os.makedirs(run_dir, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, setup = start_worker(args, run_dir, deadline, "--probe")
                stop(proc, deadline)
                if proc.returncode != 0:
                    raise RuntimeError(f"set-up probe exited with {proc.returncode}")
                setups.append(setup)
        spans = os.path.abspath(
            os.path.join(RUN_ROOT, f"spans-{args.workload}-seed{args.seed}.json")
        )
        proc, setup = start_worker(
            args, run_dir, deadline,
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", spans,
        )
        setups.append(setup)
        out = stop(proc, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(norm for _raw, norm in setups)
        result["setup_samples"] = setups
    return result


def report(args, result) -> dict:
    passes = result["passes"]
    env = {
        "nproc": os.cpu_count(),
        **result["versions"],
        "git": git_describe(),
        "platform": platform.platform(),
    }
    print(f"workload {args.workload}, seed {args.seed} ({result['inputs']}), trace {args.trace}")
    print(
        f"passes: {len(passes['untraced'])} untraced, {len(passes['traced'])} traced; "
        f"operations attempted {result['attempted']}, ok {result['ok']}, "
        f"known defects {result['known']}, failed {result['failed']}"
    )
    print(f"failed_share = {(result['known'] + result['failed']) / result['attempted']:.6g} ratio")
    for kind in ("cpu", "wall"):
        per_pass = [round(sum(p[kind]), 3) for p in passes["untraced"]]
        print(f"{kind} seconds per untraced pass, not normalized: {per_pass}")
    for name, outcome in result["operations"].items():
        if outcome["message"] is not None:
            print(f"  {name}: {outcome['counts']} {outcome['message']}")
    for error in result["errors"]:
        print(f"  self-check failed: {error}")
    samples = {
        "setup_s": len(result.get("setup_samples", [])),
        "norm_cpu_s": len(passes["untraced"]),
    }
    for name, value in result["metrics"].items():
        count = f" (median of {samples[name]})" if name in samples else ""
        print(f"{name} = {value:.6g} {unit_of(name)}{count}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))

    record = dict(result, environment=env, workload=args.workload, seed=args.seed)
    path = os.path.join(RUN_ROOT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    return {
        "correct": result["failed"] == 0 and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in result["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treetrace benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "treetrace", "__init__.py")):
        print("run from the root of a treetrace checkout (src/treetrace not found)", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
