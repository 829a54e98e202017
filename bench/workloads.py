"""The benchmark's workloads: generated configs, operations, warm-up calls
and the output check of each operation.

Every operation calls a public entry point of treetrace, looked up at call
time so that a traced run sees its timing wrappers.  The verify drivers
and the function-file commands run through `treetrace.cli.main`, given
only config files and function files the benchmark generated.

Why these four workloads (each stresses a different layer):

* verify-default: the six verify drivers at the default config, the
  out-of-the-box path.  Many small calls, so added per-call cost (ball
  masses, small gauges, driver and CLI overhead) shows here first.
* deep-sweep: extension-bound and trace-bound at depths 12-16 with
  lambda1 = 1.  Dominated by the Luxemburg gauge over the tree modular;
  the arrays outgrow the L2 cache at depth 16.  No Hajlasz or CSV codec.
* equivalence-deep: the boundary side only.  The equivalence sweep at
  depths 6-12 (Hajlasz program, exact and Monte Carlo double sums,
  boundary gauges), plus the known defects of ROADMAP items 3 and 5(a).
* csv-io: the gen -> extend -> trace -> energy chain through function
  files at K = 2 and K = 3, dominated by addressing and the CSV codec.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import treetrace.cli as cli
import treetrace.hajlasz as hajlasz
from treetrace.boundary_norms import EnergyParams, double_integral_energy
from treetrace.harness import generate, load_config

import checks

WORKLOADS = ("verify-default", "deep-sweep", "equivalence-deep", "csv-io")

# --seed selects one of OFFSETS disjoint sets of instance seeds, so that
# the frozen reference values cover every input the benchmark can make.
OFFSETS = 4

VERIFY_DRIVERS = (
    "trace-bound",
    "extension-bound",
    "equivalence",
    "roundtrip",
    "doubling",
    "ahlfors",
)
# How strongly each workload's CPU time follows the calibration kernel's
# (calibrate.py): the slope of log operation time against log kernel time,
# fitted over five 16-second runs of each workload on the reference
# machine (0.86-0.94, 0.44-0.46, 0.68-0.71 and 0.66-0.71).
SENSITIVITY = {
    "verify-default": 0.9,
    "deep-sweep": 0.45,
    "equivalence-deep": 0.7,
    "csv-io": 0.7,
}
CSV_SHAPES = ((2, 16), (3, 10))
HAJLASZ_CASES = ((1.5, 1), (1.5, 2), (3.0, 1), (3.0, 2))
HAJLASZ_ORACLE_RESOLUTION = 16


@dataclass(frozen=True)
class KnownDefect:
    """A documented failure: the exception type and a fragment of its message."""

    error: str
    fragment: str
    roadmap: str

    def matches(self, exc: BaseException) -> bool:
        return type(exc).__name__ == self.error and self.fragment in str(exc)


NO_HAJLASZ_SAMPLES = KnownDefect(
    "ValueError", "no samples for column 'hajlasz_vs_dyadic'", "ROADMAP item 5(a)"
)
NOT_CONVERGED = KnownDefect("ConvergenceError", "did not certify", "ROADMAP item 3")


@dataclass
class Op:
    """One timed call into the program and the check of its output.

    `check` returns None for a correct output, else what is wrong.  An
    exception matching `known` is a known defect, not a new failure.
    `ref` names the operation's entry in reference.json; `read` loads its
    output in the same form, and `ref_call` (when set) is what
    make_reference.py runs instead of `call` to produce that entry.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    files: tuple[str, ...] = ()
    known: KnownDefect | None = None
    ref: str | None = None
    read: Callable[[], dict] | None = None
    ref_call: Callable[[], object] | None = None
    ref_drop: tuple[str, ...] = ()


def run_cli(argv) -> tuple[object, str]:
    """(exit code, standard output) of one `treetrace` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def _exit_ok(result) -> str | None:
    rc, _text = result
    return None if rc == 0 else f"exit code {rc}"


class Workload:
    """Operations of one workload for one seed, with files under `run_dir`.

    Building it writes and parses the config files; `warm_up` makes one
    untimed call per entry point at the smallest size; `prepare` loads
    the reference values and computes the check data.
    """

    def __init__(self, name: str, seed: int, run_dir: str) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.offset = seed % OFFSETS
        self.sensitivity = SENSITIVITY[name]
        self.run_dir = run_dir
        self.ops: list[Op] = []
        self.warm_ups: list[Callable[[], object]] = []
        self.errors: list[str] = []
        self.reference: dict[str, dict] = {}
        self.alternatives: dict[str, dict] = {}
        self.oracles: dict[str, float] = {}
        self._mc_checks: list[tuple[str, str]] = []
        self._hajlasz_inputs: dict[str, tuple] = {}
        self._generated: dict[str, tuple[int, int]] = {}
        self._expected_values: dict[str, list[float]] = {}
        getattr(self, "_build_" + name.replace("-", "_"))()

    # --- inputs ---------------------------------------------------------

    def path(self, filename: str) -> str:
        return os.path.join(self.run_dir, filename)

    def seeds(self, count: int) -> range:
        return range(self.offset * count, (self.offset + 1) * count)

    def config(self, filename: str, **keys) -> str:
        path = self.path(filename)
        with open(path, "w") as fh:
            for key, value in keys.items():
                if isinstance(value, range):
                    value = f"{value.start}..{value.stop - 1}"
                fh.write(f"{key} = {value}\n")
        load_config(path)
        return path

    # --- operations -----------------------------------------------------

    def verify_op(self, check, config, *extra, tag=None, known=None, mc_rows=False):
        tag = tag or check
        out = self.path(f"{tag}.csv")
        argv = ["verify", check, "--config", config, *extra, "--out", out]
        name = " ".join(["verify", check, *extra])
        ref = f"{self.name}/{name}"
        op = Op(
            name=name,
            call=lambda: run_cli(argv),
            check=lambda result: self._check_report(result, ref, out),
            files=(out,),
            known=known,
            ref=ref,
            read=lambda: checks.read_report(out),
        )
        if mc_rows:
            self._mc_checks.append((ref, config))
        self.ops.append(op)
        return op

    def _check_report(self, result, ref, out) -> str | None:
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        summary = text.splitlines()[0] if text else ""
        if "PASS" not in summary.split():
            return f"summary {summary!r}"
        return checks.compare(
            checks.read_report(out), self.reference[ref], self.alternatives.get(ref)
        )

    def warm_up_cli(self, *argv) -> None:
        self.warm_ups.append(lambda: run_cli(list(argv)))

    def warm_up(self) -> None:
        for call in self.warm_ups:
            call()

    def _build_verify_default(self) -> None:
        config = self.config("default.cfg", seeds=self.seeds(8))
        for check in VERIFY_DRIVERS:
            self.verify_op(check, config)
        warm = self.config("warm.cfg", seeds=0, depths=2, n_balls=4)
        for check in VERIFY_DRIVERS:
            self.warm_up_cli("verify", check, "--config", warm, "--out", self.path("warm.csv"))

    def _build_deep_sweep(self) -> None:
        # one depth sweep per seed, so that no operation is long beside the
        # calibration interval (see calibrate.py)
        config = self.config("deep.cfg", lambda1=1, depths="12,14,16")
        warm = self.config("warm.cfg", lambda1=1, seeds=0, depths=2)
        for check in ("extension-bound", "trace-bound"):
            for seed in self.seeds(4):
                self.verify_op(check, config, "--seed", str(seed), tag=f"{check}-{seed}")
            self.warm_up_cli("verify", check, "--config", warm, "--out", self.path("warm.csv"))

    def _build_equivalence_deep(self) -> None:
        seeds = self.seeds(8)
        config = self.config(
            "equivalence.cfg", lambda1=1, depths="6,8,10,12", hajlasz_max_depth=8
        )
        for seed in seeds:
            self.verify_op(
                "equivalence", config, "--seed", str(seed), tag=f"equivalence-{seed}", mc_rows=True
            )
        default = self.config("default.cfg", seeds=seeds)
        crash = self.verify_op(
            "equivalence",
            default,
            "--depth",
            "8",
            tag="equivalence-depth8",
            known=NO_HAJLASZ_SAMPLES,
            mc_rows=True,
        )
        # the same rows with the Hajlasz column filled, which runs today
        crash.ref_call = lambda: run_cli(
            [
                "verify",
                "equivalence",
                "--config",
                self.config("default-h8.cfg", seeds=seeds, hajlasz_max_depth=8),
                "--depth",
                "8",
                "--out",
                crash.files[0],
            ]
        )
        crash.ref_drop = ("hajlasz_energy", "hajlasz_vs_dyadic")

        cfg = load_config(default)
        theta, eps = cfg.resolved_theta, cfg.epsilon
        for p, depth in HAJLASZ_CASES:
            f = generate("iid-uniform", K=2, depth=depth, seed=0)
            name = f"hajlasz_minimize p={p:g} N={depth}"
            self._hajlasz_inputs[name] = (f, theta, p, eps)
            self.ops.append(
                Op(
                    name=name,
                    call=lambda args=(f, theta, p, eps): _hajlasz_call(*args),
                    check=lambda result, name=name: self._check_hajlasz(result, name),
                    known=NOT_CONVERGED if p == 3.0 else None,
                )
            )
        warm = self.config(
            "warm.cfg", lambda1=1, seeds=0, depths=2, hajlasz_max_depth=8
        )
        self.warm_up_cli("verify", "equivalence", "--config", warm, "--out", self.path("warm.csv"))
        f1 = generate("iid-uniform", K=2, depth=1, seed=0)
        self.warm_ups.append(lambda: _hajlasz_call(f1, theta, 1.5, eps))

    def _check_hajlasz(self, result, name) -> str | None:
        inst, solution = result
        if not hajlasz.hajlasz_feasible(inst, solution.g):
            return "gradient system is not feasible"
        oracle = self.oracles[name]
        if solution.value > oracle * (1.0 + 1e-9):
            return f"value {solution.value!r} exceeds the grid oracle {oracle!r}"
        return None

    def _build_csv_io(self) -> None:
        seed = str(self.offset)
        for K, depth in CSV_SHAPES:
            config = self.config(f"k{K}.cfg", K=K)
            shape = f"K={K} N={depth}"
            gen, ext, back, energy = (
                self.path(f"{stem}-k{K}.csv") for stem in ("gen", "extend", "trace", "energy")
            )
            name = f"gen {shape}"
            self._cli_op(
                name,
                ["gen", "--config", config, "--seed", seed, "--depth", str(depth), "--out", gen],
                lambda result, name=name, gen=gen: _exit_ok(result)
                or self._check_generated(name, gen),
                (gen,),
            )
            self._generated[name] = (K, depth)
            self._cli_op(
                f"extend {shape}",
                ["extend", "--config", config, "--input", gen, "--out", ext],
                _exit_ok,
                (gen, ext),
            )
            self._cli_op(
                f"trace {shape}",
                ["trace", "--config", config, "--input", ext, "--out", back],
                lambda result, gen=gen, back=back: _exit_ok(result) or _same_bytes(back, gen),
                (ext, back),
            )
            ref = f"{self.name}/energy {shape}"
            op = self._cli_op(
                f"energy {shape}",
                ["energy", "--config", config, "--input", gen, "--out", energy],
                lambda result, ref=ref, energy=energy: _exit_ok(result)
                or checks.compare(checks.read_quantities(energy), self.reference[ref]),
                (gen, energy),
            )
            op.ref = ref
            op.read = lambda energy=energy: checks.read_quantities(energy)

            warm = [self.path(f"warm{i}-k{K}.csv") for i in range(4)]
            self.warm_up_cli("gen", "--config", config, "--seed", "0", "--depth", "2", "--out", warm[0])
            self.warm_up_cli("extend", "--config", config, "--input", warm[0], "--out", warm[1])
            self.warm_up_cli("trace", "--config", config, "--input", warm[1], "--out", warm[2])
            self.warm_up_cli("energy", "--config", config, "--input", warm[0], "--out", warm[3])

    def _check_generated(self, name, path) -> str | None:
        """The written function must hold the generated values exactly."""
        if checks.read_function_values(path) != self._expected_values[name]:
            return f"{os.path.basename(path)} does not hold the generated values exactly"
        return None

    def _cli_op(self, name, argv, check, files) -> Op:
        op = Op(name=name, call=lambda: run_cli(argv), check=check, files=files)
        self.ops.append(op)
        return op

    # --- check data -----------------------------------------------------

    def prepare(self, reference_path: str) -> None:
        """Load this seed's reference values and compute the check data.

        Must run before tracing is installed: it calls the program."""
        with open(reference_path) as fh:
            data = json.load(fh)
        if data["offsets"] != OFFSETS:
            raise ValueError("reference.json was made for another number of input sets")
        for op in self.ops:
            if op.ref is not None:
                self.reference[op.ref] = data["ops"][op.ref][str(self.offset)]
        for ref, config in self._mc_checks:
            self.alternatives[ref] = self._exact_double_sums(ref, config)
        for name, (f, theta, p, eps) in self._hajlasz_inputs.items():
            inst = hajlasz.HajlaszInstance(f, theta, p, eps)
            self.oracles[name] = hajlasz.hajlasz_oracle(inst, HAJLASZ_ORACLE_RESOLUTION)
        for name, (K, depth) in self._generated.items():
            f = generate("iid-uniform", K=K, depth=depth, seed=self.offset)
            self._expected_values[name] = f.values.tolist()
        if self._mc_checks:
            self._check_exact_double_sum()

    def _exact_double_sums(self, ref, config) -> dict:
        """Per Monte Carlo row, the exact p = 2 double sum and its ratio to
        the dyadic energy, accepted beside the frozen Monte Carlo values."""
        cfg = load_config(config)
        if cfg.p != 2.0:
            raise ValueError("the exact double sum here is for p = 2 only")
        out = {}
        for key, row in self.reference[ref].items():
            depth = int(row["depth"])
            if cfg.K ** (2 * depth) <= cfg.pair_budget:
                continue
            f = generate(
                row["family"],
                K=cfg.K,
                depth=depth,
                seed=int(row["seed"]),
                epsilon=cfg.epsilon,
                theta=cfg.resolved_theta,
            )
            exact = checks.exact_double_sum_p2(
                f.values, cfg.K, depth, cfg.resolved_theta, cfg.epsilon
            )
            out[key] = {
                "double_integral": exact,
                "double_vs_dyadic": exact / row["dyadic_energy"],
            }
        return out

    def _check_exact_double_sum(self) -> None:
        """The linear-time double sum must match the program's enumeration."""
        cfg = load_config()
        params = EnergyParams(theta=cfg.resolved_theta, p=2.0, epsilon=cfg.epsilon)
        for depth in (5, 7):
            f = generate("iid-uniform", K=2, depth=depth, seed=self.offset)
            want = double_integral_energy(f, params)
            got = checks.exact_double_sum_p2(f.values, 2, depth, params.theta, params.epsilon)
            if abs(got - want) > 1e-15 * abs(want):
                self.errors.append(
                    f"exact double sum {got!r} != enumeration {want!r} at depth {depth}"
                )


def _hajlasz_call(f, theta, p, eps):
    inst = hajlasz.HajlaszInstance(f, theta, p, eps)
    return inst, hajlasz.hajlasz_minimize(inst)


def _same_bytes(path_a, path_b) -> str | None:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() != fb.read():
            return f"{os.path.basename(path_a)} differs from {os.path.basename(path_b)}"
    return None
