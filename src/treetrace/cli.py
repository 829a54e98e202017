"""Command-line front end.

Subcommands: gen (sample a function family to CSV), energy (norms and
energies of a boundary function), extend / trace (apply the operators to
CSV data), and verify (run one of the empirical checks).  Geometry,
exponents and the family come from a flat key-value config file,
overridable with --seed / --depth / --family (gen samples iid-uniform
where neither sets a family); where the output goes comes from the
command line alone (--out, --emit-plot-data).

Exit codes: 0 when the command succeeds (for verify: every asserted
property holds), 1 when verify finds a property that fails, 2 on bad
input or an error inside a computation (a failed allocation too),
reported as one `treetrace: error: ...` line on standard error.  If the
reader of standard output has gone (`| head`), the rest of the output is
dropped and the command runs on: its files are written and its exit code
stands.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .boundary_norms import (
    BoundaryFunction,
    dyadic_energy,
    dyadic_orlicz_modular,
    lp_norm,
    orlicz_besov_norm,
    orlicz_norm,
)
from .harness import (
    BOUNDARY_FAMILIES,
    TREE_FAMILIES,
    _write_rows_csv,
    generate,  # unused here, but the benchmark's tracer wraps cli.generate
    generate_for,
    load_config,
    verify_ahlfors,
    verify_doubling,
    verify_equivalences,
    verify_extension_bound,
    verify_roundtrip,
    verify_trace_bound,
)
from .operators import extend, trace
from .tree_norms import TreeFunction

_VERIFY_DRIVERS = {
    "trace-bound": verify_trace_bound,
    "extension-bound": verify_extension_bound,
    "equivalence": verify_equivalences,
    "roundtrip": verify_roundtrip,
    "doubling": verify_doubling,
    "ahlfors": verify_ahlfors,
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Building it takes
    over ten times as long as a parse (most of a millisecond), so a
    process that calls `main` many times, as the tests and the benchmark
    do, pays for it once; a shell run of `treetrace` builds it once either
    way.  Parsing keeps no state in the parser, so every call reads its
    arguments as a fresh process would."""
    parser = argparse.ArgumentParser(
        prog="treetrace",
        description="dyadic norms and trace/extension operators on truncated regular trees",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--seed", type=int, help="replace the seed list with one seed")
    common.add_argument("--depth", type=int, help="replace the depth list with one depth")
    common.add_argument("--out", help="output path")
    common.add_argument(
        "--emit-plot-data",
        action="store_true",
        help="also write (depth, ratio) series next to the report (ratio checks only)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common], help="sample a function family to CSV")
    p_gen.add_argument(
        "--family",
        choices=BOUNDARY_FAMILIES + TREE_FAMILIES,
        help="function family (default: the config's family, else iid-uniform)",
    )

    p_energy = sub.add_parser(
        "energy", parents=[common], help="norms and energies of a boundary function"
    )
    p_energy.add_argument("--input", required=True, help="boundary function CSV")

    p_extend = sub.add_parser(
        "extend", parents=[common], help="extend a boundary function to the tree"
    )
    p_extend.add_argument("--input", required=True, help="boundary function CSV")

    p_trace = sub.add_parser(
        "trace", parents=[common], help="trace a tree function to the boundary"
    )
    p_trace.add_argument("--input", required=True, help="tree function CSV")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run an empirical check"
    )
    p_verify.add_argument("check", choices=sorted(_VERIFY_DRIVERS))
    p_verify.add_argument("--family", help="function family for the sweep")
    return parser


def _config_from_args(args) -> "ExperimentConfig":
    overrides = {}
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.depth is not None:
        overrides["depths"] = (args.depth,)
    if getattr(args, "family", None):
        overrides["family"] = args.family
    return load_config(args.config, **overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = None
    try:
        cfg = _config_from_args(args)
        return _run(args, cfg)
    except (ValueError, OSError, ArithmeticError, RuntimeError) as exc:
        message = str(exc)
    except MemoryError as exc:
        # numpy's message names the size; `gen` samples the first depth
        # and `verify` sweeps up to the largest
        where = ""
        if cfg is not None and args.command in ("gen", "verify"):
            where = f" at depth {cfg.depths[0] if args.command == 'gen' else max(cfg.depths)}"
        message = f"out of memory{where}: {exc}".rstrip(": ")
    print(f"treetrace: error: {message}", file=sys.stderr)
    return 2


def _say(line: str) -> None:
    """Print one line of standard output.  If its reader has gone, point
    standard output at devnull (the Python docs recipe), so that the rest
    of the output and the flush at exit are dropped."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def _run(args, cfg) -> int:
    if args.command == "gen":
        seed = cfg.seeds[0]
        depth = cfg.depths[0]
        family = cfg.family or "iid-uniform"
        fn = generate_for(cfg, family, depth, seed)
        out = args.out or "function.csv"
        fn.to_csv(out)
        kind = "tree" if family in TREE_FAMILIES else "boundary"
        _say(f"wrote {kind} function ({family}, seed {seed}, depth {depth}) to {out}")
        return 0

    if args.command == "energy":
        f = BoundaryFunction.from_csv(args.input)
        if f.K != cfg.K:
            # theta and the level weights are resolved from the config's K
            raise ValueError(f"{args.input} has K = {f.K}, the config has K = {cfg.K}")
        ep = cfg.energy_params()
        values = {
            "lp_norm": lp_norm(f, cfg.p),
            "orlicz_norm": orlicz_norm(f, ep.phi),
            "dyadic_energy": dyadic_energy(f, ep),
            "dyadic_orlicz_modular": dyadic_orlicz_modular(f, ep),
            "orlicz_besov_norm": orlicz_besov_norm(f, ep),
        }
        for key, val in values.items():
            _say(f"{key} = {val:.12g}")
        if args.out:
            _write_rows_csv(args.out, [{"quantity": k, "value": v} for k, v in values.items()])
        return 0

    if args.command == "extend":
        u = BoundaryFunction.from_csv(args.input)
        out = args.out or "extension.csv"
        extend(u).to_csv(out)
        _say(f"wrote extension to {out}")
        return 0

    if args.command == "trace":
        F = TreeFunction.from_csv(args.input)
        out = args.out or "trace.csv"
        trace(F).to_csv(out)
        _say(f"wrote trace to {out}")
        return 0

    # verify
    report = _VERIFY_DRIVERS[args.check](cfg)
    for line in report.summary_lines():
        _say(line)
    if args.out:
        report.to_csv(args.out)
        _say(f"wrote report rows to {args.out}")
    # neither skip is an error: a command line shared by several checks may
    # pass the flag
    if args.emit_plot_data and not hasattr(report, "plot_data"):
        _say(f"verify {args.check} writes no plot data: emit_plot_data ignored")
    elif args.emit_plot_data and not args.out:
        _say(f"verify {args.check} writes plot data next to --out: none written")
    elif args.emit_plot_data:
        report.plot_data(args.out + ".plot.csv")
        _say(f"wrote plot data to {args.out}.plot.csv")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
