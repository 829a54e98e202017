"""Regenerate the golden outputs that tests/test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py [--check] [case ...]

Each case runs one `treetrace verify` command in an empty directory, with
`--out report.csv` and, where the case has one, a config file.  Its
standard output and every file it writes go to tests/golden/<case>/.  A
change that moves a number in these outputs regenerates them and says so:
for each case the script prints the largest relative change of any number
against the files it replaces.  Named cases are the only ones run (all of
them by default), and `--check` prints each one's largest change and
writes nothing; it exits 1 when any case's outputs differ from its files
in any byte, and 0 only when every output is identical.

The cases:
* the six verify drivers at the default config; the three ratio checks
  also write their plot data (`--emit-plot-data`);
* `equivalence` at lambda1 = 1;
* `trace-bound` and `extension-bound` at lambda1 = 1, depths 12,14,16,
  seeds 0 and 1 only, to keep the test short;
* `equivalence` at lambda1 = 1, depths 6,8, hajlasz_max_depth = 8, seeds
  0 and 1: its depth-8 Hajlasz blocks take the dense dual-ascent form,
  which the default sweep never reaches;
* `trace-bound` at p = 1.5, lambda1 = 2, depths 8,10, seeds 0 and 1: the
  modular pass at a lambda1 other than 0 and 1, and at a p other than 2;
* `extension-bound` at p = 3, lambda1 = -1, depths 8,10, seeds 0 and 1:
  the modular pass at a negative lambda1;
* `equivalence` at p = 1.5, depths 4,6, hajlasz_max_depth = 6, seeds 0
  and 1: the Hajlasz program's interior-point method, which no p = 2
  case runs;
* `trace-bound` and `extension-bound` at lambda2 = 2, depths 4,6, seeds 0
  and 1: the boundary level weight (n + C)^lambda2 and the tree's mass
  density (t + C)^lambda2, which every other case takes at lambda2 = 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

from treetrace import cli

GOLDEN = Path(__file__).resolve().parent
REPORT = "report.csv"
STDOUT = "stdout.txt"
CONFIG = "config.cfg"
# a number in an output, as tests/test_golden.py compares them
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:nan|inf)\b")

_LAMBDA1 = "lambda1 = 1\n"
_DEEP = "lambda1 = 1\ndepths = 12,14,16\nseeds = 0,1\n"
_DENSE = "lambda1 = 1\ndepths = 6,8\nhajlasz_max_depth = 8\nseeds = 0,1\n"
_P15_LAMBDA2 = "p = 1.5\nlambda1 = 2\ndepths = 8,10\nseeds = 0,1\n"
_P3_LAMBDA_MINUS1 = "p = 3\nlambda1 = -1\ndepths = 8,10\nseeds = 0,1\n"
_P15_HAJLASZ = "p = 1.5\ndepths = 4,6\nhajlasz_max_depth = 6\nseeds = 0,1\n"
_LAMBDA2 = "lambda2 = 2\ndepths = 4,6\nseeds = 0,1\n"

# case -> (config file text or None, the arguments after `treetrace verify`)
CASES = {
    "trace-bound": (None, ["trace-bound", "--emit-plot-data"]),
    "extension-bound": (None, ["extension-bound", "--emit-plot-data"]),
    "equivalence": (None, ["equivalence", "--emit-plot-data"]),
    "roundtrip": (None, ["roundtrip"]),
    "doubling": (None, ["doubling"]),
    "ahlfors": (None, ["ahlfors"]),
    "equivalence-lambda1": (_LAMBDA1, ["equivalence"]),
    "trace-bound-deep": (_DEEP, ["trace-bound"]),
    "extension-bound-deep": (_DEEP, ["extension-bound"]),
    "equivalence-dense": (_DENSE, ["equivalence"]),
    "trace-bound-p1.5-lambda2": (_P15_LAMBDA2, ["trace-bound"]),
    "extension-bound-p3-lambda-minus1": (_P3_LAMBDA_MINUS1, ["extension-bound"]),
    "equivalence-p1.5": (_P15_HAJLASZ, ["equivalence"]),
    "trace-bound-lambda2-2": (_LAMBDA2, ["trace-bound"]),
    "extension-bound-lambda2-2": (_LAMBDA2, ["extension-bound"]),
}


def run(case: str, workdir: Path) -> dict[str, str]:
    """Run `case` in the empty directory `workdir`; return its outputs as
    {file name: text}, standard output under STDOUT."""
    config, args = CASES[case]
    argv = ["verify", *args, "--out", REPORT]
    if config is not None:
        (workdir / CONFIG).write_text(config)
        argv += ["--config", CONFIG]
    out = io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            cli.main(argv)
    finally:
        os.chdir(here)
    outputs = {p.name: p.read_text() for p in workdir.iterdir() if p.name != CONFIG}
    outputs[STDOUT] = out.getvalue()
    return outputs


def relative_change(x: float, y: float) -> float:
    """|x - y| / max(|x|, |y|); 0 for equal numbers or two NaNs, and inf
    where one of them is not finite and they differ."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def largest_change(old: dict[str, str], new: dict[str, str]) -> float | None:
    """The largest relative change of any number from the outputs `old` to
    `new` ({file name: text}); None where they differ in anything else: the
    files, the lines or the text between the numbers."""
    if sorted(old) != sorted(new):
        return None
    largest = 0.0
    for name, text in old.items():
        was, now = text.splitlines(), new[name].splitlines()
        if len(was) != len(now):
            return None
        for w, n in zip(was, now):
            if NUMBER.split(w) != NUMBER.split(n):
                return None
            for x, y in zip(NUMBER.findall(w), NUMBER.findall(n)):
                largest = max(largest, relative_change(float(x), float(y)))
    return largest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden outputs.")
    parser.add_argument("cases", nargs="*", metavar="case", help="the cases to run (default: all)")
    parser.add_argument(
        "--check", action="store_true", help="print each case's largest change and write nothing"
    )
    args = parser.parse_args(argv)
    unknown = [case for case in args.cases if case not in CASES]
    if unknown:
        parser.error(f"unknown case {unknown[0]!r}; the cases are {', '.join(CASES)}")
    identical = True
    for case in args.cases or CASES:
        target = GOLDEN / case
        old = {p.name: p.read_bytes() for p in target.iterdir()} if target.is_dir() else None
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run(case, Path(tmp))
        identical &= old == {name: text.encode() for name, text in outputs.items()}
        if old is None:
            change = "a new case"
        else:
            was = {name: data.decode() for name, data in old.items()}
            largest = largest_change(was, outputs)
            change = "text changed" if largest is None else f"largest relative change {largest:.2g}"
        if not args.check:
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir()
            for name, text in outputs.items():
                (target / name).write_text(text)
        print(f"{'checked' if args.check else 'wrote'} {target}: {change}")
    return 1 if args.check and not identical else 0


if __name__ == "__main__":
    sys.exit(main())
