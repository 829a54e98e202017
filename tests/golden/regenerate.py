"""Regenerate the golden outputs that tests/test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each case runs one `treetrace verify` command in an empty directory, with
`--out report.csv` and, where the case has one, a config file.  Its
standard output and every file it writes go to tests/golden/<case>/.  A
change that moves a number in these outputs regenerates them and says so.

The cases:
* the six verify drivers at the default config; the three ratio checks
  also write their plot data (`--emit-plot-data`);
* `equivalence` at lambda1 = 1;
* `trace-bound` and `extension-bound` at lambda1 = 1, depths 12,14,16,
  seeds 0 and 1 only, to keep the test short.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

from treetrace import cli

GOLDEN = Path(__file__).resolve().parent
REPORT = "report.csv"
STDOUT = "stdout.txt"
CONFIG = "config.cfg"

_LAMBDA1 = "lambda1 = 1\n"
_DEEP = "lambda1 = 1\ndepths = 12,14,16\nseeds = 0,1\n"

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


def main() -> int:
    for case in CASES:
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in run(case, Path(tmp)).items():
                (target / name).write_text(text)
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
