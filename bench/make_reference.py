"""Freeze the program's outputs as the benchmark's reference values.

Run from the root of a source checkout, at the commit whose outputs are
taken as correct:

    PYTHONPATH=src python3 bench/make_reference.py

It runs every operation once for each of the workloads' input sets and writes bench/reference.json.  An operation that
fails today as a documented defect is replaced by `ref_call`, a variant
that runs, with the columns that differ dropped.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ops: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=".") as run_dir:
        for name in workloads.WORKLOADS:
            for offset in range(workloads.OFFSETS):
                workload = workloads.Workload(name, offset, run_dir)
                for op in workload.ops:
                    if op.ref is None:
                        if op.known is None:
                            op.call()  # later operations read its output
                        continue
                    rc, _text = (op.ref_call or op.call)()
                    if rc not in ((0, 1) if op.ref_call else (0,)):
                        raise RuntimeError(f"{op.ref} exited with {rc}")
                    rows = op.read()
                    for row in rows.values():
                        for col in op.ref_drop:
                            row.pop(col, None)
                    ops.setdefault(op.ref, {})[str(offset)] = rows
                    print(f"{op.ref} input set {offset}: {len(rows)} rows", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"offsets": workloads.OFFSETS, "ops": ops}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
