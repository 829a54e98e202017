"""Output checks: report and quantity CSVs against frozen reference values,
and an exact double sum computed here, independently of the program.

Reference values are the program's own outputs, frozen in
`reference.json` by `make_reference.py`.  Numbers compare at 1e-9
relative: the gauge solver brackets its root to 1e-10, so a solver that
reaches the same root differently still passes.
"""

from __future__ import annotations

import csv
import math

import numpy as np

RTOL = 1e-9
LEAD_COLUMNS = ("seed", "depth", "family")


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def read_report(path) -> dict[str, dict]:
    """Rows of a report CSV keyed by "seed|depth|family"."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        "|".join(row.get(c) or "" for c in LEAD_COLUMNS): {
            col: _cell(text) for col, text in row.items()
        }
        for row in rows
    }


def read_quantities(path) -> dict[str, dict]:
    """The `quantity,value` CSV that `treetrace energy --out` writes."""
    with open(path, newline="") as fh:
        return {"": {row["quantity"]: float(row["value"]) for row in csv.DictReader(fh)}}


def read_function_values(path) -> list[float]:
    """Values of a function CSV (`K,N` header, then `address,value` rows), in file order."""
    with open(path) as fh:
        rows = fh.read().split("\n")[3:]
    return [float(row.partition(",")[2]) for row in rows if row]


def same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))
    return a == b


def compare(got: dict, want: dict, alternatives: dict | None = None) -> str | None:
    """None if every reference row and column is reproduced, else the first
    mismatch.  Columns the reference lacks are ignored.  `alternatives`
    maps row key -> column -> a second accepted value."""
    alternatives = alternatives or {}
    extra = sorted(set(got) - set(want))
    if extra:
        return f"unexpected rows {extra[:3]}"
    for key, ref_row in want.items():
        row = got.get(key)
        if row is None:
            return f"missing row {key!r}"
        for col, ref in ref_row.items():
            if col not in row:
                return f"missing column {col!r}"
            value = row[col]
            if same(value, ref):
                continue
            alt = alternatives.get(key, {}).get(col)
            if alt is not None and same(value, alt):
                continue
            return f"row {key!r} column {col!r}: {value!r} != reference {ref!r}"
    return None


def exact_double_sum_p2(values, K: int, depth: int, theta: float, epsilon: float) -> float:
    """The double-sum fractional seminorm at p = 2, in linear time.

    Uses the per-block identity sum_{i,j} (x_i - x_j)^2 = 2m sum x^2 - 2 (sum x)^2
    for a block of m leaves, with the same split-level weights as the
    program's exact enumeration.
    """
    x = np.asarray(values, dtype=float)

    def block_pair_sums(n):
        blocks = x.reshape(K**n, K ** (depth - n))
        m = blocks.shape[1]
        return 2.0 * m * (blocks * blocks).sum(axis=1) - 2.0 * blocks.sum(axis=1) ** 2

    total = 0.0
    for n in range(depth):
        cross = block_pair_sums(n) - block_pair_sums(n + 1).reshape(-1, K).sum(axis=1)
        d = 2.0 / epsilon * math.exp(-epsilon * n)
        total += float(K) ** (n - 2 * depth) / d ** (theta * 2.0) * float(cross.sum())
    return total
