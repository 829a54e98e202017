"""Vertex addresses of a regular K-ary tree, and the function-CSV codec.

A level-n vertex is addressed by its digit path d_1 .. d_n from the root,
digits in [0, K).  Within a level the vertices are ordered
lexicographically, so the path has flat index sum_j d_j K^(n-j) and the
parent of index i is i // K.  For K <= 10 a path is written as the string
of its digits ("021"); the root's address is the empty string.

A function CSV file holds a `K,N` header, the line `<K>,<N>`, the line
`address,value`, then one `address,value` row per vertex of the levels
first..N: every address exactly once, level by level, lexicographic within
a level.  A boundary function lists the leaves (first = N), a tree
function every level (first = 0).  Values are written with 17 significant
digits, so a file reads back to the written doubles bit for bit.  Files
are written and read in chunks of CHUNK_ROWS rows; the reader compares
each chunk's address column with the canonical addresses, so any other
row order, a short or long address, a bad digit, a duplicate, missing or
extra row, or a file of the other kind is a ValueError naming the first
bad line.  Trailing blank lines are allowed.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

__all__ = [
    "check_digits",
    "digits_index",
    "index_digits",
    "cell_leaves",
    "child_minus_parent",
    "level_digits",
    "level_addresses",
    "write_function_csv",
    "read_function_csv",
]

CHUNK_ROWS = 4096
_ORDER = "rows list each address once, by level, lexicographic within a level"


def check_digits(K: int, digits, max_level: int | None = None) -> tuple[int, ...]:
    """The address as a tuple of ints in [0, K), at most `max_level` long."""
    digits = tuple(int(d) for d in digits)
    if max_level is not None and len(digits) > max_level:
        raise ValueError(f"address {digits} is longer than depth {max_level}")
    for d in digits:
        if not 0 <= d < K:
            raise ValueError(f"digit {d} out of range for K={K}")
    return digits


def digits_index(K: int, digits) -> int:
    """Flat index of an address within its level."""
    idx = 0
    for d in check_digits(K, digits):
        idx = idx * K + d
    return idx


def index_digits(K: int, level: int, index: int) -> tuple[int, ...]:
    """Address of the level-`level` vertex with flat index `index`."""
    if not 0 <= index < K**level:
        raise ValueError(f"index {index} out of range for level {level} and K={K}")
    return tuple(int(d) for d in level_digits(K, level, index, index + 1)[0])


def cell_leaves(K: int, depth: int, digits) -> slice:
    """Leaf indices (level `depth`) below the vertex with the given address."""
    digits = check_digits(K, digits, depth)
    block = K ** (depth - len(digits))
    idx = digits_index(K, digits)
    return slice(idx * block, (idx + 1) * block)


def child_minus_parent(K: int, levels) -> list[np.ndarray]:
    """Per pair of consecutive levels of `levels` (one flat array per
    level, top down): the value of every vertex of the lower level minus
    the value of its parent."""
    return [levels[n] - np.repeat(levels[n - 1], K) for n in range(1, len(levels))]


def level_digits(K: int, level: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, level) array: the digits of flat indices start..stop-1."""
    idx = np.arange(start, stop)
    out = np.empty((idx.size, level), dtype=np.int64)
    for j in range(level - 1, -1, -1):
        idx, out[:, j] = np.divmod(idx, K)
    return out


def _check_k(K: int) -> None:
    if not 2 <= K <= 10:
        raise ValueError(f"digit-string addresses support 2 <= K <= 10 only, got K={K}")


def level_addresses(K: int, level: int, start: int, stop: int) -> list[str]:
    """Address strings of the level-`level` flat indices start..stop-1."""
    _check_k(K)
    # ASCII digits plus a newline per row: one decode and split for the chunk
    block = np.full((stop - start, level + 1), ord("\n"), dtype=np.uint8)
    block[:, :level] = level_digits(K, level, start, stop) + ord("0")
    return block.tobytes().decode("ascii").splitlines()


def write_function_csv(path, K: int, depth: int, levels) -> None:
    """Write the value arrays of levels depth+1-len(levels) .. depth."""
    _check_k(K)
    first = depth + 1 - len(levels)
    with open(path, "w", newline="") as fh:
        fh.write(f"K,N\n{K},{depth}\naddress,value\n")
        for n, values in enumerate(levels, start=first):
            for start in range(0, len(values), CHUNK_ROWS):
                chunk = values[start : start + CHUNK_ROWS].tolist()
                # one %-format per chunk: the bytes of f"{addr},{v:.17g}\n" per row
                fields = [None] * (2 * len(chunk))
                fields[0::2] = level_addresses(K, n, start, start + len(chunk))
                fields[1::2] = chunk
                fh.write(("%s,%.17g\n" * len(chunk)) % tuple(fields))


def read_function_csv(path, leaves_only: bool) -> tuple[int, int, list[np.ndarray]]:
    """(K, N, value arrays) of a function CSV: one array for the leaves when
    `leaves_only`, else one per level 0..N."""
    with open(path) as fh:
        K, depth = _read_header([fh.readline().strip() for _ in range(3)])
        line = 4
        levels = []
        for n in range(depth if leaves_only else 0, depth + 1):
            parts = []
            for start in range(0, K**n, CHUNK_ROWS):
                want = level_addresses(K, n, start, min(start + CHUNK_ROWS, K**n))
                parts.append(_read_rows(fh, want, line))
                line += len(want)
            levels.append(np.concatenate(parts))
        for at, row in enumerate(fh, start=line):
            if row.strip():
                raise ValueError(f"line {at}: extra row {row.strip()!r} after the last address")
    return K, depth, levels


def _read_header(lines: list[str]) -> tuple[int, int]:
    if lines[0] != "K,N":
        raise ValueError(f"line 1: expected the header 'K,N', got {lines[0]!r}")
    try:
        K, depth = (int(s) for s in lines[1].split(","))
    except ValueError:
        raise ValueError(f"line 2: expected '<K>,<N>', got {lines[1]!r}") from None
    _check_k(K)
    if not 1 <= depth <= 62 or K**depth > 2**62:
        raise ValueError(f"line 2: depth {depth} out of range for K={K}")
    if lines[2] != "address,value":
        raise ValueError(f"line 3: expected the header 'address,value', got {lines[2]!r}")
    return K, depth


def _read_rows(fh, want: list[str], line: int) -> np.ndarray:
    """Values of the next len(want) rows, whose addresses must be `want`."""
    rows = list(islice(fh, len(want)))
    fields = ",".join(rows).split(",")
    if len(rows) == len(want) and len(fields) == 2 * len(rows) and fields[0::2] == want:
        try:
            values = np.array(fields[1::2], dtype=float)
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return values
    raise ValueError(_first_bad_row(rows, want, line))


def _first_bad_row(rows: list[str], want: list[str], line: int) -> str:
    for i, addr in enumerate(want):
        if i == len(rows):
            return f"line {line + i}: the file ends before the row of address {addr!r}"
        row = rows[i].rstrip("\n")
        got, _, value = row.partition(",")
        if "," not in row or "," in value:
            return f"line {line + i}: expected 'address,value', got {row!r}"
        if got != addr:
            return f"line {line + i}: expected address {addr!r}, got {got!r}; {_ORDER}"
        try:
            if math.isfinite(float(value)):
                continue
        except ValueError:
            pass
        return f"line {line + i}: value {value!r} is not a finite number"
    return f"lines {line}..{line + len(want) - 1}: malformed rows"
