"""Vertex addresses of a regular K-ary tree, the level-order layout of
arrays over its vertices, and the function-CSV codec.

A level-n vertex is addressed by its digit path d_1 .. d_n from the root,
digits in [0, K).  Within a level the vertices are ordered
lexicographically, so the path has flat index sum_j d_j K^(n-j) and the
parent of index i is i // K.  For K <= 10 a path is written as the string
of its digits ("021"); the root's address is the empty string.

An array over the vertices of levels 0..N is stored in level order, the
levels one after another, so that level n is `level_slice(K, n)` and
vertex i has the children K i + 1 .. K i + K.  Only this module relies on
that layout.  `parents_and_children` views an array as its internal
vertices and an (internal vertices, K) array of edges, row i the children
of vertex i, so the edges from level n to level n + 1 are its rows
`level_slice(K, n)`; `child_minus_parent` takes their difference and
`child_sums` the sums of a level's runs of K children.

Both run along long strides, one numpy call per child position:
`child_minus_parent` is K strided subtractions, and `child_sums` adds each
parent's children in child order from +0.0 by K strided adds, bit for bit
numpy's `reshape(-1, K).sum(axis=1)` for K <= 7; from K = 8, where numpy
sums a row in 8 partial sums, it makes that call.

A function CSV file holds a `K,N` header, the line `<K>,<N>`, the line
`address,value`, then one `address,value` row per vertex of the levels
first..N: every address exactly once, level by level, lexicographic within
a level.  A boundary function lists the leaves (first = N), a tree
function every level (first = 0).  Values are written with 17 significant
digits, so a file reads back to the written doubles bit for bit.  Trailing
blank lines are allowed.

Files are written and read in chunks of K^m rows, K^m the largest power
of K that is at most CHUNK_ROWS; a level with fewer rows is one chunk.
Chunk c of level n >= m then holds the addresses prefix + s, the prefix
the (n - m)-digit address of c and s running over the m-digit suffixes
in order, the same for every chunk.  Each read or write builds that
suffix table once (`_chunks`); the writer joins it, with ",%.17g\n" after
each suffix, around a chunk's prefix into one format string, and the
reader joins it, with ",", to compare a chunk's whole address column in
one string comparison.  Any other row order, a short or long address, a
bad digit, a duplicate, missing or extra row, or a file of the other
kind is a ValueError naming the first bad line.
"""

from __future__ import annotations

import math
import os
from itertools import islice

import numpy as np

from .young import _in_domain

__all__ = [
    "check_digits",
    "digits_index",
    "index_digits",
    "cell_leaves",
    "level_slice",
    "parents_and_children",
    "child_minus_parent",
    "child_sums",
    "function_values",
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


def level_slice(K: int, n: int) -> slice:
    """The entries of level n in a level-order array."""
    start = (K**n - 1) // (K - 1)
    return slice(start, start + K**n)


def parents_and_children(K: int, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of a level-order array: its internal vertices, and the
    (internal vertices, K) array whose row i holds the children of vertex i."""
    internal = (values.size - 1) // K
    return values[:internal], values[1:].reshape(internal, K)


def child_minus_parent(K: int, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(internal vertices, K) array of a level-order array: row i holds the
    values of the children of vertex i minus the value of vertex i.  Written
    to `out` when given, which must not overlap `values`."""
    parents, children = parents_and_children(K, values)
    if out is None:
        out = np.empty(children.shape)
    for j in range(K):
        np.subtract(children[:, j], parents, out=out[:, j])
    return out


def child_sums(K: int, below: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of K entries of a flat array (a level's
    values: the sums of each parent's children), bit for bit
    `below.reshape(-1, K).sum(axis=1)`."""
    if K >= 8:
        return below.reshape(-1, K).sum(axis=1)
    sums = np.zeros(below.size // K)
    for j in range(K):
        sums += below[j::K]
    return sums


def function_values(K: int, depth: int, values, first: int) -> np.ndarray:
    """`values` as a float array (taken over if it is one), checked to be finite
    values in level order on the levels first..depth of a K-ary tree."""
    _in_domain(K=K, depth=depth)
    values = np.asarray(values, dtype=float)
    size = level_slice(K, depth).stop - level_slice(K, first).start
    if values.shape != (size,):
        raise ValueError(f"expected {size} values on levels {first}..{depth}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("function values must be finite")
    return values


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


def write_function_csv(path, K: int, depth: int, values: np.ndarray, first: int) -> None:
    """Write the level-order values of the levels first..depth."""
    _check_k(K)
    offset = level_slice(K, first).start
    with open(path, "w", newline="") as fh:
        fh.write(f"K,N\n{K},{depth}\naddress,value\n")
        for n, start, prefix, rows in _chunks(K, first, depth, ",%.17g\n"):
            start += level_slice(K, n).start - offset
            # the addresses are in the format: one %-format per chunk
            fh.write(prefix.join(rows) % tuple(values[start : start + len(rows) - 1].tolist()))


def read_function_csv(path, leaves_only: bool) -> tuple[int, int, np.ndarray]:
    """(K, N, values) of a function CSV: the leaf values when `leaves_only`,
    else the level-order values of the levels 0..N."""
    with open(path) as fh:
        size = os.fstat(fh.fileno()).st_size
        K, depth = _read_header([fh.readline().strip() for _ in range(3)])
        line = 4
        # Each level is allocated once the rows above it are read, and only
        # if the file can hold its rows, n digits, a comma and a value each:
        # the rows of a level it cannot hold are checked without being
        # stored, and fail.
        levels = []
        for n, start, prefix, rows in _chunks(K, depth if leaves_only else 0, depth, ","):
            if start == 0:
                levels.append(np.empty(K**n) if K**n * (n + 2) <= size else None)
            values = _read_rows(fh, prefix, rows, line)
            if levels[-1] is not None:
                levels[-1][start : start + len(rows) - 1] = values
            line += len(rows) - 1
        for at, row in enumerate(fh, start=line):
            if row.strip():
                raise ValueError(f"line {at}: extra row {row.strip()!r} after the last address")
    return K, depth, levels[0] if leaves_only else np.concatenate(levels)


def _chunks(K: int, first: int, depth: int, tail: str):
    """The chunks of the levels first..depth in file order, each as (level,
    index of its first row, prefix, rows): prefix.join(rows) spells the
    chunk's addresses, each followed by `tail`.

    A chunk of level n is K^min(n, m) rows, K^m the largest power of K that
    is at most CHUNK_ROWS, so its addresses are prefix + s, the prefix the
    address of the chunk's index on level n - min(n, m) and s running over
    the suffixes of length min(n, m); rows is ["", s + tail per suffix].
    The rows of each suffix length are built once per call."""
    m = 0
    while K ** (m + 1) <= CHUNK_ROWS:
        m += 1
    tables = {}
    for n in range(first, depth + 1):
        j = min(n, m)
        if j not in tables:
            tables[j] = ["", *(s + tail for s in level_addresses(K, j, 0, K**j))]
        for c in range(K ** (n - j)):
            yield n, c * K**j, level_addresses(K, n - j, c, c + 1)[0], tables[j]


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


def _read_rows(fh, prefix: str, rows: list[str], line: int) -> np.ndarray:
    """Values of the next len(rows) - 1 rows, whose address column must be
    prefix.join(rows) with the tail "," (see `_chunks`)."""
    got = list(islice(fh, len(rows) - 1))
    fields = ",".join(got).split(",")
    # once the counts match no field holds a comma: one string comparison
    # then checks every address
    if (
        len(got) == len(rows) - 1
        and len(fields) == 2 * len(got)
        and ",".join(fields[0::2]) + "," == prefix.join(rows)
    ):
        try:
            values = np.array(fields[1::2], dtype=float)
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return values
    raise ValueError(_first_bad_row(got, [prefix + s[:-1] for s in rows[1:]], line))


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
