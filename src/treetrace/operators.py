"""Trace and extension operators between tree functions and boundary functions.

The trace of a tree function at resolution N reads its level-N vertex
values (the finite-depth stand-in for the limit along each ray); the
extension of a boundary function assigns every vertex the average of the
datum over its cell.  Extensions are constant below the data resolution,
so trace-after-extend is the exact identity.
"""

from __future__ import annotations

import numpy as np

from .address import check_digits, digits_index, level_slice
from .boundary_norms import BoundaryFunction
from .tree_norms import TreeFunction

__all__ = ["trace", "extend", "star_majorant"]


def trace(F: TreeFunction) -> BoundaryFunction:
    """Boundary function whose value on a leaf cell is the deepest vertex value."""
    return BoundaryFunction(F.K, F.depth, F.values[level_slice(F.K, F.depth)].copy())


def extend(u: BoundaryFunction) -> TreeFunction:
    """Tree function whose vertex values are the cell averages of u."""
    return TreeFunction(u.K, u.depth, u.level_averages())


def star_majorant(F: TreeFunction, leaf_digits) -> float:
    """|F(root)| plus the total variation of F along the ancestor chain of a leaf.

    Equals the arclength integral of the per-edge gradient along that ray
    and dominates |trace(F)| at the leaf.  Diagnostic only.
    """
    digits = check_digits(F.K, leaf_digits)
    if len(digits) != F.depth:
        raise ValueError("leaf address must have length equal to the depth")
    K, N, leaf = F.K, F.depth, digits_index(F.K, digits)
    chain = np.array([F.values[level_slice(K, n)][leaf // K ** (N - n)] for n in range(N + 1)])
    return abs(chain[0]) + float(np.sum(np.abs(np.diff(chain))))
