"""Trace and extension operators between tree functions and boundary functions.

The trace of a tree function at resolution N reads its level-N vertex
values (the finite-depth stand-in for the limit along each ray); the
extension of a boundary function assigns every vertex the average of the
datum over its cell.  Extensions are constant below the data resolution,
so trace-after-extend is the exact identity.
"""

from __future__ import annotations

from .address import level_slice
from .boundary_norms import BoundaryFunction
from .tree_norms import TreeFunction

__all__ = ["trace", "extend"]


def trace(F: TreeFunction) -> BoundaryFunction:
    """Boundary function whose value on a leaf cell is the deepest vertex value."""
    return BoundaryFunction(F.K, F.depth, F.values[level_slice(F.K, F.depth)].copy())


def extend(u: BoundaryFunction) -> TreeFunction:
    """Tree function whose vertex values are the cell averages of u."""
    return TreeFunction(u.K, u.depth, u.level_averages())
