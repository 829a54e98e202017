"""Dyadic cells on the Cantor-type boundary of a regular K-ary tree.

The boundary points are the infinite rays from the root; the cell of a
vertex collects all rays through it, so level-n cells partition the
boundary into K^n congruent pieces.  Cell mass is split equally among the
K children (mass K^(-n) at level n), and two cells at the same level are
at ultrametric distance (2/epsilon) * e^(-epsilon*k) where k is the
length of their common address prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .address import digits_index, index_digits
from .tree import TreeParams

__all__ = [
    "DyadicCell",
    "BoundaryMeasure",
    "cell_parent",
    "cell_children",
    "split_level",
    "boundary_distance",
    "ahlfors_ratio",
    "leaf_cell",
    "leaf_index",
]


@dataclass(frozen=True)
class DyadicCell:
    """A boundary cell, addressed by the digit path of its vertex."""

    K: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError("K must be at least 2")
        digits = tuple(int(d) for d in self.digits)
        object.__setattr__(self, "digits", digits)
        for d in digits:
            if not 0 <= d < self.K:
                raise ValueError(f"digit {d} out of range for K={self.K}")

    @property
    def level(self) -> int:
        return len(self.digits)

    @property
    def measure(self) -> float:
        return float(self.K) ** -self.level

    @property
    def measure_exact(self) -> Fraction:
        return Fraction(1, self.K**self.level)

    def address_string(self) -> str:
        if self.K > 10:
            raise ValueError("digit-string addresses support K <= 10 only")
        return "".join(str(d) for d in self.digits)


@dataclass(frozen=True)
class BoundaryMeasure:
    """The uniform cell measure: total mass 1, each child gets a K-th."""

    K: int

    @property
    def total(self) -> float:
        return 1.0

    def cell_mass(self, level: int) -> float:
        return float(self.K) ** -level

    def of(self, cell: DyadicCell) -> float:
        if cell.K != self.K:
            raise ValueError("cell branching factor does not match measure")
        return self.cell_mass(cell.level)


def cell_parent(cell: DyadicCell) -> DyadicCell:
    if cell.level == 0:
        raise ValueError("root cell has no parent")
    return DyadicCell(cell.K, cell.digits[:-1])


def cell_children(cell: DyadicCell, max_level: int | None = None) -> list[DyadicCell]:
    if max_level is not None and cell.level >= max_level:
        raise ValueError("cell at truncation level has no children")
    return [DyadicCell(cell.K, cell.digits + (d,)) for d in range(cell.K)]


def split_level(a: DyadicCell, b: DyadicCell) -> int:
    """Length of the longest common address prefix of two same-level cells."""
    if a.K != b.K:
        raise ValueError("cells have different branching factors")
    if a.level != b.level:
        raise ValueError("cells must be at the same level")
    if a.digits == b.digits:
        raise ValueError("cells must be distinct")
    k = 0
    for da, db in zip(a.digits, b.digits):
        if da != db:
            break
        k += 1
    return k


def boundary_distance(params: TreeParams, a: DyadicCell, b: DyadicCell) -> float:
    """Ultrametric distance between (points of) two distinct same-level cells."""
    k = split_level(a, b)
    return 2.0 / params.epsilon * math.exp(-params.epsilon * k)


def ahlfors_ratio(params: TreeParams, cell: DyadicCell) -> float:
    """Cell mass divided by (cell diameter scale)^Q; constant for uniform mass."""
    if cell.K != params.K:
        raise ValueError("cell branching factor does not match tree")
    r = 2.0 / params.epsilon * math.exp(-params.epsilon * cell.level)
    return cell.measure / r**params.hausdorff_dim


def leaf_cell(K: int, depth: int, index: int) -> DyadicCell:
    """The depth-level cell with the given lexicographic index."""
    return DyadicCell(K, index_digits(K, depth, index))


def leaf_index(cell: DyadicCell) -> int:
    """Lexicographic index of a cell among the cells of its level."""
    return digits_index(cell.K, cell.digits)
