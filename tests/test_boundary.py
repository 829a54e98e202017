"""Cells, masses, split levels and split distances of the dyadic boundary.

A boundary cell is the set of leaves below a vertex address; its mass is
its share of the K^depth leaves, cell_leaves gives its leaf block, and the
split distance of two leaves depends only on the level where their
addresses first differ.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from treetrace import (
    BoundaryFunction,
    ahlfors_ratio,
    TreeParams,
    lp_norm,
    split_distances,
)
from treetrace.address import (
    cell_leaves,
    check_digits,
    digits_index,
    index_digits,
    level_addresses,
)
from treetrace.tree import _arc_below

LN2 = math.log(2.0)


def params(K=2, epsilon=LN2, depth=8):
    return TreeParams(K, epsilon, 2 * math.log(max(K, 2)) + 0.5, 0.0, depth)


def mass(K, depth, digits):
    """Exact uniform mass of a cell: its share of the leaves."""
    block = cell_leaves(K, depth, digits)
    return Fraction(block.stop - block.start, K**depth)


def children(K, digits):
    return [tuple(digits) + (d,) for d in range(K)]


def test_parent_drops_last_digit():
    # the parent of flat index i is i // K, the address without its last digit
    for K, depth in ((2, 4), (3, 3)):
        for i in range(K**depth):
            digits = index_digits(K, depth, i)
            assert digits_index(K, digits[:-1]) == i // K
            parent, leaf = cell_leaves(K, depth, digits[:-1]), cell_leaves(K, depth, digits)
            assert parent.start <= leaf.start < leaf.stop <= parent.stop
    assert index_digits(2, 1, digits_index(2, (0, 1)) // 2) == (0,)


def test_children_enumeration_and_truncation():
    depth = 2
    root = cell_leaves(2, depth, ())
    blocks = [cell_leaves(2, depth, c) for c in children(2, ())]
    assert children(2, ()) == [(0,), (1,)]
    assert blocks == [slice(0, 2), slice(2, 4)]
    assert blocks[0].start == root.start and blocks[-1].stop == root.stop
    # a leaf has no children inside a tree of depth 2
    with pytest.raises(ValueError):
        cell_leaves(2, depth, (0, 1, 0))


def test_cell_measure_relations():
    depth = 4
    child = (0, 2)
    assert mass(3, depth, child[:-1]) == 3 * mass(3, depth, child)
    assert mass(3, depth, child) == Fraction(1, 9)
    # the mass in the Ahlfors ratio is the same K^-n
    p = params(K=3, depth=depth)
    r = split_distances(p.epsilon, depth + 1)[len(child)]
    assert ahlfors_ratio(p, len(child)) * r**p.hausdorff_dim == pytest.approx(
        float(mass(3, depth, child)), rel=1e-12
    )


def test_measure_additivity_exact_rationals():
    depth = 3
    for K in (2, 3):
        for digits in ((), (0,), (K - 1, 0)):
            kids = children(K, digits)
            assert sum(mass(K, depth, c) for c in kids) == mass(K, depth, digits)


def test_boundary_measure_total_and_cells():
    depth = 3
    one = BoundaryFunction(2, depth, np.ones(2**depth))
    assert lp_norm(one, 1.0) == 1.0
    assert mass(2, depth, ()) == 1
    values = np.zeros(2**depth)
    values[cell_leaves(2, depth, (0, 1, 1))] = 1.0
    indicator = BoundaryFunction(2, depth, values)
    assert lp_norm(indicator, 1.0) == pytest.approx(0.125)
    assert mass(2, depth, (0, 1, 1)) == Fraction(1, 8)
    # an address of a ternary tree is no cell of the binary one
    with pytest.raises(ValueError):
        cell_leaves(2, depth, (2,))
    with pytest.raises(ValueError):
        cell_leaves(2, depth, (0, 2))


def test_split_level_values_and_errors():
    # two leaves splitting at level k are 2 (arclength(N) - arclength(k))
    # apart in the tree; split_distances[k] adds the two rays below them
    p = params(depth=3)
    d = split_distances(p.epsilon, 3)
    rays = 2.0 * (1.0 / p.epsilon - _arc_below(p.epsilon, 0, 3))

    def split_level(a, b):
        a, b = check_digits(2, a, 3), check_digits(2, b, 3)
        return next((k for k in range(3) if a[k] != b[k]), 3)

    assert split_level((0, 0, 0), (0, 1, 0)) == 1
    assert split_level((0, 1, 0), (1, 1, 0)) == 0
    assert split_level((0, 1, 0), (0, 1, 1)) == 2
    assert split_level((0, 1, 1), (0, 1, 1)) == 3
    for k in range(3):
        at_split = 2.0 * (_arc_below(p.epsilon, 0, 3) - _arc_below(p.epsilon, 0, k))
        assert d[k] - rays == pytest.approx(at_split, rel=1e-12)
    with pytest.raises(ValueError):
        split_level((0, 2, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        split_level((0, 1, 0, 1), (0, 1, 0))


def test_boundary_distance_values():
    p = params()
    d = split_distances(p.epsilon, p.depth)
    assert d[1] == pytest.approx(1.0 / LN2, rel=1e-12)  # split level 1
    assert d[0] == pytest.approx(p.diameter, rel=1e-12)  # split level 0
    # the boundary distance is the leaves' tree distance plus the two rays
    # below the leaves, each 1/epsilon - arclength(depth) long
    rays = 2.0 * (1.0 / p.epsilon - _arc_below(p.epsilon, 0, p.depth))
    # split at level 1
    leaves = 2.0 * (_arc_below(p.epsilon, 0, p.depth) - _arc_below(p.epsilon, 0, 1))
    assert d[1] == pytest.approx(leaves + rays, rel=1e-12)


def test_leaf_cell_roundtrip_and_serialization():
    for K, depth in ((2, 5), (3, 4)):
        for i in range(K**depth):
            digits = index_digits(K, depth, i)
            assert digits_index(K, digits) == i
            assert cell_leaves(K, depth, digits) == slice(i, i + 1)
    assert level_addresses(3, 3, 7, 8) == ["021"]
