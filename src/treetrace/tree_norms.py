"""Functions on the truncated tree and their Orlicz-Sobolev norms.

A tree function stores one value per vertex on levels 0..N, in the level
order of `treetrace.address`, and is read as piecewise linear in arclength
along every edge.  For that class the minimal upper gradient is constant
on each edge and equals the difference quotient |F(child) - F(parent)| /
edge_length, so the gradient part of the norm is an exact finite sum
while the function part is a per-edge Gauss-Legendre integral of Phi(|F|)
against the mass density, by the per-level rule of `edge_quadrature`:
`treetrace.tree` owns the edge quadrature.  CSV files list every level's
rows, through the codec in `treetrace.address`.
"""

from __future__ import annotations

import numpy as np

from .address import child_minus_parent, function_values, level_slice, parents_and_children
from .address import read_function_csv, write_function_csv
from .tree import QUAD_ORDER, TreeParams, edge_length, edge_measure, edge_quadrature
from .young import YoungModular, YoungPhi, luxemburg_gauge

__all__ = [
    "TreeFunction",
    "upper_gradient_edges",
    "tree_lphi_modular",
    "gradient_lphi_modular",
    "newtonian_norm",
]


class TreeFunction:
    """Vertex values on levels 0..depth in level order (a float array is taken over)."""

    def __init__(self, K: int, depth: int, values) -> None:
        self.values = function_values(K, depth, values, first=0)
        self.K, self.depth = K, depth

    def to_csv(self, path) -> None:
        write_function_csv(path, self.K, self.depth, self.values, first=0)

    @classmethod
    def from_csv(cls, path) -> "TreeFunction":
        return cls(*read_function_csv(path, leaves_only=False))


def _check_shape(F: TreeFunction, params: TreeParams) -> None:
    if F.K != params.K or F.depth != params.depth:
        raise ValueError("tree function shape does not match tree parameters")


def upper_gradient_edges(F: TreeFunction, params: TreeParams) -> np.ndarray:
    """Per-edge upper gradient of the piecewise-linear interpolant, minimal for
    that class: |F(child) - F(parent)| / edge_length, one row per parent."""
    _check_shape(F, params)
    grads = child_minus_parent(F.K, F.values)
    for n in range(F.depth):
        grads[level_slice(F.K, n)] /= edge_length(params, n)
    return np.abs(grads, out=grads)


def _function_modular(F: TreeFunction, params: TreeParams, phi: YoungPhi) -> YoungModular:
    """Phi(|F|) against the mass density, one (edges, nodes) segment per
    level: |F| at the Gauss-Legendre nodes of every edge, weighted by the
    quadrature weight times the density at each node.  |F| is built in `a`
    itself from one slope per edge, as in `upper_gradient_edges`."""
    _check_shape(F, params)
    parents, children = parents_and_children(F.K, F.values)
    a = np.empty(children.size * QUAD_ORDER)
    vals = a.reshape(*children.shape, QUAD_ORDER)
    # the slopes go to the head of `a` (an array of their own raised the peak
    # RSS) and the levels are filled deepest first: the nodes of level n
    # start at QUAD_ORDER times the offset of its slopes, past the slopes of
    # the shallower levels still to be read; numpy buffers the slopes of a
    # level whose nodes overlap them
    slopes = a[: children.size].reshape(children.shape)
    np.subtract(children, parents[:, None], out=slopes)
    segments = []
    for n in reversed(range(F.depth)):
        rows = level_slice(F.K, n)
        length, a_off, weights = edge_quadrature(params, n)
        slopes[rows] /= length
        level = vals[rows]
        np.multiply(slopes[rows, :, None], a_off, out=level)
        level += parents[rows, None, None]
        segments.append((level.size, weights))
    np.abs(a, out=a)
    return YoungModular(phi, a, segments[::-1])


def _gradient_modular(F: TreeFunction, params: TreeParams, phi: YoungPhi) -> YoungModular:
    """Phi(g) for the per-edge upper gradient g, weighted by the edge mass."""
    grads = upper_gradient_edges(F, params)
    segments = [(F.K ** (n + 1), edge_measure(params, n)) for n in range(F.depth)]
    return YoungModular(phi, grads.reshape(-1), segments)


def _gauge(rho: YoungModular) -> float:
    """Luxemburg gauge of the amplitudes of rho as given (by homogeneity)."""
    return rho.scale * luxemburg_gauge(rho, start=rho.start) if rho.scale > 0.0 else 0.0


def tree_lphi_modular(
    F: TreeFunction, params: TreeParams, phi: YoungPhi, k: float = 1.0
) -> float:
    """Integral of Phi(|F|/k) over the truncated tree against the mass density.

    F is interpolated linearly in arclength on each edge; each edge integral
    uses the tree's Gauss-Legendre rule (`edge_quadrature`) on the
    composite integrand.
    """
    return _function_modular(F, params, phi).value(k)


def gradient_lphi_modular(
    F: TreeFunction, params: TreeParams, phi: YoungPhi, k: float = 1.0
) -> float:
    """Integral of Phi(g/k) for the per-edge upper gradient g.

    g is constant on each edge, so this is the exact sum of
    Phi(g_edge / k) * edge mass over all edges.
    """
    return _gradient_modular(F, params, phi).value(k)


def newtonian_norm(F: TreeFunction, params: TreeParams, phi: YoungPhi) -> float:
    """Gauge norm of F plus gauge norm of its minimal per-edge upper gradient."""
    fn_gauge = _gauge(_function_modular(F, params, phi))
    return fn_gauge + _gauge(_gradient_modular(F, params, phi))
