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
from .young import _CHUNK, YoungModular, YoungPhi, luxemburg_gauge

__all__ = [
    "TreeFunction",
    "upper_gradient_edges",
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
    itself from one slope per edge, as in `upper_gradient_edges`: at node
    q of an edge, slope times node offset q plus the parent's value."""
    _check_shape(F, params)
    K, Q = F.K, QUAD_ORDER
    parents = parents_and_children(K, F.values)[0]
    edges = F.values.size - 1
    a = np.empty(edges * Q)
    # the slopes go to the head of `a` (an array of their own raised the peak
    # RSS), the nodes of parents r0..r1 - 1 to a[K Q r0 : K Q r1]: levels
    # deepest first, each in chunks of whole parents, the last chunk first,
    # so a chunk overwrites no slope still to be read but its own, which its
    # copy reads first (numpy buffers that overlap).  The tiled row and its
    # view are gone before YoungModular allocates its buffers.
    slopes = child_minus_parent(K, F.values, out=a[:edges].reshape(-1, K))
    step = max(_CHUNK // (K * Q), 1)
    tiled = np.empty(min(step, parents.size) * K * Q)
    segments = []
    for n in reversed(range(F.depth)):
        rows = level_slice(K, n)
        length, a_off, weights = edge_quadrature(params, n)
        slopes[rows] /= length
        offsets = tiled[: min(step, K**n) * K * Q]
        np.copyto(offsets.reshape(-1, Q), a_off)
        for r0 in reversed(range(rows.start, rows.stop, step)):
            r1 = min(r0 + step, rows.stop)
            chunk = a[K * Q * r0 : K * Q * r1]
            np.copyto(chunk.reshape(-1, Q), slopes[r0:r1].reshape(-1, 1))
            np.multiply(chunk, offsets[: chunk.size], out=chunk)
            by_parent = chunk.reshape(r1 - r0, K * Q)
            np.add(by_parent, parents[r0:r1, None], out=by_parent)
        segments.append((K ** (n + 1) * Q, weights))
    del tiled, offsets
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


def gradient_lphi_modular(F: TreeFunction, params: TreeParams, phi: YoungPhi) -> float:
    """Integral of Phi(g) for the per-edge upper gradient g.

    g is constant on each edge, so this is the exact sum of
    Phi(g_edge) * edge mass over all edges.
    """
    return _gradient_modular(F, params, phi).value(1.0)


def newtonian_norm(F: TreeFunction, params: TreeParams, phi: YoungPhi) -> float:
    """Gauge norm of F plus gauge norm of its minimal per-edge upper gradient."""
    fn_gauge = _gauge(_function_modular(F, params, phi))
    return fn_gauge + _gauge(_gradient_modular(F, params, phi))
