"""Functions on the truncated tree and their Orlicz-Sobolev norms.

A tree function stores one value per vertex on levels 0..N and is read as
piecewise linear in arclength along every edge.  For that class the
minimal upper gradient is constant on each edge and equals the difference
quotient |F(child) - F(parent)| / edge_length, so the gradient part of
the norm is an exact finite sum while the function part is a per-edge
Gauss-Legendre integral of Phi(|F|) against the mass density.  CSV files
list every level's rows, through the codec in `treetrace.address`.
"""

from __future__ import annotations

import numpy as np

from .address import child_minus_parent, read_function_csv, write_function_csv
from .tree import TreeParams, arclength, edge_length, edge_measure, _gauss_nodes
from .young import YoungModular, YoungPhi, luxemburg_gauge

__all__ = [
    "TreeFunction",
    "edge_slopes",
    "upper_gradient_edges",
    "tree_lphi_modular",
    "gradient_lphi_modular",
    "newtonian_norm",
]


class TreeFunction:
    """Vertex values on levels 0..depth, lexicographic within each level."""

    def __init__(self, K: int, depth: int, levels) -> None:
        if K < 2:
            raise ValueError("K must be at least 2")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if len(levels) != depth + 1:
            raise ValueError(f"expected {depth + 1} level arrays, got {len(levels)}")
        stored = []
        for n, arr in enumerate(levels):
            arr = np.asarray(arr, dtype=float).copy()
            if arr.shape != (K**n,):
                raise ValueError(f"level {n} must hold {K**n} values")
            if not np.all(np.isfinite(arr)):
                raise ValueError("vertex values must be finite")
            stored.append(arr)
        self.K = K
        self.depth = depth
        self.levels = stored

    def scaled(self, factor: float) -> "TreeFunction":
        return TreeFunction(self.K, self.depth, [lv * factor for lv in self.levels])

    def to_csv(self, path) -> None:
        write_function_csv(path, self.K, self.depth, self.levels)

    @classmethod
    def from_csv(cls, path) -> "TreeFunction":
        K, depth, levels = read_function_csv(path, leaves_only=False)
        return cls(K, depth, levels)


def _check_shape(F: TreeFunction, params: TreeParams) -> None:
    if F.K != params.K or F.depth != params.depth:
        raise ValueError("tree function shape does not match tree parameters")


def edge_slopes(F: TreeFunction, params: TreeParams) -> list[np.ndarray]:
    """Signed arclength slope per edge; entry n covers the level n -> n+1 edges,
    indexed by the child vertex."""
    _check_shape(F, params)
    diffs = child_minus_parent(F.K, F.levels)
    return [diff / edge_length(params, n) for n, diff in enumerate(diffs)]


def upper_gradient_edges(F: TreeFunction, params: TreeParams) -> list[np.ndarray]:
    """Per-edge upper gradient of the piecewise-linear interpolant: the
    absolute difference quotient, minimal for this class of functions."""
    return [np.abs(s) for s in edge_slopes(F, params)]


def _function_modular(
    F: TreeFunction, params: TreeParams, phi: YoungPhi, lam: float | None
) -> YoungModular:
    """Phi(|F|) against the mass density, one (edges, nodes) block per level:
    |F| at the Gauss-Legendre nodes of every edge, weighted by the
    quadrature weight times the density at each node."""
    if lam is None:
        lam = params.lambda2
    beta, c_shift = params.beta, params.C_const
    gx, gw = _gauss_nodes(params.quad_order)
    blocks = []
    for n, slope in enumerate(edge_slopes(F, params)):
        tau = n + 0.5 * (gx + 1.0)
        a_off = arclength(params, tau) - arclength(params, n)
        dens = 0.5 * gw * np.exp(-beta * tau) * (tau + c_shift) ** lam
        vals = np.multiply.outer(slope, a_off)
        vals += np.repeat(F.levels[n], F.K)[:, None]
        blocks.append((np.abs(vals, out=vals), dens))
    return YoungModular(phi, blocks)


def _gradient_modular(
    F: TreeFunction, params: TreeParams, phi: YoungPhi, lam: float | None
) -> YoungModular:
    """Phi(g) for the per-edge upper gradient g, weighted by the edge mass."""
    return YoungModular(
        phi,
        [
            (g, edge_measure(params, n, lam))
            for n, g in enumerate(upper_gradient_edges(F, params))
        ],
    )


def _gauge(rho: YoungModular, tol: float) -> float:
    """Luxemburg gauge of the amplitudes of rho as given (by homogeneity)."""
    return rho.scale * luxemburg_gauge(rho, tol) if rho.scale > 0.0 else 0.0


def tree_lphi_modular(
    F: TreeFunction,
    params: TreeParams,
    phi: YoungPhi,
    k: float = 1.0,
    lam: float | None = None,
) -> float:
    """Integral of Phi(|F|/k) over the truncated tree against the mass density.

    F is interpolated linearly in arclength on each edge; each edge integral
    uses the tree's Gauss-Legendre order on the composite integrand.
    """
    return _function_modular(F, params, phi, lam).value(k)


def gradient_lphi_modular(
    F: TreeFunction,
    params: TreeParams,
    phi: YoungPhi,
    k: float = 1.0,
    lam: float | None = None,
) -> float:
    """Integral of Phi(g/k) for the per-edge upper gradient g.

    g is constant on each edge, so this is the exact sum of
    Phi(g_edge / k) * edge mass over all edges.
    """
    return _gradient_modular(F, params, phi, lam).value(k)


def newtonian_norm(
    F: TreeFunction,
    params: TreeParams,
    phi: YoungPhi,
    lam: float | None = None,
    tol: float = 1e-10,
) -> float:
    """Gauge norm of F plus gauge norm of its minimal per-edge upper gradient."""
    fn_gauge = _gauge(_function_modular(F, params, phi, lam), tol)
    return fn_gauge + _gauge(_gradient_modular(F, params, phi, lam), tol)
