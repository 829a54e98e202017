"""Geometry and measure of a truncated regular K-ary tree.

Every vertex has exactly K children and every edge is a unit interval in
the level coordinate.  The metric density along an edge at level t is
e^(-epsilon*t), so each ray from the root has finite length 1/epsilon and
the tree has diameter 2/epsilon.  Mass is carried by the edges with
density e^(-beta*t) * (t + C)^lambda in the same coordinate; beta > log K
makes the total mass finite, and `residual_measure` reports how much of it
a depth-N truncation discards.

Vertices are addressed by their digit path from the root (a tuple of
integers in [0, K)); within a level they are ordered lexicographically,
so the level-n vertex with flat index i has parent i // K at level n-1.
`treetrace.address` converts and validates addresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .address import check_digits

__all__ = [
    "TreeParams",
    "EdgePoint",
    "make_tree_params",
    "min_shift_constant",
    "edge_length",
    "arclength",
    "vertex_distance",
    "edge_mass",
    "edge_measure",
    "tree_measure",
    "residual_measure",
    "ball_measure",
    "sample_ball_centers",
    "doubling_ratios",
]


@lru_cache(maxsize=32)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1].  Cached; do not mutate."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def min_shift_constant(K: int, epsilon: float, beta: float, lambda2: float) -> float:
    """Smallest admissible shift C in the mass density (t + C)^lambda2."""
    return max(2.0 * abs(lambda2) / (beta - math.log(K)), 2.0 * math.log(4.0) / epsilon)


@dataclass(frozen=True)
class TreeParams:
    """Validated parameter bundle for one truncated tree.

    K            branching factor (>= 2)
    epsilon      metric decay rate (> 0)
    beta         mass decay rate (> log K)
    lambda2      mass log-exponent
    C_const      shift in the (t + C)^lambda2 factor; never below the
                 minimal admissible value, which None selects
    depth        truncation level N (>= 1); vertices live on levels 0..N
    quad_order   Gauss-Legendre order used for all edge integrals
    """

    K: int
    epsilon: float
    beta: float
    lambda2: float
    C_const: float | None
    depth: int
    quad_order: int = 8

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError("K must be at least 2")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.beta <= math.log(self.K):
            raise ValueError("beta must exceed log K")
        cmin = min_shift_constant(self.K, self.epsilon, self.beta, self.lambda2)
        if self.C_const is None:
            object.__setattr__(self, "C_const", cmin)
        elif self.C_const < cmin * (1.0 - 1e-12):
            raise ValueError(f"C_const must be at least {cmin!r}")
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.quad_order < 2:
            raise ValueError("quad_order must be at least 2")

    @property
    def hausdorff_dim(self) -> float:
        """Dimension Q = log K / epsilon of the boundary."""
        return math.log(self.K) / self.epsilon

    @property
    def diameter(self) -> float:
        return 2.0 / self.epsilon

    def smoothness_exponent(self, p: float) -> float:
        """The exponent 1 - (beta - log K) / (epsilon * p) paired with p."""
        return 1.0 - (self.beta - math.log(self.K)) / (self.epsilon * p)


def make_tree_params(
    K: int,
    epsilon: float,
    beta: float,
    lambda2: float,
    depth: int,
    quad_order: int = 8,
    c_const: float | None = None,
) -> TreeParams:
    """Build a validated bundle; C_const defaults to the minimal admissible value.

    A caller-supplied ``c_const`` may only enlarge the shift.  `TreeParams`
    does the validation.
    """
    return TreeParams(K, epsilon, beta, lambda2, c_const, depth, quad_order)


def arclength(params: TreeParams, tau) -> float | np.ndarray:
    """Metric distance from the root to level coordinate tau along any ray."""
    eps = params.epsilon
    if np.isscalar(tau):
        return (1.0 - math.exp(-eps * tau)) / eps
    return (1.0 - np.exp(-eps * np.asarray(tau, dtype=float))) / eps


def edge_length(params: TreeParams, n: int) -> float:
    """Metric length of any edge between levels n and n+1."""
    if not 0 <= n < params.depth:
        raise ValueError(f"edge level {n} out of range [0, {params.depth})")
    eps = params.epsilon
    return (1.0 - math.exp(-eps)) / eps * math.exp(-eps * n)


def vertex_distance(params: TreeParams, x, y) -> float:
    """Geodesic distance between two vertices, through their common ancestor."""
    x = check_digits(params.K, x, params.depth)
    y = check_digits(params.K, y, params.depth)
    k = 0
    for a, b in zip(x, y):
        if a != b:
            break
        k += 1
    ax = arclength(params, len(x))
    ay = arclength(params, len(y))
    ak = arclength(params, k)
    return (ax - ak) + (ay - ak)


def edge_mass(beta: float, c_shift: float, lam: float, n: float, order: int = 8) -> float:
    """Gauss-Legendre value of the mass of one edge between levels n and n+1,
    i.e. the integral of e^(-beta*t) * (t + c_shift)^lam over [n, n+1]."""
    x, w = _gauss_nodes(order)
    tau = 0.5 * (x + 1.0) + n
    return float(0.5 * np.sum(w * np.exp(-beta * tau) * (tau + c_shift) ** lam))


def edge_measure(params: TreeParams, n: int, lam: float | None = None) -> float:
    """Mass of a single edge between levels n and n+1.

    With lam=0 this equals (e^(-beta*n) - e^(-beta*(n+1))) / beta up to
    quadrature error far below 1e-12 relative.
    """
    if n < 0:
        raise ValueError("edge level must be nonnegative")
    if lam is None:
        lam = params.lambda2
    return edge_mass(params.beta, params.C_const, lam, n, params.quad_order)


def tree_measure(params: TreeParams, lam: float | None = None) -> float:
    """Total mass of the truncated tree (levels 0..depth)."""
    return sum(
        params.K ** (n + 1) * edge_measure(params, n, lam) for n in range(params.depth)
    )


def residual_measure(
    params: TreeParams, lam: float | None = None, from_level: int | None = None
) -> float:
    """Mass of the infinite tree beyond the truncation level.

    Sums K^(n+1) * edge_measure(n) for n >= from_level (default: depth)
    until the remaining tail is below 1e-12 relative.  from_level=0 gives
    the total mass of the infinite tree.
    """
    if lam is None:
        lam = params.lambda2
    start = params.depth if from_level is None else from_level
    if start < 0:
        raise ValueError("from_level must be nonnegative")
    total = 0.0
    n = start
    while True:
        term = params.K ** (n + 1) * edge_mass(
            params.beta, params.C_const, lam, n, params.quad_order
        )
        total += term
        if term < 1e-14 * total and n > start:
            break
        n += 1
        if n - start > 100_000:
            raise RuntimeError("residual series did not converge")
    return total


@dataclass(frozen=True)
class EdgePoint:
    """A point of the tree interior to an edge.

    The edge runs from the level-`level` vertex to its child with flat
    index `child_index` at level+1; `offset` in [0, 1] is the position in
    the level coordinate, so the point sits at level `level + offset`.
    """

    level: int
    child_index: int
    offset: float


def _level_distances(params: TreeParams, center: EdgePoint) -> tuple[list[np.ndarray], list[int], float]:
    """Distances from `center` to every vertex, one array per level.

    Returns (per-level distance arrays, ancestor chain of the center edge's
    child endpoint, arclength of the center from the root).
    """
    K, N, eps = params.K, params.depth, params.epsilon
    if not 0 <= center.level < N:
        raise ValueError("center level out of range")
    if not 0 <= center.child_index < K ** (center.level + 1):
        raise ValueError("center child index out of range")
    if not 0.0 <= center.offset <= 1.0:
        raise ValueError("center offset must lie in [0, 1]")

    nx, cx = center.level, center.child_index
    a_lev = (1.0 - np.exp(-eps * np.arange(N + 1))) / eps
    ax = float(arclength(params, nx + center.offset))
    # anc[j] = flat index of the level-j ancestor of the child endpoint
    anc = [cx // K ** (nx + 1 - j) for j in range(nx + 2)]

    dist = [np.array([ax])]
    for j in range(1, N + 1):
        d = np.repeat(dist[j - 1], K) + (a_lev[j] - a_lev[j - 1])
        if j <= nx:
            d[anc[j]] = ax - a_lev[j]
        elif j == nx + 1:
            d[anc[j]] = a_lev[j] - ax
        dist.append(d)
    return dist, anc, ax


def ball_measure(
    params: TreeParams, center: EdgePoint, radius: float, lam: float | None = None
) -> float:
    """Exact mass of the metric ball around a point on an edge.

    A ball meets every edge in a (possibly empty) arclength interval; the
    interval is found from the distance to the edge's entry endpoint and
    the mass density is integrated over it by Gauss-Legendre quadrature.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if lam is None:
        lam = params.lambda2
    K, N, eps = params.K, params.depth, params.epsilon
    beta, c_shift = params.beta, params.C_const
    dist, anc, ax = _level_distances(params, center)
    a_lev = (1.0 - np.exp(-eps * np.arange(N + 1))) / eps
    gx, gw = _gauss_nodes(params.quad_order)

    total = 0.0
    for j in range(N):
        # edges from level j to j+1, indexed by the child vertex
        lo = np.full(K ** (j + 1), a_lev[j])
        hi = a_lev[j] + (radius - np.repeat(dist[j], K))
        if j + 1 <= center.level:
            # the chain edge above the center is entered from its lower end
            i = anc[j + 1]
            hi[i] = a_lev[j + 1]
            lo[i] = a_lev[j + 1] - (radius - dist[j + 1][i])
        elif j == center.level:
            i = center.child_index
            lo[i] = ax - radius
            hi[i] = ax + radius
        np.clip(lo, a_lev[j], a_lev[j + 1], out=lo)
        np.clip(hi, a_lev[j], a_lev[j + 1], out=hi)
        mask = hi > lo
        if not mask.any():
            continue
        tlo = -np.log1p(-eps * lo[mask]) / eps
        thi = -np.log1p(-eps * hi[mask]) / eps
        mid = 0.5 * (tlo + thi)
        half = 0.5 * (thi - tlo)
        tau = mid[:, None] + half[:, None] * gx[None, :]
        dens = np.exp(-beta * tau) * (tau + c_shift) ** lam
        total += float(np.sum(half[:, None] * gw[None, :] * dens))
    return total


def sample_ball_centers(
    params: TreeParams,
    n_balls: int,
    seed: int,
    radius_grid: tuple[float, ...] | None = None,
) -> tuple[list[EdgePoint], list[float]]:
    """Draw ball centers (points on edges) and radii for doubling checks.

    Centers are reusable on any tree of at least the same depth, which is
    what truncation-stability comparisons need.
    """
    if radius_grid is None:
        d = params.diameter
        radius_grid = (d, d / 2.0, d / 4.0, d / 8.0)
    rng = np.random.default_rng(seed)
    centers, radii = [], []
    for _ in range(n_balls):
        lev = int(rng.integers(0, params.depth))
        idx = int(rng.integers(0, params.K ** (lev + 1)))
        off = float(rng.uniform(0.02, 0.98))
        centers.append(EdgePoint(lev, idx, off))
        radii.append(float(radius_grid[int(rng.integers(0, len(radius_grid)))]))
    return centers, radii


def doubling_ratios(
    params: TreeParams,
    centers: list[EdgePoint],
    radii: list[float],
    lam: float | None = None,
) -> np.ndarray:
    """Ratios mass(B(x, 2r)) / mass(B(x, r)) for the given balls."""
    out = np.empty(len(centers))
    for i, (c, r) in enumerate(zip(centers, radii)):
        out[i] = ball_measure(params, c, 2.0 * r, lam) / ball_measure(params, c, r, lam)
    return out
