"""Geometry and measure of a truncated regular K-ary tree.

Every vertex has exactly K children and every edge is a unit interval in
the level coordinate.  The metric density along an edge at level t is
e^(-epsilon*t), so each ray from the root has finite length 1/epsilon and
the tree has diameter 2/epsilon.  Every length is an arclength below a
vertex, precise at any epsilon and depth.  Mass is carried by the edges
with density e^(-beta*t) * (t + C)^lambda in the same coordinate; beta >
log K makes the total mass finite, and C is the least shift that makes the
density admissible (`min_shift_constant`).  This module owns the edge
quadrature, one Gauss-Legendre rule of order `QUAD_ORDER` = 8 on every
edge: the per-level `edge_quadrature`, the edge masses (the sums of its
weights) and the ball masses.

Vertices are addressed by their digit path from the root (a tuple of
integers in [0, K)); within a level they are ordered lexicographically,
so the level-n vertex with flat index i has parent i // K at level n-1.
`treetrace.address` converts and validates addresses.

The boundary is the set of infinite rays from the root; the cell of a
vertex is the set of rays through it, with mass K^(-n) at level n.  Two
rays whose addresses split at level n are 2 e^(-epsilon*n) / epsilon
apart (`split_distances`), an ultrametric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

from .address import check_digits, digits_index

__all__ = [
    "QUAD_ORDER",
    "TreeParams",
    "EdgePoint",
    "min_shift_constant",
    "edge_length",
    "arclength",
    "split_distances",
    "ahlfors_ratio",
    "edge_measure",
    "edge_quadrature",
    "ball_measure",
    "sample_ball_centers",
    "doubling_ratios",
]


# entries of the per-(TreeParams, level) cache of `edge_quadrature`: every
# level of a few dozen trees
_LEVEL_CACHE = 1024


# the order of the Gauss-Legendre rule of every edge integral
QUAD_ORDER = 8


@cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of the edge rule on [-1, 1], read-only.  Built
    on first use, so that a run that integrates over no edge does not
    import numpy.polynomial, which numpy 2 loads lazily (about 2 MB)."""
    x, w = np.polynomial.legendre.leggauss(QUAD_ORDER)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def min_shift_constant(K: int, epsilon: float, beta: float, lambda2: float) -> float:
    """Smallest admissible shift C in the mass density (t + C)^lambda2."""
    return max(2.0 * abs(lambda2) / (beta - math.log(K)), 2.0 * math.log(4.0) / epsilon)


@dataclass(frozen=True)
class TreeParams:
    """Validated parameter bundle for one truncated tree.

    K        branching factor (>= 2)
    epsilon  metric decay rate (> 0)
    beta     mass decay rate (> log K)
    lambda2  mass log-exponent
    depth    truncation level N (>= 1); vertices live on levels 0..N

    The shift `C_const` in the (t + C)^lambda2 factor is derived, not set:
    it is the minimal admissible value `min_shift_constant`.  The real
    parameters must be finite, and so must C_const and the density factor
    (t + C)^lambda2 on [0, depth], which must also be positive.
    """

    K: int
    epsilon: float
    beta: float
    lambda2: float
    depth: int
    C_const: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError("K must be at least 2")
        for name in ("epsilon", "beta", "lambda2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.beta <= math.log(self.K):
            raise ValueError("beta must exceed log K")
        cmin = min_shift_constant(self.K, self.epsilon, self.beta, self.lambda2)
        if not math.isfinite(cmin):
            raise ValueError(
                "the minimal C_const = max(2 |lambda2| / (beta - log K), 2 log 4 / epsilon) "
                f"is infinite at lambda2 = {self.lambda2!r}, beta = {self.beta!r}, "
                f"epsilon = {self.epsilon!r}"
            )
        object.__setattr__(self, "C_const", cmin)
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        # (t + C)^lambda2 is monotone in t, so its ends bound it on [0, depth]
        for t in (0.0, float(self.depth)):
            try:
                factor = (t + cmin) ** self.lambda2
            except OverflowError:
                factor = math.inf
            if not 0.0 < factor < math.inf:
                raise ValueError(
                    f"lambda2 = {self.lambda2!r} puts the density factor (t + C)^lambda2 "
                    f"out of the float range at t = {t:g} (C = {cmin!r})"
                )

    @property
    def hausdorff_dim(self) -> float:
        """Dimension Q = log K / epsilon of the boundary."""
        return math.log(self.K) / self.epsilon

    @property
    def diameter(self) -> float:
        return 2.0 / self.epsilon


def _arc_below(eps: float, level, t):
    """Arclength e^(-eps*level) (1 - e^(-eps*t)) / eps from a vertex at `level`
    down to level + t, precise at any eps and depth; t = inf: to the boundary."""
    return np.exp(-eps * level) * -np.expm1(-eps * t) / eps


def _mass_density(params: TreeParams, weight, tau):
    """`weight` times the mass density e^(-beta*tau) (tau + C)^lambda2, left to right."""
    return weight * np.exp(-params.beta * tau) * (tau + params.C_const) ** params.lambda2


def arclength(params: TreeParams, tau) -> float | np.ndarray:
    """Metric distance from the root to level coordinate tau along any ray."""
    return _arc_below(params.epsilon, 0, np.asarray(tau, dtype=float))


def edge_length(params: TreeParams, n: int) -> float:
    """Metric length of any edge between levels n and n+1."""
    if not 0 <= n < params.depth:
        raise ValueError(f"edge level {n} out of range [0, {params.depth})")
    return float(_arc_below(params.epsilon, n, 1.0))


def split_distances(epsilon: float, count: int) -> np.ndarray:
    """Distances (2/epsilon) e^(-epsilon*n), n = 0..count-1, between two
    boundary points whose addresses split at level n: twice the arclength
    from a level-n vertex down to the boundary."""
    return 2.0 / epsilon * np.exp(-epsilon * np.arange(count))


def ahlfors_ratio(params: TreeParams, digits) -> float:
    """Mass K^(-n) of the boundary cell with the given level-n address
    divided by its diameter scale (the level-n split distance) to the
    power Q.  The uniform boundary mass is Ahlfors Q-regular: the ratio
    is the same for every cell."""
    n = len(check_digits(params.K, digits, params.depth))
    r = float(split_distances(params.epsilon, n + 1)[n])
    return float(params.K) ** -n / r**params.hausdorff_dim


@lru_cache(maxsize=_LEVEL_CACHE)
def edge_quadrature(params: TreeParams, n: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule of the edges between levels n and n+1: edge
    length, node arclengths below the parent, and node weights times the
    mass density.  Memoized per (params, n); the arrays are read-only."""
    gx, gw = _gauss_rule()
    t = 0.5 * (gx + 1.0)
    offsets = _arc_below(params.epsilon, n, t)
    weights = _mass_density(params, 0.5 * gw, n + t)
    offsets.flags.writeable = weights.flags.writeable = False
    return edge_length(params, n), offsets, weights


def edge_measure(params: TreeParams, n: int) -> float:
    """Mass of a single edge between levels n and n+1: the sum of the node
    weights of `edge_quadrature`, the Gauss-Legendre value of the integral
    of e^(-beta*t) * (t + C)^lambda2 over [n, n+1], for 0 <= n < depth.

    With lambda2 = 0 this equals (e^(-beta*n) - e^(-beta*(n+1))) / beta up
    to quadrature error far below 1e-12 relative.
    """
    return float(np.sum(edge_quadrature(params, n)[2]))


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


# elements of each (balls, N + 2, N) temporary of `_ball_masses`
_BALL_CHUNK = 1 << 12


def _balls(params: TreeParams, centers, radii) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated edge levels of the centers, their offsets (the arclength
    from the top vertex of the center's edge down to it) and the radii."""
    K, N, eps = params.K, params.depth, params.epsilon
    if len(centers) != len(radii):
        raise ValueError("need one radius per center")
    r = np.asarray(radii, dtype=float)
    if not np.all(r > 0):
        raise ValueError("radius must be positive")
    for c in centers:
        if not 0 <= c.level < N:
            raise ValueError("center level out of range")
        if not 0 <= c.child_index < K ** (c.level + 1):
            raise ValueError("center child index out of range")
        if not 0.0 <= c.offset <= 1.0:
            raise ValueError("center offset must lie in [0, 1]")
    levels = np.array([c.level for c in centers], dtype=np.int64)
    offsets = np.array([c.offset for c in centers], dtype=float)
    return levels, _arc_below(eps, levels, offsets), r


def _ball_masses(
    params: TreeParams,
    levels: np.ndarray,
    sx: np.ndarray,
    radii: np.ndarray,
) -> np.ndarray:
    """Masses of the balls of radii `radii` around points on edges at
    `levels`, at arclengths `sx` below the top vertex of their edge.

    A ball meets every edge in a (possibly empty) interval that depends
    only on the distance from the center to the end through which the
    edge is entered.  Seen from a center on an edge at level nx, the
    edges at level j fall into N + 2 distance classes:

      k <= min(j, nx)  parent off the center's ancestor chain, branching
                       from it at level k, or the chain vertex at k = j;
                       (K-1) K^(j-k) edges entered from the parent
      chain/center     for j < nx the chain edge, entered from below; for
                       j = nx the center edge itself; one edge
      subtree          for j > nx the edges below the center edge,
                       K^(j-nx) of them, entered from the parent

    so the mass is a sum of count x (Gauss-Legendre integral of the mass
    density over the clipped interval): O(N^2) work per ball.  Interval
    ends are arclengths below the top vertex of their edge, not from the
    root (which round to 1/epsilon deep down), so they keep their relative
    precision at any depth.  Each parent distance is a running sum of the
    edge lengths down its path, so it rounds as a walk from the center
    does.  The balls are taken as many at a time as keep each
    (balls, N + 2, N) array within `_BALL_CHUNK` elements.
    """
    K, N, eps = params.K, params.depth, params.epsilon
    gx, gw = _gauss_rule()
    lev = np.arange(N)
    # to_boundary[j]: the distance from a level-j vertex to the boundary;
    # length[j]: the length of an edge from level j to j + 1
    to_boundary = _arc_below(eps, np.arange(N + 1), np.inf)
    length = _arc_below(eps, lev, 1.0)
    # inc[j] = length[j-1]: the step of a parent distance from level j-1
    # to level j; steps[k, j] adds it below the branch level k
    inc = np.concatenate(([0.0], length[:-1]))
    k, j = lev[:, None], lev[None, :]
    steps = np.where(j > k, inc, 0.0)
    # the rows of the class counts over j: branch level k, a zero row, then
    # the chain and the subtree class of a center at level k
    fan = np.where(k <= j, (K - 1) * float(K) ** (j - k), 0.0)
    subtree = np.where(j > k, float(K) ** (j - k), 0.0)
    rows = np.concatenate([fan, np.zeros((1, N)), np.where(j <= k, 1.0, 0.0), subtree])

    out = np.empty(len(levels))
    size = max(1, _BALL_CHUNK // ((N + 2) * N))
    for s in range(0, len(levels), size):
        nx = levels[s : s + size, None]
        x = sx[s : s + size, None]
        r = radii[s : s + size, None]
        B = len(nx)
        # count[ball, class, j]: the branch levels (the zero row past the
        # center's level), then chain, subtree
        branch_rows = np.where(lev <= nx, lev, N)
        count = rows[np.concatenate([branch_rows, N + 1 + nx, 2 * N + 1 + nx], axis=1)]
        # up[:, j]: the distance from the center up to its level-j ancestor
        up = (to_boundary - to_boundary[nx]) + x
        branch = np.tile(steps, (B, 1, 1))
        branch[:, lev, lev] = up[:, :N]
        below = np.where(lev == nx + 1, length[nx] - x, np.where(lev > nx + 1, inc, 0.0))
        chain = lev < nx
        # each class's interval [lo, hi] of arclengths below the top vertex
        lo = np.zeros((B, N + 2, N))
        hi = np.empty_like(lo)
        hi[:, :N] = r[:, :, None] - np.cumsum(branch, axis=2)
        lo[:, N] = np.where(chain, length - (r - up[:, 1:]), x - r)
        hi[:, N] = np.where(chain, length, x + r)
        hi[:, N + 1] = r - np.cumsum(below, axis=1)
        np.clip(lo, 0.0, length, out=lo)
        np.clip(hi, 0.0, length, out=hi)
        mask = (count > 0) & (hi > lo)
        # arclength a below a level-j vertex is at level j + t, where
        # e^(-eps t) = 1 - a / to_boundary[j]
        ball, _, at = np.nonzero(mask)
        tlo = -np.log1p(-lo[mask] / to_boundary[at]) / eps
        thi = -np.log1p(-hi[mask] / to_boundary[at]) / eps
        mid = at + 0.5 * (tlo + thi)
        half = 0.5 * (thi - tlo)
        tau = mid[:, None] + half[:, None] * gx[None, :]
        quad = half * (_mass_density(params, 1.0, tau) @ gw)
        out[s : s + B] = np.bincount(ball, weights=count[mask] * quad, minlength=B)
    return out


def ball_measure(params: TreeParams, center: EdgePoint, radius: float) -> float:
    """Exact mass of the metric ball around a point on an edge.

    A ball meets every edge in a (possibly empty) arclength interval; the
    mass density is integrated over it by Gauss-Legendre quadrature, once
    per distance class of edges (see `_ball_masses`).  An infinite radius
    gives the total mass.
    """
    return float(_ball_masses(params, *_balls(params, [center], [radius]))[0])


def sample_ball_centers(
    params: TreeParams, n_balls: int, seed: int
) -> tuple[list[EdgePoint], list[float]]:
    """Draw ball centers (points on edges) and radii for doubling checks;
    the radii are the diameter divided by 1, 2, 4 or 8.

    Centers are reusable on any tree of at least the same depth, which is
    what truncation-stability comparisons need.  A child index past int64
    is drawn digit by digit; a ball's mass does not depend on it.
    """
    d = params.diameter
    radius_grid = (d, d / 2.0, d / 4.0, d / 8.0)
    rng = np.random.default_rng(seed)
    centers, radii = [], []
    for _ in range(n_balls):
        lev = int(rng.integers(0, params.depth))
        if params.K ** (lev + 1) <= 2**63:  # every index fits in int64
            idx = int(rng.integers(0, params.K ** (lev + 1)))
        else:
            idx = digits_index(params.K, rng.integers(0, params.K, lev + 1))
        off = float(rng.uniform(0.02, 0.98))
        centers.append(EdgePoint(lev, idx, off))
        radii.append(float(radius_grid[int(rng.integers(0, len(radius_grid)))]))
    return centers, radii


def doubling_ratios(
    params: TreeParams, centers: list[EdgePoint], radii: list[float]
) -> np.ndarray:
    """Ratios mass(B(x, 2r)) / mass(B(x, r)) for the given balls."""
    levels, sx, r = _balls(params, centers, radii)
    small = _ball_masses(params, levels, sx, r)
    return _ball_masses(params, levels, sx, 2.0 * r) / small
