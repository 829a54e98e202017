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

The boundary is the set of infinite rays from the root; the cell of a
vertex is the set of rays through it, with mass K^(-n) at level n.  Two
rays whose addresses split at level n are 2 e^(-epsilon*n) / epsilon
apart (`split_distances`), an ultrametric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .address import check_digits, digits_index

__all__ = [
    "TreeParams",
    "EdgePoint",
    "min_shift_constant",
    "edge_length",
    "arclength",
    "split_distances",
    "ahlfors_ratio",
    "edge_measure",
    "residual_measure",
    "ball_measure",
    "sample_ball_centers",
    "doubling_ratios",
]


# entries of each per-(TreeParams, level) cache: every level of a few dozen trees
_LEVEL_CACHE = 1024


@lru_cache(maxsize=32)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1].  Cached, read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
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
    depth        truncation level N (>= 1); vertices live on levels 0..N
    quad_order   Gauss-Legendre order used for all edge integrals
    C_const      shift in the (t + C)^lambda2 factor; never below the
                 minimal admissible value, which None selects

    The real parameters must be finite, and so must the minimal C_const
    and the density factor (t + C)^lambda2 on [0, depth], which must also
    be positive.
    """

    K: int
    epsilon: float
    beta: float
    lambda2: float
    depth: int
    quad_order: int = 8
    C_const: float | None = None

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError("K must be at least 2")
        for name in ("epsilon", "beta", "lambda2", "C_const"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
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
        if self.C_const is None:
            object.__setattr__(self, "C_const", cmin)
        elif self.C_const < cmin * (1.0 - 1e-12):
            raise ValueError(f"C_const must be at least {cmin!r}")
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        # (t + C)^lambda2 is monotone in t, so its ends bound it on [0, depth]
        for t in (0.0, float(self.depth)):
            try:
                factor = (t + self.C_const) ** self.lambda2
            except OverflowError:
                factor = math.inf
            if not 0.0 < factor < math.inf:
                raise ValueError(
                    f"lambda2 = {self.lambda2!r} puts the density factor (t + C)^lambda2 "
                    f"out of the float range at t = {t:g} (C = {self.C_const!r})"
                )
        if self.quad_order < 2:
            raise ValueError("quad_order must be at least 2")

    @property
    def hausdorff_dim(self) -> float:
        """Dimension Q = log K / epsilon of the boundary."""
        return math.log(self.K) / self.epsilon

    @property
    def diameter(self) -> float:
        return 2.0 / self.epsilon


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
def edge_measure(params: TreeParams, n: int) -> float:
    """Mass of a single edge between levels n and n+1: the Gauss-Legendre
    value of the integral of e^(-beta*t) * (t + C)^lambda2 over [n, n+1].
    Memoized per (params, n).

    With lambda2 = 0 this equals (e^(-beta*n) - e^(-beta*(n+1))) / beta up
    to quadrature error far below 1e-12 relative.
    """
    if n < 0:
        raise ValueError("edge level must be nonnegative")
    beta, c_shift, lam = params.beta, params.C_const, params.lambda2
    x, w = _gauss_nodes(params.quad_order)
    tau = 0.5 * (x + 1.0) + n
    return float(0.5 * np.sum(w * np.exp(-beta * tau) * (tau + c_shift) ** lam))


def residual_measure(params: TreeParams, from_level: int | None = None) -> float:
    """Mass of the infinite tree beyond the truncation level.

    Sums K^(n+1) * edge_measure(n) for n >= from_level (default: depth)
    until the remaining tail is below 1e-12 relative.  from_level=0 gives
    the total mass of the infinite tree.  Each term is the quadrature of
    one exponential, so factors that leave the float range beyond the
    truncation do not spoil it; a total that does is a ValueError.
    """
    start = params.depth if from_level is None else from_level
    if start < 0:
        raise ValueError("from_level must be nonnegative")
    x, w = _gauss_nodes(params.quad_order)
    total = 0.0
    n = start
    while True:
        tau = 0.5 * (x + 1.0) + n
        log_density = (n + 1) * math.log(params.K) - params.beta * tau
        log_density += params.lambda2 * np.log(tau + params.C_const)
        term = float(0.5 * np.sum(w * np.exp(log_density)))
        total += term
        if not math.isfinite(total):
            raise ValueError(
                f"the residual mass overflows at lambda2 = {params.lambda2!r} "
                f"(C = {params.C_const!r})"
            )
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


# balls per batch of `_ball_masses`; fixes the size of its temporaries
_BALL_CHUNK = 128


def _check_radii(radii) -> np.ndarray:
    r = np.asarray(radii, dtype=float)
    if not np.all(r > 0):
        raise ValueError("radius must be positive")
    return r


def _center_offsets(params: TreeParams, centers) -> tuple[np.ndarray, np.ndarray]:
    """Validated edge levels of the centers and their offsets: the
    arclength from the top vertex of the center's edge down to it."""
    K, N, eps = params.K, params.depth, params.epsilon
    for c in centers:
        if not 0 <= c.level < N:
            raise ValueError("center level out of range")
        if not 0 <= c.child_index < K ** (c.level + 1):
            raise ValueError("center child index out of range")
        if not 0.0 <= c.offset <= 1.0:
            raise ValueError("center offset must lie in [0, 1]")
    levels = np.array([c.level for c in centers], dtype=np.int64)
    offsets = np.array([c.offset for c in centers], dtype=float)
    return levels, -np.expm1(-eps * offsets) * np.exp(-eps * levels) / eps


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
    does.  The balls are taken `_BALL_CHUNK` at a time.
    """
    K, N, eps = params.K, params.depth, params.epsilon
    beta, c_shift, lam = params.beta, params.C_const, params.lambda2
    gx, gw = _gauss_nodes(params.quad_order)
    lev = np.arange(N)
    # to_boundary[j]: the distance from a level-j vertex to the boundary;
    # length[j]: the length of an edge from level j to j + 1
    to_boundary = np.exp(-eps * np.arange(N + 1)) / eps
    length = -np.expm1(-eps) * to_boundary[:-1]
    # inc[j] = length[j-1]: the step of a parent distance from level j-1
    # to level j; steps[k, j] adds it below the branch level k
    inc = np.concatenate(([0.0], length[:-1]))
    steps = np.where(lev[None, :] > lev[:, None], inc, 0.0)
    # counts[nx, class, j]: rows 0..N-1 branch levels, then chain, subtree
    n, k, j = lev[:, None, None], lev[None, :, None], lev[None, None, :]
    counts = np.concatenate(
        [
            np.where((k <= j) & (k <= n), (K - 1) * float(K) ** (j - k), 0.0),
            np.where(j <= n, 1.0, 0.0),
            np.where(j > n, float(K) ** (j - n), 0.0),
        ],
        axis=1,
    )

    out = np.empty(len(levels))
    for s in range(0, len(levels), _BALL_CHUNK):
        nx = levels[s : s + _BALL_CHUNK, None]
        x = sx[s : s + _BALL_CHUNK, None]
        r = radii[s : s + _BALL_CHUNK, None]
        B = len(nx)
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
        count = counts[nx[:, 0]]
        mask = (count > 0) & (hi > lo)
        # arclength a below a level-j vertex is at level j + t, where
        # e^(-eps t) = 1 - a / to_boundary[j]
        ball, _, at = np.nonzero(mask)
        tlo = -np.log1p(-lo[mask] / to_boundary[at]) / eps
        thi = -np.log1p(-hi[mask] / to_boundary[at]) / eps
        mid = at + 0.5 * (tlo + thi)
        half = 0.5 * (thi - tlo)
        tau = mid[:, None] + half[:, None] * gx[None, :]
        dens = np.exp(-beta * tau) * (tau + c_shift) ** lam
        quad = half * (dens @ gw)
        out[s : s + B] = np.bincount(ball, weights=count[mask] * quad, minlength=B)
    return out


def ball_measure(params: TreeParams, center: EdgePoint, radius: float) -> float:
    """Exact mass of the metric ball around a point on an edge.

    A ball meets every edge in a (possibly empty) arclength interval; the
    mass density is integrated over it by Gauss-Legendre quadrature, once
    per distance class of edges (see `_ball_masses`).  An infinite radius
    gives the total mass.
    """
    radius = _check_radii([radius])
    levels, sx = _center_offsets(params, [center])
    return float(_ball_masses(params, levels, sx, radius)[0])


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
    if len(centers) != len(radii):
        raise ValueError("need one radius per center")
    r = _check_radii(radii)
    levels, sx = _center_offsets(params, centers)
    small = _ball_masses(params, levels, sx, r)
    return _ball_masses(params, levels, sx, 2.0 * r) / small
