"""Fractional gradient seminorm on the boundary as a finite convex program.

For a boundary function f at resolution N, every unordered pair of
distinct leaves sits at one of finitely many ultrametric distances
d_j = (2/eps) e^(-eps*j); each distance falls into one dyadic annulus
[2^(-k-1), 2^(-k)) and that integer k is the pair's scale.  A gradient
system assigns one nonnegative leaf array g_k per occurring scale, subject
to |f_a - f_b| <= d^theta * (g_k(a) + g_k(b)) for every pair at scale k.
The seminorm (p-th power) is the infimum of sum_k mean-with-weights of
g_k^p over all feasible systems.

Scales that occur at no pair carry g_k = 0 at the optimum and are dropped.
The objective and the constraints decouple across scales, so the program
splits into one block per scale.  Each block is solved by one of three
methods, recorded per block in `HajlaszSolution.blocks`:

* p = 1: a linear program, solved exactly by HiGHS.
* p = 2: accelerated projected ascent on the dual.  For multipliers
  mu >= 0 (one per pair) the Lagrangian minimizer is g_i = s_i / (2 nu),
  with s_i the multiplier mass on leaf i, so the dual is quadratic and the
  inverse-Lipschitz step is exact.
* any other p > 1: a primal-dual interior-point method.  Each Newton step
  solves (diag(nu p (p-1) g^(p-2) + z/g) + A^T diag(mu/s) A) dg = r, with
  slacks s = A g - bound and multipliers mu (pairs) and z (g >= 0).  A
  block's pairs split at levels j >= j0, its coarsest level, so each
  pair lies inside one level-j0 vertex and the matrix is block-diagonal
  over those K^j0 vertices; it is assembled with one bincount and solved
  by one batched dense solve.

For p > 1 the dual function q(mu) = min_{g >= 0} L(g, mu) is a lower
bound for every mu >= 0 and any repaired primal point an upper bound, so
both iterative methods stop on the same certified relative gap.  A
brute-force grid search over small instances serves as an independent
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .boundary_norms import BoundaryFunction

__all__ = [
    "HajlaszInstance",
    "SolverConfig",
    "HajlaszSolution",
    "BlockReport",
    "ConvergenceError",
    "scale_for_distance",
    "hajlasz_feasible",
    "hajlasz_energy",
    "hajlasz_minimize",
    "hajlasz_oracle",
]

_ORACLE_MAX_LEAVES = 8
_ORACLE_MAX_SCALES = 3
_ORACLE_POINT_BUDGET = 20_000_000


class ConvergenceError(RuntimeError):
    """The solver hit its iteration cap before certifying its tolerance."""


def scale_for_distance(d: float) -> int:
    """The integer k with 2^(-k-1) <= d < 2^(-k)."""
    if d <= 0:
        raise ValueError("distance must be positive")
    k = int(math.floor(-math.log2(d)))
    while 2.0**-k <= d:
        k -= 1
    while 2.0 ** (-k - 1) > d:
        k += 1
    return k


class HajlaszInstance:
    """A boundary function with precomputed pair constraints per scale."""

    def __init__(self, f: BoundaryFunction, theta: float, p: float, epsilon: float):
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if p < 1:
            raise ValueError("p must be at least 1")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.f = f
        self.theta = theta
        self.p = p
        self.epsilon = epsilon

        K, N = f.K, f.depth
        self.split_distances = 2.0 / epsilon * np.exp(-epsilon * np.arange(N))
        self.scale_of_level = [scale_for_distance(float(d)) for d in self.split_distances]

        # constraints per scale: arrays (ia, ib, bound) with
        # bound = |f_a - f_b| / d^theta; vacuous (zero-difference) pairs dropped
        per_scale: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        vals = f.values
        for j in range(N):
            m = K ** (N - j - 1)
            dj = float(self.split_distances[j])
            k = self.scale_of_level[j]
            ia_parts, ib_parts = [], []
            for v in range(K**j):
                base = v * K * m
                for c1 in range(K):
                    for c2 in range(c1 + 1, K):
                        aa = base + c1 * m + np.arange(m)
                        bb = base + c2 * m + np.arange(m)
                        ia_parts.append(np.repeat(aa, m))
                        ib_parts.append(np.tile(bb, m))
            ia = np.concatenate(ia_parts)
            ib = np.concatenate(ib_parts)
            bound = np.abs(vals[ia] - vals[ib]) / dj**theta
            keep = bound > 0
            if keep.any():
                per_scale.setdefault(k, []).append((ia[keep], ib[keep], bound[keep]))

        self.constraints: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for k, parts in per_scale.items():
            self.constraints[k] = (
                np.concatenate([p0 for p0, _, _ in parts]),
                np.concatenate([p1 for _, p1, _ in parts]),
                np.concatenate([p2 for _, _, p2 in parts]),
            )
        self.scales = tuple(sorted(set(self.scale_of_level)))
        # the coarsest split level j0 of each scale: every pair of the scale
        # lies inside one level-j0 vertex, a block of K^(N - j0) leaves
        self.coarsest_level: dict[int, int] = {}
        for j, k in enumerate(self.scale_of_level):
            self.coarsest_level.setdefault(k, j)

    @property
    def leaf_measure(self) -> float:
        return self.f.leaf_measure

    @property
    def g_max(self) -> float:
        """Search-box edge for the grid oracle: max |f_a - f_b| * max d^(-theta)."""
        spread = float(self.f.values.max() - self.f.values.min())
        return spread * float(self.split_distances.min()) ** -self.theta


def hajlasz_feasible(inst: HajlaszInstance, g, rtol: float = 1e-9) -> bool:
    """Whether the gradient system g (mapping scale -> leaf array) satisfies
    every pair constraint.  Negative entries are rejected outright."""
    arrays = {}
    for k, arr in g.items():
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (inst.f.n_leaves,):
            raise ValueError(f"scale {k}: expected {inst.f.n_leaves} leaf values")
        if np.any(arr < 0):
            raise ValueError("gradient arrays must be nonnegative")
        arrays[k] = arr
    for k, (ia, ib, bound) in inst.constraints.items():
        arr = arrays.get(k)
        if arr is None:
            return False
        lhs = arr[ia] + arr[ib]
        if np.any(lhs < bound * (1.0 - rtol) - 1e-15):
            return False
    return True


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the p > 1 solvers.

    rel_tol is the certified relative duality gap at which a block stops
    and max_iters the cap on its iterations (dual-ascent steps at p = 2,
    Newton steps otherwise), beyond which ConvergenceError is raised.
    check_every (how often the gap and the step adaptation are evaluated)
    and step_scale (a factor on the inverse-Lipschitz step estimate) apply
    to the p = 2 dual ascent only.
    """

    max_iters: int = 100_000
    rel_tol: float = 1e-8
    check_every: int = 50
    step_scale: float = 1.0


@dataclass(frozen=True)
class BlockReport:
    """How one scale block was solved.

    method is "lp", "dual-ascent" or "interior-point"; iterations counts
    HiGHS iterations, dual-ascent steps or Newton steps; rel_gap is the
    final (upper - lower) / upper between the primal value and the dual
    bound (for "lp", the dual value HiGHS reports).
    """

    method: str
    iterations: int
    rel_gap: float
    converged: bool


@dataclass
class HajlaszSolution:
    """Solver output.  blocks maps each constrained scale to its report;
    iterations is the sum of their iterations and converged holds when
    every block converged."""

    value: float
    g: dict[int, np.ndarray] = field(repr=False)
    iterations: int
    converged: bool
    method: str
    blocks: dict[int, BlockReport]


def _active_leaves(ia, ib, n_leaves):
    """The leaves that occur in some pair, and the pairs in their local indices."""
    active = np.unique(np.concatenate([ia, ib]))
    remap = np.full(n_leaves, -1)
    remap[active] = np.arange(active.size)
    return active, remap[ia], remap[ib]


def _solve_scale_lp(nu, ia, ib, bound, n_leaves):
    active, la, lb = _active_leaves(ia, ib, n_leaves)
    rows = np.repeat(np.arange(ia.size), 2)
    cols = np.stack([la, lb], axis=1).ravel()
    data = np.full(2 * ia.size, -1.0)
    A = sparse.csr_matrix((data, (rows, cols)), shape=(ia.size, active.size))
    res = linprog(
        c=np.full(active.size, nu),
        A_ub=A,
        b_ub=-bound,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise ConvergenceError(f"linear program failed: {res.message}")
    g = np.zeros(n_leaves)
    g[active] = np.clip(res.x, 0.0, None)
    _repair(g, ia, ib, bound)
    primal = nu * float(np.sum(g))
    dual = -float(np.dot(res.ineqlin.marginals, bound))
    return g, BlockReport("lp", int(res.nit), (primal - dual) / primal, res.status == 0)


def _repair(g, ia, ib, bound):
    """Raise both endpoints of every violated constraint by half the deficit.

    Entries only grow, so one pass restores feasibility for all constraints."""
    deficit = bound - (g[ia] + g[ib])
    viol = deficit > 0
    if viol.any():
        np.add.at(g, ia[viol], 0.5 * deficit[viol])
        np.add.at(g, ib[viol], 0.5 * deficit[viol])


def _dual_point(nu, p, s, mu, bound):
    """The Lagrangian minimizer g over g >= 0 and q(mu), its value, given
    the multiplier mass s = A^T mu; q(mu) bounds the block optimum from
    below for every mu >= 0.  Near p = 1 the power can overflow far from
    the optimum; q(mu) is then -inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = (s / (p * nu)) ** (1.0 / (p - 1.0))
        q = nu * float(np.sum(g**p)) - float(np.dot(s, g)) + float(np.dot(mu, bound))
    return g, q if math.isfinite(q) else -math.inf


def _solve_scale_dual(nu, p, ia, ib, bound, n_leaves, cfg: SolverConfig):
    """Accelerated projected dual ascent on one scale block (used at p = 2).

    Maintains the best repaired primal point (seeded with the symmetric
    feasible start g = max(bound)/2) and the dual lower bound; returns when
    their relative gap drops below cfg.rel_tol.  If a gap check finds the
    dual value lower than before (the accelerated ascent is not monotone),
    the step is halved and the momentum reset.
    """
    active, la, lb = _active_leaves(ia, ib, n_leaves)
    n, m = active.size, ia.size
    q_exp = 1.0 / (p - 1.0)

    def primal_from(s):
        return (s / (p * nu)) ** q_exp

    def multiplier_mass(mu_vec):
        s = np.zeros(n)
        np.add.at(s, la, mu_vec)
        np.add.at(s, lb, mu_vec)
        return s

    deg = multiplier_mass(np.ones(m))
    sigma = cfg.step_scale * (p * nu) / float((deg[la] + deg[lb]).max())

    best = nu * float(np.sum(np.full(n, bound.max() / 2.0) ** p))
    best_g = np.full(n, bound.max() / 2.0)
    last_dual = -math.inf
    mu = np.zeros(m)
    mu_prev = mu.copy()
    tk = 1.0
    for t in range(cfg.max_iters):
        tk1 = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        y = np.maximum(mu + ((tk - 1.0) / tk1) * (mu - mu_prev), 0.0)
        tk = tk1
        g = primal_from(multiplier_mass(y))
        mu_prev = mu
        mu = np.maximum(0.0, y + sigma * (bound - (g[la] + g[lb])))
        if (t + 1) % cfg.check_every == 0:
            g, dual = _dual_point(nu, p, multiplier_mass(mu), mu, bound)
            gf = g.copy()
            _repair(gf, la, lb, bound)
            primal = nu * float(np.sum(gf**p))
            if primal < best:
                best = primal
                best_g = gf.copy()
            if best - dual <= cfg.rel_tol * max(best, 1e-300):
                out = np.zeros(n_leaves)
                out[active] = best_g
                gap = (best - dual) / best
                return out, BlockReport("dual-ascent", t + 1, gap, gap <= cfg.rel_tol)
            if dual < last_dual:
                sigma *= 0.5
                mu_prev = mu.copy()
                tk = 1.0
            last_dual = dual
    raise ConvergenceError(
        f"dual ascent did not certify the optimum within {cfg.max_iters} iterations"
    )


_CENTRING = 0.1
_TO_BOUNDARY = 0.99


def _max_step(x, dx):
    """The largest step in (0, 1] that keeps x + step * dx >= 0."""
    neg = dx < 0
    return min(1.0, float(np.min(-x[neg] / dx[neg]))) if neg.any() else 1.0


def _solve_scale_ipm(nu, p, ia, ib, bound, n_leaves, block, cfg: SolverConfig):
    """Primal-dual interior-point method on one scale block (p > 1).

    Minimizes nu * sum g^p subject to s = A g - bound >= 0 and g >= 0, with
    multipliers mu >= 0 for the pairs and z >= 0 for g, where A g pairs up
    g[a] + g[b].  The program is homogeneous, so it is solved for
    bound / max(bound) and the minimizer scaled back.  The iterates stay
    primal feasible (the start puts every leaf at its largest bound).  Each
    Newton step aims at complementarity products s*mu = g*z equal to
    _CENTRING times their current mean and moves all four variables by one
    step length, _TO_BOUNDARY of the way to the nearest bound.  The reduced
    Newton matrix lives on the leaves; every pair lies inside one run of
    `block` consecutive leaves (a vertex of the block's coarsest level),
    so the matrix is assembled into a (n_leaves / block, block, block)
    array and solved batch by batch, with an identity row for each leaf in
    no pair.  Stops on the certified gap between the better of the
    repaired iterate and the repaired Lagrangian minimizer of mu, and q(mu).
    """
    active, la, lb = _active_leaves(ia, ib, n_leaves)
    n, m = active.size, ia.size
    unit = float(bound.max())
    b = bound / unit
    # flat cells of the (a, b), (b, a), (a, a) and (b, b) entries of each
    # pair and of every leaf's diagonal in the batched matrix
    ra, rb = ia % block, ib % block
    leaves = np.arange(n_leaves)
    cells = np.concatenate(
        [ia * block + rb, ib * block + ra, ia * block + ra, ib * block + rb,
         leaves * block + leaves % block]
    )
    diag = np.ones(n_leaves)
    rhs = np.zeros(n_leaves)

    def pair_mass(w):
        return np.bincount(la, w, n) + np.bincount(lb, w, n)

    g = np.zeros(n)
    np.maximum.at(g, la, b)
    np.maximum.at(g, lb, b)
    s = g[la] + g[lb] - b
    start = p * nu * float(np.sum(g**p)) / (m + n)
    mu, z = start / s, start / g
    for t in range(cfg.max_iters):
        target = _CENTRING * (float(np.dot(s, mu)) + float(np.dot(g, z))) / (m + n)
        w = mu / s
        diag[active] = nu * p * (p - 1.0) * g ** (p - 2.0) + z / g
        rhs[active] = target / g - nu * p * g ** (p - 1.0) + pair_mass(target / s)
        system = np.bincount(
            cells, np.concatenate([w, w, w, w, diag]), n_leaves * block
        ).reshape(-1, block, block)
        dg = np.linalg.solve(system, rhs.reshape(-1, block, 1)).ravel()[active]
        ds = dg[la] + dg[lb]
        dmu = target / s - mu - w * ds
        dz = target / g - z - (z / g) * dg
        step = _TO_BOUNDARY * min(
            _max_step(g, dg), _max_step(s, ds), _max_step(mu, dmu), _max_step(z, dz)
        )
        g, s, mu, z = g + step * dg, s + step * ds, mu + step * dmu, z + step * dz

        gd, dual = _dual_point(nu, p, pair_mass(mu), mu, b)
        candidates = [g.copy(), gd] if math.isfinite(dual) else [g.copy()]
        for c in candidates:
            _repair(c, la, lb, b)
        values = [nu * float(np.sum(c**p)) for c in candidates]
        primal = min(values)
        if primal - dual <= cfg.rel_tol * primal:
            out = np.zeros(n_leaves)
            out[active] = unit * candidates[values.index(primal)]
            _repair(out, ia, ib, bound)
            gap = (primal - dual) / primal
            return out, BlockReport("interior-point", t + 1, gap, gap <= cfg.rel_tol)
    raise ConvergenceError(
        f"interior-point method did not certify the optimum within {cfg.max_iters} iterations"
    )


def hajlasz_minimize(
    inst: HajlaszInstance, config: SolverConfig | None = None
) -> HajlaszSolution:
    """Minimize the p-th-power objective over feasible gradient systems.

    Returns the per-scale minimizers (guaranteed feasible), the summed
    objective and one `BlockReport` per constrained scale.  Scales without
    constraints get the zero array.
    """
    cfg = config or SolverConfig()
    nu = inst.leaf_measure
    K, N, n_leaves = inst.f.K, inst.f.depth, inst.f.n_leaves
    g: dict[int, np.ndarray] = {k: np.zeros(n_leaves) for k in inst.scales}
    method = {1.0: "lp", 2.0: "dual-ascent"}.get(float(inst.p), "interior-point")
    blocks: dict[int, BlockReport] = {}
    for k, (ia, ib, bound) in inst.constraints.items():
        if method == "lp":
            g[k], blocks[k] = _solve_scale_lp(nu, ia, ib, bound, n_leaves)
        elif method == "dual-ascent":
            gk, blocks[k] = _solve_scale_dual(nu, inst.p, ia, ib, bound, n_leaves, cfg)
            _repair(gk, ia, ib, bound)
            g[k] = gk
        else:
            block = K ** (N - inst.coarsest_level[k])
            g[k], blocks[k] = _solve_scale_ipm(
                nu, inst.p, ia, ib, bound, n_leaves, block, cfg
            )
    value = sum(nu * float(np.sum(arr**inst.p)) for arr in g.values())
    return HajlaszSolution(
        value=value,
        g=g,
        iterations=sum(b.iterations for b in blocks.values()),
        converged=all(b.converged for b in blocks.values()),
        method=method,
        blocks=blocks,
    )


def hajlasz_energy(inst: HajlaszInstance, config: SolverConfig | None = None) -> float:
    return hajlasz_minimize(inst, config).value


def hajlasz_oracle(inst: HajlaszInstance, grid_resolution: int) -> float:
    """Exhaustive grid search over gradient systems in [0, g_max]^(scales x leaves).

    The grid has `grid_resolution` intervals per coordinate, so spacings
    halve when the resolution doubles and refined values can only
    decrease.  Returns an upper bound on the infimum; only small instances
    (at most 8 leaves and 3 scales) are accepted.
    """
    if grid_resolution < 1:
        raise ValueError("grid resolution must be at least 1")
    if inst.f.n_leaves > _ORACLE_MAX_LEAVES:
        raise ValueError("instance too large for the grid oracle (more than 8 leaves)")
    if len(inst.scales) > _ORACLE_MAX_SCALES:
        raise ValueError("instance too large for the grid oracle (more than 3 scales)")
    gmax = inst.g_max
    if gmax == 0.0:
        return 0.0
    h = gmax / grid_resolution
    nu = inst.leaf_measure
    total = 0.0
    for k in inst.scales:
        if k not in inst.constraints:
            continue
        ia, ib, bound = inst.constraints[k]
        active, la, lb = _active_leaves(ia, ib, inst.f.n_leaves)
        d = active.size
        n_points = (grid_resolution + 1) ** d
        if n_points > _ORACLE_POINT_BUDGET:
            raise ValueError("grid blow-up: too many grid points for the oracle")
        best = math.inf
        chunk = 1_000_000
        shape = (grid_resolution + 1,) * d
        for lo in range(0, n_points, chunk):
            idx = np.arange(lo, min(lo + chunk, n_points))
            G = np.stack(np.unravel_index(idx, shape), axis=1) * h
            feas = np.all(G[:, la] + G[:, lb] >= bound[None, :] - 1e-12, axis=1)
            if feas.any():
                obj = nu * np.sum(G[feas] ** inst.p, axis=1)
                best = min(best, float(obj.min()))
        total += best
    return total
