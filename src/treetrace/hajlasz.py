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
  inverse-Lipschitz step is exact.  One loop steps all blocks, each with
  its own step size, momentum and stop.  A block whose runs (one sibling
  pair over all vertices of a level) are large, and most of whose level
  pairs have a nonzero bound, holds its multipliers as dense
  (K^j, K(K-1)/2, m, m) arrays per split level j, so g[a] + g[b] is a
  broadcast add and the masses are sequential axis reductions; the other
  blocks share one gather and one bincount over their kept pairs.  Both sum each leaf's mass in
  the order np.add.at does over the block's first, then second, pair
  indices, so the iterates are those of solving each block on its own,
  bit for bit.
* any other p > 1: a primal-dual interior-point method.  Each Newton step
  solves (diag(nu p (p-1) g^(p-2) + z/g) + A^T diag(mu/s) A) dg = r, with
  slacks s = A g - bound and multipliers mu (pairs) and z (g >= 0).  A
  block's pairs split at levels j >= j0, its coarsest level, so each
  pair lies inside one level-j0 vertex and the matrix is block-diagonal
  over those K^j0 vertices; it is assembled with one bincount and solved
  by one batched dense solve.  The repaired minimizer is scaled down
  until its tightest pair holds with equality (the objective is
  homogeneous), which removes the slack the Newton iterates keep.

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
from .tree import split_distances

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
        self.split_distances = split_distances(epsilon, N)
        self.scale_of_level = [scale_for_distance(float(d)) for d in self.split_distances]

        # The pairs split at level j, as a dense (K^j, K(K-1)/2, m, m) array
        # of bounds |f_a - f_b| / d_j^theta with m = K^(N-j-1): a level-j
        # vertex, a sibling pair c1 < c2 in row-major order, the leaf a under
        # child c1 and the leaf b under child c2.  The constraints of a
        # scale are the pairs of its levels in this order, vacuous
        # (zero-bound) pairs dropped.
        pa, pb = np.triu_indices(K, 1)
        self.level_bounds: list[np.ndarray] = []
        per_scale: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        for j in range(N):
            m = K ** (N - j - 1)
            leaf = np.arange(f.n_leaves).reshape(K**j, K, m)
            x = f.values.reshape(K**j, K, m)
            dj = float(self.split_distances[j])
            bound = np.abs(x[:, pa, :, None] - x[:, pb, None, :]) / dj**theta
            self.level_bounds.append(bound)
            keep = bound > 0
            if keep.any():
                ia = np.broadcast_to(leaf[:, pa, :, None], bound.shape)[keep]
                ib = np.broadcast_to(leaf[:, pb, None, :], bound.shape)[keep]
                per_scale.setdefault(self.scale_of_level[j], []).append((ia, ib, bound[keep]))

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
    to the p = 2 dual ascent only.  max_iters and check_every must be
    positive integers, rel_tol finite and >= 0, step_scale finite and > 0.
    """

    max_iters: int = 100_000
    rel_tol: float = 1e-8
    check_every: int = 50
    step_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("max_iters", "check_every"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not 0.0 <= self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and >= 0, got {self.rel_tol!r}")
        if not 0.0 < self.step_scale < math.inf:
            raise ValueError(f"step_scale must be finite and > 0, got {self.step_scale!r}")


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


# Smallest run (the pairs of one sibling pair over all vertices of a split
# level, K^(2N - j - 2) of them) for which every level of a dual block
# must qualify for the block to be held densely; below it, the numpy calls
# per run cost more than the gathers and the bincount of the index form.
_DENSE_MIN_RUN = 2048
# Smallest share of a block's level pairs that must be kept (nonzero bound)
# for the block to be held densely.  The dense form steps every pair of its
# levels at about half the cost per pair of the index form, which steps the
# kept pairs only.
_DENSE_MIN_KEPT = 0.5


class _DualBlock:
    """One scale block of the p = 2 dual ascent: its kept pairs (ia, ib,
    bound), their active leaves, and the block's own step state.

    A dense block (`level_bounds` given, the instance's bound arrays of
    the block's split levels) holds a multiplier for every pair of them,
    zero-bound pairs included (their multipliers stay exactly 0), in the
    instance's pair order; `kept` locates the kept pairs among them.  Any
    other block holds its kept pairs only.
    """

    def __init__(self, k, ia, ib, bound, n_leaves, nu, p, cfg, level_bounds=None):
        self.k, self.ia, self.ib, self.bound = k, ia, ib, bound
        self.active, self.la, self.lb = _active_leaves(ia, ib, n_leaves)
        n = self.active.size
        deg = np.bincount(self.la, minlength=n) + np.bincount(self.lb, minlength=n)
        self.sigma = cfg.step_scale * (p * nu) / float((deg[self.la] + deg[self.lb]).max())
        self.best = nu * float(np.sum(np.full(n, bound.max() / 2.0) ** p))
        self.best_g = np.full(n, bound.max() / 2.0)
        self.last_dual = -math.inf
        self.tk = 1.0
        self.level_bounds = level_bounds
        if level_bounds is None:
            self.pair_bound = bound
            self.kept = np.arange(bound.size)
        else:
            self.pair_bound = np.concatenate([b.ravel() for b in level_bounds])
            self.kept = np.flatnonzero(self.pair_bound > 0)
        self.mu = np.zeros(self.pair_bound.size)
        self.mu_prev = self.mu.copy()


class _DenseMass:
    """Multiplier mass and pair sums of one dense block, by axis reductions.

    At split level j the multipliers are a (K^j, P, m, m) array: vertex,
    sibling pair (c1, c2), leaf a under c1, leaf b under c2.  A leaf's mass
    is summed as np.add.at sums it: from 0, its first-index pairs in pair
    order (by level, pair, then b), then its second-index pairs (by level,
    pair, then a).  So the runs go in that order: pair (c1, c2) of level j
    adds its b-sums to the leaves under c1, then, after all first-index
    runs, its a-sums to the leaves under c2.  Each run is one reduction
    over an outer axis, which numpy adds term by term in order (over the
    contiguous last axis it would sum pairwise, in another order): over a
    of the pair's (vertex, a, b) slice, or over b of its transposed copy.
    A run that must continue sums already made starts from them, put as
    the first term ahead of the run's terms in a scratch array.  The tests
    hold these sums to np.add.at's bit for bit.
    """

    def __init__(self, blk, y, pair_sum, s, g):
        V, P, m, _ = blk.level_bounds[0].shape
        K = s.size // (V * m)
        pa, pb = np.triu_indices(K, 1)
        self.leaf_mass, self.runs, self.sums = s, [], []
        levels, start = [], 0
        for bound in blk.level_bounds:
            V, P, m, _ = bound.shape
            seg = slice(start, start + bound.size)
            start += bound.size
            mu, out = y[seg].reshape(V, P, m, m), pair_sum[seg].reshape(V, P, m, m)
            s_j, g_j = s.reshape(V, K, m), g.reshape(V, K, m)
            levels.append((mu, s_j, np.empty((V, m + 1, m))))
            for pair in range(P):
                self.sums.append((out[:, pair], g_j[:, pa[pair], :, None], g_j[:, pb[pair], None, :]))
        # The runs in summation order: (terms, the leaf masses they add to,
        # scratch, the scratch rows for the terms or None, continue?).  A
        # run continues if a run before it summed into any of its leaves;
        # the masses start from 0 if some leaves of such a run have none.
        touched = np.zeros(s.size, dtype=bool)
        self.from_zero = False
        for over_b, child in ((True, pa), (False, pb)):
            for mu, s_j, scratch in levels:
                t = touched.reshape(s_j.shape)
                for pair, c in enumerate(child):
                    cont = bool(t[:, c, :].any())
                    self.from_zero |= cont and not t[:, c, :].all()
                    t[:, c, :] = True
                    terms = mu[:, pair].transpose(0, 2, 1) if over_b else mu[:, pair]
                    body = scratch[:, 1:, :] if over_b or cont else None
                    self.runs.append((terms, s_j[:, c, :], scratch, body, cont))

    def mass(self):
        if self.from_zero:
            self.leaf_mass.fill(0.0)
        for terms, out, scratch, body, cont in self.runs:
            if cont:
                scratch[:, 0, :] = out
            if body is None:
                np.add.reduce(terms, axis=1, out=out)
            else:
                np.copyto(body, terms)
                np.add.reduce(scratch if cont else body, axis=1, out=out)

    def pair_sums(self):
        # g[a] + g[b] as a copy and an add, faster than one broadcast add
        for out, first, second in self.sums:
            np.copyto(out, second)
            np.add(first, out, out=out)


class _DualLayout:
    """The multipliers of the unsolved dual blocks in shared flat arrays,
    all advanced by one accelerated projected step at a time.

    Dense blocks come first, then the others; block i owns the pair
    entries `segments[i]` and the leaf entries `leaves[i]` (all n_leaves
    of them, a leaf in no pair at mass 0).  Each dense block sums its
    leaves' multiplier masses by `_DenseMass`.  The other blocks share one
    gather for g[a] + g[b] and one bincount over all their first and then
    all their second indices, which sums each leaf's mass in the order
    np.add.at does.
    """

    def __init__(self, blocks, n_leaves):
        dense = [b for b in blocks if b.level_bounds is not None]
        index = [b for b in blocks if b.level_bounds is None]
        self.blocks = blocks = dense + index
        ends = np.cumsum([b.pair_bound.size for b in blocks])
        self.segments = [slice(e - b.pair_bound.size, e) for e, b in zip(ends, blocks)]
        self.leaves = [slice(i * n_leaves, (i + 1) * n_leaves) for i in range(len(blocks))]
        self.mu = np.concatenate([b.mu for b in blocks])
        self.mu_prev = np.concatenate([b.mu_prev for b in blocks])
        self.bound = np.concatenate([b.pair_bound for b in blocks])
        self.y, self.pair_sum = np.empty_like(self.mu), np.empty_like(self.mu)
        self.s, self.g = np.zeros(len(blocks) * n_leaves), np.zeros(len(blocks) * n_leaves)
        self.y_parts = [self.y[seg] for seg in self.segments]
        self.step_parts = [self.pair_sum[seg] for seg in self.segments]
        self.dense = [
            _DenseMass(b, self.y[seg], self.pair_sum[seg], self.s[lv], self.g[lv])
            for b, seg, lv in zip(dense, self.segments, self.leaves)
        ]
        first = len(dense)
        self.index_pairs = slice(int(ends[first - 1]) if first else 0, None)
        self.index_leaves = slice(first * n_leaves, None)
        # the index blocks' pairs as leaf indices into s and g
        offsets = [lv.start for lv in self.leaves[first:]]
        none = np.zeros(0, dtype=np.intp)
        self.ia = np.concatenate([none, *(b.ia + o for b, o in zip(index, offsets))])
        self.ib = np.concatenate([none, *(b.ib + o for b, o in zip(index, offsets))])
        self.first_then_second = np.concatenate([self.ia, self.ib]) - first * n_leaves

    def _mass(self):
        """Every leaf's multiplier mass under the multipliers in y, into s."""
        for d in self.dense:
            d.mass()
        if self.ia.size:
            w = self.y[self.index_pairs]
            s = self.s[self.index_leaves]
            s[:] = np.bincount(self.first_then_second, np.concatenate([w, w]), s.size)

    def step(self, coef, p, nu, q_exp):
        """One step of every block; coef[i] is block i's momentum coefficient."""
        y = np.subtract(self.mu, self.mu_prev, out=self.y)
        for part, c in zip(self.y_parts, coef):
            part *= c
        y += self.mu
        np.maximum(y, 0.0, out=y)
        self._mass()
        g = np.divide(self.s, p * nu, out=self.g)
        g **= q_exp
        for d in self.dense:
            d.pair_sums()
        if self.ia.size:
            np.add(g[self.ia], g[self.ib], out=self.pair_sum[self.index_pairs])
        step = np.subtract(self.bound, self.pair_sum, out=self.pair_sum)
        for part, blk in zip(self.step_parts, self.blocks):
            part *= blk.sigma
        step += y
        self.mu, self.mu_prev = np.maximum(0.0, step, out=self.mu_prev), self.mu

    def mu_mass(self):
        """Every leaf's multiplier mass under the current multipliers."""
        np.copyto(self.y, self.mu)
        self._mass()
        return self.s

    def without(self, solved, n_leaves):
        """The layout of the blocks not in `solved`, multipliers kept."""
        for blk, seg in zip(self.blocks, self.segments):
            blk.mu, blk.mu_prev = self.mu[seg], self.mu_prev[seg]
        return _DualLayout([b for b in self.blocks if b.k not in solved], n_leaves)


def _solve_dual_blocks(inst: HajlaszInstance, cfg: SolverConfig):
    """Accelerated projected dual ascent on every scale block (used at p = 2).

    All blocks advance in one loop, each with its own step sigma, momentum
    and stop.  Every `cfg.check_every` steps each block computes its dual
    lower bound and repairs the Lagrangian minimizer into its best primal
    point (seeded with the symmetric feasible start g = max(bound)/2); a
    block stops when their relative gap drops below cfg.rel_tol.  If a
    check finds a block's dual value lower than before (the accelerated
    ascent is not monotone), its step is halved and its momentum reset.
    Returns scale -> (leaf array, BlockReport).
    """
    nu, p = inst.leaf_measure, inst.p
    K, N, n_leaves = inst.f.K, inst.f.depth, inst.f.n_leaves
    q_exp = 1.0 / (p - 1.0)
    blocks = []
    for k, (ia, ib, bound) in inst.constraints.items():
        levels = [j for j, kj in enumerate(inst.scale_of_level) if kj == k]
        level_pairs = sum(inst.level_bounds[j].size for j in levels)
        dense = (
            K ** (2 * N - levels[-1] - 2) >= _DENSE_MIN_RUN
            and ia.size >= _DENSE_MIN_KEPT * level_pairs
        )
        level_bounds = [inst.level_bounds[j] for j in levels] if dense else None
        blocks.append(_DualBlock(k, ia, ib, bound, n_leaves, nu, p, cfg, level_bounds))
    if not blocks:
        return {}
    lay = _DualLayout(blocks, n_leaves)
    solved = {}
    for t in range(cfg.max_iters):
        coef = []
        for blk in lay.blocks:
            tk1 = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * blk.tk * blk.tk))
            coef.append((blk.tk - 1.0) / tk1)
            blk.tk = tk1
        lay.step(coef, p, nu, q_exp)
        if (t + 1) % cfg.check_every:
            continue
        s = lay.mu_mass()
        for blk, seg, lv in zip(lay.blocks, lay.segments, lay.leaves):
            g, dual = _dual_point(nu, p, s[lv][blk.active], lay.mu[seg][blk.kept], blk.bound)
            gf = g.copy()
            _repair(gf, blk.la, blk.lb, blk.bound)
            primal = nu * float(np.sum(gf**p))
            if primal < blk.best:
                blk.best = primal
                blk.best_g = gf.copy()
            if blk.best - dual <= cfg.rel_tol * max(blk.best, 1e-300):
                out = np.zeros(n_leaves)
                out[blk.active] = blk.best_g
                gap = (blk.best - dual) / blk.best
                solved[blk.k] = out, BlockReport("dual-ascent", t + 1, gap, gap <= cfg.rel_tol)
                continue
            if dual < blk.last_dual:
                blk.sigma *= 0.5
                lay.mu_prev[seg] = lay.mu[seg]
                blk.tk = 1.0
            blk.last_dual = dual
        if len(solved) == len(blocks):
            return solved
        if any(blk.k in solved for blk in lay.blocks):
            lay = lay.without(solved, n_leaves)
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
            # Remove the slack left on every constraint: the objective is
            # homogeneous, so scaling g down until the tightest pair is
            # exactly tight keeps it feasible and can only lower the value,
            # by up to p times the relative slack.
            out *= float(np.max(bound / (out[ia] + out[ib])))
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
    solved = _solve_dual_blocks(inst, cfg) if method == "dual-ascent" else {}
    for k, (ia, ib, bound) in inst.constraints.items():
        if method == "lp":
            g[k], blocks[k] = _solve_scale_lp(nu, ia, ib, bound, n_leaves)
        elif method == "dual-ascent":
            g[k], blocks[k] = solved[k]
            _repair(g[k], ia, ib, bound)
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
