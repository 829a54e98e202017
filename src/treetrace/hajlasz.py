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
splits into one block per scale.  Each block is solved by one of two
methods, named in `HajlaszSolution.method`:

* p = 2: accelerated projected ascent on the dual.  For multipliers
  mu >= 0 (one per pair) the Lagrangian minimizer is g_i = s_i / (2 nu),
  with s_i the multiplier mass on leaf i, so the dual is quadratic and the
  inverse-Lipschitz step 2 nu / max(deg_a + deg_b) is exact; a block keeps
  it and restarts its momentum when its dual value falls.  One loop steps
  all blocks of a batch of instances, each with its own step, momentum and
  stop: `hajlasz_minimize_all` takes the p = 2 instances in order into
  batches of at most `_BATCH_PAIRS` = 2^15 leaf pairs (a larger instance
  alone), which bounds the loop's memory at about 2 MB.  A block whose
  runs (one sibling pair over all vertices of a level) are large, and most
  of whose level pairs have a nonzero bound, holds its multipliers as dense
  (K^j, K(K-1)/2, m, m) arrays per split level j, so g[a] + g[b] is a
  broadcast add and the masses are sequential axis reductions; the other
  blocks share one gather, one bincount and one np.add.at over their kept
  pairs.  Both sum each leaf's mass in the order np.add.at does over the
  block's first, then second, pair indices, so the iterates are those of
  solving each block on its own, bit for bit.
* every other p >= 1: a primal-dual interior-point method.  Each Newton
  step solves (diag(nu p (p-1) g^(p-2) + z/g + delta) + A^T diag(mu/s) A)
  dg = r, with slacks s = A g - bound and multipliers mu (pairs) and z
  (g >= 0).  delta is 0 at p > 1; at p = 1, where the matrix has no
  curvature term, the fixed delta = 1e-12 max(mu/s) keeps it nonsingular
  (at p = 6 the same term drives a slack to 0).  A block's pairs
  split at levels j >= j0, its coarsest level, so each pair lies inside
  one level-j0 vertex and the matrix is block-diagonal over those K^j0
  vertices; it is assembled with one bincount and solved by one batched
  dense solve.  The repaired minimizer is scaled down until its tightest
  pair holds with equality (the objective is homogeneous), which removes
  the slack the Newton iterates keep.

The dual function q(mu) = min_{g >= 0} L(g, mu) is a lower bound for
every mu >= 0 and any repaired primal point an upper bound, so both
methods stop on the same certified relative gap.  At p = 1 the Lagrangian
is bounded below only where the multiplier mass is at most nu, so the
bound is taken at mu scaled down into that set.  A brute-force grid
search over small instances serves as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boundary_norms import BoundaryFunction
from .tree import split_distances

__all__ = [
    "HajlaszInstance",
    "HajlaszSolution",
    "BlockReport",
    "ConvergenceError",
    "scale_for_distance",
    "hajlasz_feasible",
    "hajlasz_minimize",
    "hajlasz_minimize_all",
    "hajlasz_oracle",
]

_ORACLE_MAX_LEAVES = 8
_ORACLE_MAX_SCALES = 3
_ORACLE_POINT_BUDGET = 20_000_000
# a block stops at this certified relative duality gap, and raises
# ConvergenceError after this many iterations (dual-ascent steps at p = 2,
# Newton steps otherwise)
_REL_TOL = 1e-8
_MAX_ITERS = 100_000


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
class BlockReport:
    """How one scale block was solved: iterations counts its dual-ascent
    steps or Newton steps, and rel_gap is the final (upper - lower) / upper
    between the primal value and the dual bound, within `_REL_TOL` (a
    block that does not certify raises ConvergenceError)."""

    iterations: int
    rel_gap: float


@dataclass
class HajlaszSolution:
    """Solver output.  method is "dual-ascent" (p = 2) or
    "interior-point", the method of every block; blocks maps each
    constrained scale to its report, and iterations is the sum of their
    iterations."""

    value: float
    g: dict[int, np.ndarray] = field(repr=False)
    iterations: int
    method: str
    blocks: dict[int, BlockReport]


def _active_leaves(ia, ib, n_leaves):
    """The leaves that occur in some pair, and the pairs in their local
    indices (ia and ib themselves when every leaf occurs)."""
    active = np.unique(np.concatenate([ia, ib]))
    if active.size == n_leaves:
        return active, ia, ib
    remap = np.full(n_leaves, -1)
    remap[active] = np.arange(active.size)
    return active, remap[ia], remap[ib]


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
    the optimum; q(mu) is then -inf.  At p = 1, q(mu) is -inf unless
    s <= nu, so the bound is q(t mu) = t (mu . bound) with
    t = min(1, nu / max s), minimized by g = 0."""
    if p == 1.0:
        return np.zeros_like(s), min(1.0, nu / float(s.max())) * float(np.dot(mu, bound))
    with np.errstate(over="ignore", invalid="ignore"):
        g = (s / (p * nu)) ** (1.0 / (p - 1.0))
        q = nu * float(np.sum(g**p)) - float(np.dot(s, g)) + float(np.dot(mu, bound))
    return g, q if math.isfinite(q) else -math.inf


# Dual-ascent steps between two gap checks of a p = 2 block; a check
# restarts the block's momentum if its dual value fell.
_CHECK_EVERY = 50
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


# The p = 2 instances stepped by one loop hold at most this many leaf
# pairs in all, K^N (K^N - 1) / 2 each; a larger instance runs alone.  The
# loop's flat arrays take seven 8-byte entries per pair they step (1.8 MB
# at the bound), beside the four per pair the instances hold themselves.
_BATCH_PAIRS = 2**15


class _DualBlock:
    """One scale block of the p = 2 dual ascent: the scale k of the
    instance at position `at`, its kept pairs (ia, ib, bound), their
    active leaves, and the block's own step state.  Its momentum last
    restarted at step `restart`; `gap` is its relative gap at the last
    check (None before the first).

    A dense block (`level_bounds` given, the instance's bound arrays of
    the block's split levels) holds a multiplier for every pair of them,
    zero-bound pairs included (their multipliers stay exactly 0), in the
    instance's pair order; `kept` locates the kept pairs among them.  Any
    other block holds its kept pairs only.  Outside a layout the block
    holds its own multipliers in mu and mu_prev, None while they are 0.
    """

    def __init__(self, at, k, ia, ib, bound, n_leaves, nu, level_bounds=None):
        self.at, self.k, self.ia, self.ib, self.bound = at, k, ia, ib, bound
        self.n_leaves, self.nu = n_leaves, nu
        self.active, self.la, self.lb = _active_leaves(ia, ib, n_leaves)
        n = self.active.size
        deg = np.bincount(self.la, minlength=n) + np.bincount(self.lb, minlength=n)
        self.sigma = (2.0 * nu) / float((deg[self.la] + deg[self.lb]).max())
        self.best = nu * float(np.sum(np.full(n, bound.max() / 2.0) ** 2.0))
        self.best_g = np.full(n, bound.max() / 2.0)
        self.last_dual = -math.inf
        self.gap = None
        self.restart = 0
        self.level_bounds = level_bounds
        if level_bounds is None:
            self.pair_bound, self.kept = bound, slice(None)
        else:
            self.pair_bound = np.concatenate([b.ravel() for b in level_bounds])
            self.kept = np.flatnonzero(self.pair_bound > 0)
        self.mu = self.mu_prev = None


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

    def __init__(self, blk, y, start, s, g):
        V, P, m, _ = blk.level_bounds[0].shape
        K = s.size // (V * m)
        pa, pb = np.triu_indices(K, 1)
        self.leaf_mass, self.runs, self.sums = s, [], []
        levels = []
        for bound in blk.level_bounds:
            V, P, m, _ = bound.shape
            seg = slice(start, start + bound.size)
            start += bound.size
            s_j, g_j = s.reshape(V, K, m), g.reshape(V, K, m)
            levels.append((y[seg].reshape(V, P, m, m), s_j, np.empty((V, m + 1, m))))
            # the level's entries of a flat pair array, as (V, P, m, m), and
            # per sibling pair the g of its a and b leaves
            pairs = [(g_j[:, a, :, None], g_j[:, b, None, :]) for a, b in zip(pa, pb)]
            self.sums.append((seg, bound.shape, pairs))
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

    def pair_sums(self, flat):
        """g[a] + g[b] of every pair, into the block's entries of flat."""
        # as a copy and an add, faster than one broadcast add
        for seg, shape, pairs in self.sums:
            out = flat[seg].reshape(shape)
            for pair, (first, second) in enumerate(pairs):
                o = out[:, pair]
                np.copyto(o, second)
                np.add(first, o, out=o)


class _DualLayout:
    """The multipliers of unsolved dual blocks, of one or more instances,
    in shared flat arrays, all advanced by one accelerated projected step
    at a time.

    Dense blocks come first, then the others; block i owns the pair
    entries `segments[i]` and the leaf entries `leaves[i]` (all n_leaves
    of its instance, a leaf in no pair at mass 0).  Each dense block sums
    its leaves' multiplier masses by `_DenseMass`.  The other blocks share
    one gather for g[a] + g[b], and one bincount over all their first
    indices continued by np.add.at over all their second ones, which sums
    each leaf's mass in the order np.add.at does.  The blocks' constants are spread over the flat
    arrays, the step sigma per pair and 2 nu per leaf, so each is applied
    by one operation; consecutive blocks whose momentum restarted at the
    same step share its coefficient, and `runs` holds their pair entries
    as one slice each.
    """

    def __init__(self, blocks):
        dense = [b for b in blocks if b.level_bounds is not None]
        index = [b for b in blocks if b.level_bounds is None]
        self.blocks = blocks = dense + index
        sizes = [b.pair_bound.size for b in blocks]
        counts = [b.n_leaves for b in blocks]
        ends, leaf_ends = np.cumsum(sizes).tolist(), np.cumsum(counts).tolist()
        self.segments = [slice(e - n, e) for e, n in zip(ends, sizes)]
        self.leaves = [slice(e - n, e) for e, n in zip(leaf_ends, counts)]
        self.mu, self.mu_prev = np.zeros(ends[-1]), np.zeros(ends[-1])
        for b, seg in zip(blocks, self.segments):
            if b.mu is not None:
                self.mu[seg], self.mu_prev[seg] = b.mu, b.mu_prev
            b.mu = b.mu_prev = None
        self.bound = np.concatenate([b.pair_bound for b in blocks])
        self.sigma = np.repeat([b.sigma for b in blocks], sizes)
        self.two_nu = np.repeat([2.0 * b.nu for b in blocks], counts)
        self.y = np.empty_like(self.mu)
        self.s, self.g = np.zeros(leaf_ends[-1]), np.zeros(leaf_ends[-1])
        self.dense = [
            _DenseMass(b, self.y, seg.start, self.s[lv], self.g[lv])
            for b, seg, lv in zip(dense, self.segments, self.leaves)
        ]
        first = len(dense)
        start = ends[first - 1] if first else 0
        base = leaf_ends[first - 1] if first else 0
        self.index_pairs = slice(start, None)
        self.index_s, self.index_g = self.s[base:], self.g[base:]
        # the index blocks' pairs as leaf indices into index_s and index_g
        self.ia = np.empty(ends[-1] - start, dtype=np.intp)
        self.ib = np.empty_like(self.ia)
        for b, seg, lv in zip(index, self.segments[first:], self.leaves[first:]):
            at = slice(seg.start - start, seg.stop - start)
            np.add(b.ia, lv.start - base, out=self.ia[at])
            np.add(b.ib, lv.start - base, out=self.ib[at])
        self.set_runs()

    def set_runs(self):
        """Group consecutive blocks of one momentum restart into runs."""
        runs = []
        for blk, seg in zip(self.blocks, self.segments):
            if runs and runs[-1][1] == blk.restart:
                runs[-1] = slice(runs[-1][0].start, seg.stop), blk.restart
            else:
                runs.append((seg, blk.restart))
        self.runs = [(self.y[seg], restart) for seg, restart in runs]

    def _mass(self):
        """Every leaf's multiplier mass under the multipliers in y, into s."""
        for d in self.dense:
            d.mass()
        if self.ia.size:
            w, s = self.y[self.index_pairs], self.index_s
            s[:] = np.bincount(self.ia, w, s.size)
            np.add.at(s, self.ib, w)

    def step(self, t, momentum):
        """Step t of every block; momentum[i] is the coefficient of the
        i-th step after a restart."""
        y = np.subtract(self.mu, self.mu_prev, out=self.y)
        for part, restart in self.runs:
            part *= momentum[t - restart]
        y += self.mu
        np.maximum(y, 0.0, out=y)
        self._mass()
        np.divide(self.s, self.two_nu, out=self.g)
        # mu_prev is dead once y is formed: the pair sums g[a] + g[b], then
        # the step and the new multipliers, go there
        step = self.mu_prev
        for d in self.dense:
            d.pair_sums(step)
        if self.ia.size:
            out = np.take(self.index_g, self.ib, out=step[self.index_pairs])
            np.add(self.index_g[self.ia], out, out=out)
        np.subtract(self.bound, step, out=step)
        step *= self.sigma
        step += y
        self.mu, self.mu_prev = np.maximum(0.0, step, out=step), self.mu

    def mu_mass(self):
        """Every leaf's multiplier mass under the current multipliers."""
        np.copyto(self.y, self.mu)
        self._mass()
        return self.s

    def unsolved(self, solved):
        """The blocks not in `solved`, each given a copy of its multipliers."""
        blocks = []
        for blk, seg in zip(self.blocks, self.segments):
            if (blk.at, blk.k) not in solved:
                blk.mu, blk.mu_prev = self.mu[seg].copy(), self.mu_prev[seg].copy()
                blocks.append(blk)
        return blocks


def _solve_dual_blocks(batch):
    """Accelerated projected dual ascent on every scale block of the p = 2
    instances `batch`, a list of (position, instance).

    All blocks of all the instances advance in one loop, each with its own
    step sigma, momentum and stop, so each takes the steps it would take
    solved alone.  At p = 2 the Lagrangian minimizer is g = s / (2 nu), and
    sigma = 2 nu / max(deg_a + deg_b), set once per block, is the inverse
    Lipschitz constant of the dual's gradient.  Every `_CHECK_EVERY` steps
    each block computes its dual lower bound and repairs the Lagrangian
    minimizer into its best primal point (from the feasible g = max(bound)/2);
    it stops when their relative gap drops below `_REL_TOL` and restarts its
    momentum when its dual value fell (the ascent is not monotone).  Returns
    (position, scale) -> (leaf array, BlockReport); the ConvergenceError
    raised at `_MAX_ITERS` names every block left uncertified.
    """
    blocks = []
    for at, inst in batch:
        K, N, n_leaves = inst.f.K, inst.f.depth, inst.f.n_leaves
        for k, (ia, ib, bound) in inst.constraints.items():
            levels = [j for j, kj in enumerate(inst.scale_of_level) if kj == k]
            level_pairs = sum(inst.level_bounds[j].size for j in levels)
            dense = (
                K ** (2 * N - levels[-1] - 2) >= _DENSE_MIN_RUN
                and ia.size >= _DENSE_MIN_KEPT * level_pairs
            )
            level_bounds = [inst.level_bounds[j] for j in levels] if dense else None
            blocks.append(
                _DualBlock(at, k, ia, ib, bound, n_leaves, inst.leaf_measure, level_bounds)
            )
    if not blocks:
        return {}
    lay = _DualLayout(blocks)
    # the momentum coefficient of the i-th step after a restart
    solved, momentum, tk = {}, [], 1.0
    for t in range(_MAX_ITERS):
        tk1 = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        momentum.append((tk - 1.0) / tk1)
        tk = tk1
        lay.step(t, momentum)
        if (t + 1) % _CHECK_EVERY:
            continue
        s = lay.mu_mass()
        before, restarted = len(solved), False
        for blk, seg, lv in zip(lay.blocks, lay.segments, lay.leaves):
            nu = blk.nu
            g, dual = _dual_point(nu, 2.0, s[lv][blk.active], lay.mu[seg][blk.kept], blk.bound)
            _repair(g, blk.la, blk.lb, blk.bound)
            primal = nu * float(np.sum(g**2.0))
            if primal < blk.best:
                blk.best, blk.best_g = primal, g
            blk.gap = (blk.best - dual) / blk.best
            if blk.best - dual <= _REL_TOL * max(blk.best, 1e-300):
                out = np.zeros(blk.n_leaves)
                out[blk.active] = blk.best_g
                solved[blk.at, blk.k] = out, BlockReport(t + 1, blk.gap)
                continue
            if dual < blk.last_dual:
                lay.mu_prev[seg] = lay.mu[seg]
                blk.restart = t + 1
                restarted = True
            blk.last_dual = dual
        if len(solved) == len(blocks):
            return solved
        if len(solved) > before:
            unsolved = lay.unsolved(solved)
            # the old arrays go before the new ones are made
            del lay, s
            lay = _DualLayout(unsolved)
        elif restarted:
            lay.set_runs()
    insts = dict(batch)
    left = "; ".join(
        f"instance {blk.at} (K={insts[blk.at].f.K}, depth {insts[blk.at].f.depth}) "
        f"scale {blk.k}: "
        + ("no gap check" if blk.gap is None else f"relative gap {blk.gap:.3g}")
        for blk in lay.blocks
    )
    raise ConvergenceError(
        f"dual ascent did not certify the optimum within {_MAX_ITERS} iterations: {left}"
    )


_CENTRING = 0.1
_TO_BOUNDARY = 0.99
# at p = 1 the Newton matrix has no curvature term; this times the largest
# mu/s is added to its diagonal to keep it nonsingular
_DIAGONAL = 1e-12


def _max_step(x, dx):
    """The largest step in (0, 1] that keeps x + step * dx >= 0."""
    neg = dx < 0
    return min(1.0, float(np.min(-x[neg] / dx[neg]))) if neg.any() else 1.0


def _solve_scale_ipm(nu, p, ia, ib, bound, n_leaves, block, where):
    """Primal-dual interior-point method on one scale block (p >= 1).

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
    no pair.  At p = 1 its diagonal also carries _DIAGONAL times the
    largest mu/s.  Stops on the certified gap between the better of the
    repaired iterate and the repaired Lagrangian minimizer of mu, and
    q(mu).  A Newton system that is not finite or not solvable raises
    ConvergenceError at once, as the iteration cap does; `where` names the
    block in the message.
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
    stop = f"interior-point method at p = {p:g} did not certify the optimum of {where}"
    for t in range(_MAX_ITERS):
        target = _CENTRING * (float(np.dot(s, mu)) + float(np.dot(g, z))) / (m + n)
        # a slack or a leaf value can underflow; the check below stops there
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            w = mu / s
            diag[active] = nu * p * (p - 1.0) * g ** (p - 2.0) + z / g
            if p == 1.0:
                diag[active] += _DIAGONAL * w.max()
            rhs[active] = target / g - nu * p * g ** (p - 1.0) + pair_mass(target / s)
        system = np.bincount(
            cells, np.concatenate([w, w, w, w, diag]), n_leaves * block
        ).reshape(-1, block, block)
        if not (np.isfinite(system).all() and np.isfinite(rhs).all()):
            raise ConvergenceError(f"{stop}: its Newton system is not finite after {t} steps")
        try:
            dg = np.linalg.solve(system, rhs.reshape(-1, block, 1)).ravel()[active]
        except np.linalg.LinAlgError:
            singular = f"{stop}: its Newton matrix is singular after {t} steps"
            raise ConvergenceError(singular) from None
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
        # far from the optimum the Lagrangian minimizer's value can overflow
        with np.errstate(over="ignore"):
            values = [nu * float(np.sum(c**p)) for c in candidates]
        primal = min(values)
        if primal - dual <= _REL_TOL * primal:
            out = np.zeros(n_leaves)
            out[active] = unit * candidates[values.index(primal)]
            _repair(out, ia, ib, bound)
            # Remove the slack left on every constraint: the objective is
            # homogeneous, so scaling g down until the tightest pair is
            # exactly tight keeps it feasible and can only lower the value,
            # by up to p times the relative slack.
            out *= float(np.max(bound / (out[ia] + out[ib])))
            _repair(out, ia, ib, bound)
            return out, BlockReport(t + 1, (primal - dual) / primal)
    raise ConvergenceError(f"{stop} within {_MAX_ITERS} iterations")


def hajlasz_minimize(inst: HajlaszInstance) -> HajlaszSolution:
    """Minimize the p-th-power objective over feasible gradient systems.

    Returns the per-scale minimizers (guaranteed feasible), the summed
    objective and one `BlockReport` per constrained scale.  Scales without
    constraints get the zero array.  Every block stops at a certified
    relative gap of `_REL_TOL` = 1e-8; one that has not reached it after
    `_MAX_ITERS` = 100,000 iterations raises ConvergenceError.
    """
    return hajlasz_minimize_all([inst])[0]


def hajlasz_minimize_all(instances) -> list[HajlaszSolution]:
    """`hajlasz_minimize` of each instance, in order.

    The p = 2 instances are taken in order into batches whose pair counts,
    K^N (K^N - 1) / 2 each, add up to at most `_BATCH_PAIRS` (a larger
    instance alone), and the scale blocks of a batch share one dual-ascent
    loop.  Each block takes the steps it takes solved alone, so every
    solution is that of its instance alone, bit for bit.  The other
    instances go block by block through the interior-point method.  A
    ConvergenceError from a batch names each block it left uncertified,
    with its instance's position in `instances`.
    """
    instances = list(instances)
    solved = {}
    for batch in _batches(instances):
        solved.update(_solve_dual_blocks(batch))
    return [_solution(inst, at, solved) for at, inst in enumerate(instances)]


def _batches(instances):
    """The p = 2 instances as (position, instance), in `_BATCH_PAIRS` batches."""
    batch, pairs = [], 0
    for at, inst in enumerate(instances):
        if inst.p != 2.0:
            continue
        size = inst.f.n_leaves * (inst.f.n_leaves - 1) // 2
        if batch and pairs + size > _BATCH_PAIRS:
            yield batch
            batch, pairs = [], 0
        batch.append((at, inst))
        pairs += size
    if batch:
        yield batch


def _solution(inst, at, solved) -> HajlaszSolution:
    """The solution of the instance at position `at`, its dual-ascent
    blocks taken from `solved`, the others solved here."""
    nu = inst.leaf_measure
    K, N, n_leaves = inst.f.K, inst.f.depth, inst.f.n_leaves
    g: dict[int, np.ndarray] = {k: np.zeros(n_leaves) for k in inst.scales}
    method = "dual-ascent" if inst.p == 2.0 else "interior-point"
    blocks: dict[int, BlockReport] = {}
    for k, (ia, ib, bound) in inst.constraints.items():
        if method == "dual-ascent":
            g[k], blocks[k] = solved[at, k]
            _repair(g[k], ia, ib, bound)
        else:
            block = K ** (N - inst.coarsest_level[k])
            where = f"instance {at} (K={K}, depth {N}) scale {k}"
            g[k], blocks[k] = _solve_scale_ipm(
                nu, inst.p, ia, ib, bound, n_leaves, block, where
            )
    value = sum(nu * float(np.sum(arr**inst.p)) for arr in g.values())
    return HajlaszSolution(
        value=value,
        g=g,
        iterations=sum(b.iterations for b in blocks.values()),
        method=method,
        blocks=blocks,
    )


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
