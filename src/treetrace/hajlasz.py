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
  of whose level pairs have a nonzero bound, is held in the dense form:
  its multipliers are (K^j, K(K-1)/2, m, m) arrays per split level j, so
  g[a] + g[b] is a broadcast add and the masses are axis sums.  The other
  blocks are held in the index form, one gather and two bincounts (first
  indices, then second) over their kept pairs.  A block's form depends on
  its instance only and its sums on its own arrays only, so a solution is
  the same bit for bit alone or in any batch.  The two forms sum a leaf's
  mass in different orders; both stop at the certified gap, so their
  values agree within it.
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
# hajlasz_feasible accepts a pair whose g[a] + g[b] falls short of its bound
# by this much relative
_FEASIBLE_RTOL = 1e-9


class ConvergenceError(RuntimeError):
    """The solver hit its iteration cap, or could not take a Newton step,
    before it certified its tolerance.

    `blocks` lists each block it left uncertified as (position, block,
    why): the position of the block's instance among those solved together,
    the block ("(K=2, depth 4) scale 3") and what stopped it.  The message
    is `what` followed by those blocks, each one's instance named by
    `names` (position -> name, "instance <position>" by default).
    """

    def __init__(self, what, blocks=(), names=None):
        self.what, self.blocks = what, tuple(blocks)
        names = names or {}
        super().__init__(
            what
            + "; ".join(
                f"{names.get(at, f'instance {at}')} {block}: {why}"
                for at, block, why in self.blocks
            )
        )

    def named(self, names) -> ConvergenceError:
        """The same error with the instance at position i named names[i]."""
        return ConvergenceError(self.what, self.blocks, names)


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
                ia = leaf[:, pa, :, None].repeat(m, axis=3)[keep]
                ib = leaf[:, pb, None, :].repeat(m, axis=2)[keep]
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


def hajlasz_feasible(inst: HajlaszInstance, g) -> bool:
    """Whether the gradient system g (mapping scale -> leaf array) satisfies
    every pair constraint, to `_FEASIBLE_RTOL` relative.  Negative entries
    are rejected outright."""
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
        if np.any(lhs < bound * (1.0 - _FEASIBLE_RTOL) - 1e-15):
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


def _pair_mass(ia, ib, w, n):
    """A^T w: each of the n leaves' sum of w over its pairs (ia, ib), its
    first-index pairs summed apart from its second-index ones; w None counts."""
    return np.bincount(ia, w, n) + np.bincount(ib, w, n)


def _active_leaves(ia, ib, n_leaves):
    """The leaves that occur in some pair, and the pairs in their local
    indices (ia and ib themselves when every leaf occurs)."""
    active = np.flatnonzero(_pair_mass(ia, ib, None, n_leaves))
    if active.size == n_leaves:
        return active, ia, ib
    remap = np.full(n_leaves, -1)
    remap[active] = np.arange(active.size)
    return active, remap[ia], remap[ib]


def _repair(g, ia, ib, bound):
    """Raise both endpoints of every violated constraint by half the deficit.

    Entries only grow, so one pass restores feasibility for all constraints."""
    deficit = g[ia]
    deficit += g[ib]
    np.subtract(bound, deficit, out=deficit)
    viol = deficit > 0
    if viol.any():
        half = 0.5 * deficit[viol]
        np.add.at(g, ia[viol], half)
        np.add.at(g, ib[viol], half)


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
        deg = _pair_mass(ia, ib, None, n_leaves)
        self.active = np.flatnonzero(deg)
        # selects the active leaves from an array over all leaves
        self.active_sel = slice(None) if self.active.size == n_leaves else self.active
        self.sigma = (2.0 * nu) / float((deg[ia] + deg[ib]).max())
        self.best_g = np.full(self.active.size, bound.max() / 2.0)
        self.best = nu * float(np.sum(self.best_g**2.0))
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


class _DualLayout:
    """The multipliers of unsolved dual blocks, of one or more instances,
    in shared flat arrays, all advanced by one accelerated projected step
    at a time.

    Dense blocks come first, then the others; block i owns the pair
    entries `segments[i]` and the leaf entries `leaves[i]` (all n_leaves
    of its instance, a leaf in no pair at mass 0).  At split level j a
    dense block's multipliers are a (K^j, P, m, m) array: vertex, sibling
    pair (c1, c2), leaf a under c1, leaf b under c2.  Its leaves' masses
    are plain reductions: for each pair, the leaves under c1 add the sums
    over b and the leaves under c2 the sums over a.  The other blocks
    share one gather for g[a] + g[b], and one `_pair_mass` (a bincount
    over all their first indices plus one over all their second ones).  The
    blocks' constants are spread over the flat arrays, the step sigma per
    pair and 2 nu per leaf, so each is applied by one operation;
    consecutive blocks whose momentum restarted at the same step share
    its coefficient, and `runs` holds their pair entries as one slice
    each.
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
        first = len(dense)
        start = ends[first - 1] if first else 0
        base = leaf_ends[first - 1] if first else 0
        # per split level of a dense block: its pair entries, their
        # (V, P, m, m) shape, the (V, K, m) views of its leaves' s and g,
        # and its sibling pairs (c1, c2) in order
        self.dense_s, self.dense = self.s[:base], []
        for b, seg, lv in zip(dense, self.segments, self.leaves):
            at = seg.start
            for bound in b.level_bounds:
                V, _, m, _ = bound.shape
                K = b.n_leaves // (V * m)
                s, g = self.s[lv].reshape(V, K, m), self.g[lv].reshape(V, K, m)
                pairs = list(zip(*np.triu_indices(K, 1)))
                self.dense.append((slice(at, at + bound.size), bound.shape, s, g, pairs))
                at += bound.size
        self.index_pairs = slice(start, None)
        self.index_s, self.index_g = self.s[base:], self.g[base:]
        # the index blocks' pairs as leaf indices into index_s and index_g
        self.ia = np.empty(ends[-1] - start, dtype=np.intp)
        self.ib = np.empty_like(self.ia)
        for b, seg, lv in zip(index, self.segments[first:], self.leaves[first:]):
            at = slice(seg.start - start, seg.stop - start)
            np.add(b.ia, lv.start - base, out=self.ia[at])
            np.add(b.ib, lv.start - base, out=self.ib[at])
        self.n_dense, self.index_leaves = first, slice(base, None)
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
        self.dense_s.fill(0.0)
        for seg, shape, s, _, pairs in self.dense:
            mu = self.y[seg].reshape(shape)
            over_b, over_a = mu.sum(axis=3), mu.sum(axis=2)
            for q, (c1, c2) in enumerate(pairs):
                s[:, c1] += over_b[:, q]
                s[:, c2] += over_a[:, q]
        if self.ia.size:
            s = self.index_s
            s[:] = _pair_mass(self.ia, self.ib, self.y[self.index_pairs], s.size)

    def pair_sums(self, flat):
        """g[a] + g[b] of every pair of the dense blocks, into their
        entries of flat."""
        for seg, shape, _, g, pairs in self.dense:
            out = flat[seg].reshape(shape)
            # as a copy and an add, faster than one broadcast add
            for q, (c1, c2) in enumerate(pairs):
                o = out[:, q]
                np.copyto(o, g[:, c2, None, :])
                np.add(g[:, c1, :, None], o, out=o)

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
        self.pair_sums(step)
        if self.ia.size:
            # mode "clip" (the indices are in range) writes straight into
            # out; the default "raise" goes through a buffer
            out = np.take(self.index_g, self.ib, out=step[self.index_pairs], mode="clip")
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

    def gap_points(self):
        """Each block's dual value q(mu) under the current multipliers mu,
        and the value and active-leaf array of its repaired Lagrangian
        minimizer g = s / (2 nu): (dual, primal, g) in block order.  The
        elementwise work is done once for all blocks, and the repair once
        for all index blocks (a leaf's raises add up in its own pair order,
        as they do in its block alone); each block sums over its own active
        leaves, so every number is that of the block alone."""
        s = self.mu_mass()
        # far from the optimum the squares can overflow; q is then -inf
        with np.errstate(over="ignore", invalid="ignore"):
            g = s / self.two_nu
            square = g**2.0
            duals = []
            for blk, seg, lv in zip(self.blocks, self.segments, self.leaves):
                a = blk.active_sel
                q = (
                    blk.nu * float(square[lv][a].sum())
                    - float(s[lv][a].dot(g[lv][a]))
                    + float(self.mu[seg][blk.kept].dot(blk.bound))
                )
                duals.append(q if math.isfinite(q) else -math.inf)
        for blk, lv in zip(self.blocks[: self.n_dense], self.leaves):
            _repair(g[lv], blk.ia, blk.ib, blk.bound)
        if self.ia.size:
            _repair(g[self.index_leaves], self.ia, self.ib, self.bound[self.index_pairs])
        square = g**2.0
        points = []
        for blk, lv, dual in zip(self.blocks, self.leaves, duals):
            a = blk.active_sel
            points.append((dual, blk.nu * float(square[lv][a].sum()), g[lv][a]))
        return points

    def unsolved(self, solved):
        """The blocks not in `solved`, each given a copy of its multipliers."""
        blocks = []
        for blk, seg in zip(self.blocks, self.segments):
            if (blk.at, blk.k) not in solved:
                blk.mu, blk.mu_prev = self.mu[seg].copy(), self.mu_prev[seg].copy()
                blocks.append(blk)
        return blocks


def _dense_bounds(inst, k):
    """The bound arrays of the split levels of scale k if its p = 2 block is
    held in the dense form, else None."""
    K, N = inst.f.K, inst.f.depth
    levels = [j for j, kj in enumerate(inst.scale_of_level) if kj == k]
    level_pairs = sum(inst.level_bounds[j].size for j in levels)
    if (
        K ** (2 * N - levels[-1] - 2) >= _DENSE_MIN_RUN
        and inst.constraints[k][0].size >= _DENSE_MIN_KEPT * level_pairs
    ):
        return [inst.level_bounds[j] for j in levels]
    return None


def _solve_dual_blocks(batch):
    """Accelerated projected dual ascent on every scale block of the p = 2
    instances `batch`, a list of (position, instance).

    All blocks of all the instances advance in one loop, each with its own
    step sigma, momentum and stop, so each takes the steps it would take
    solved alone.  At p = 2 the Lagrangian minimizer is g = s / (2 nu), and
    sigma = 2 nu / max(deg_a + deg_b), set once per block, is the inverse
    Lipschitz constant of the dual's gradient.  Every `_CHECK_EVERY` steps
    each block computes its dual lower bound and repairs the Lagrangian
    minimizer into its best primal point (from the feasible g = max(bound)/2),
    all blocks at once (`_DualLayout.gap_points`);
    it stops when their relative gap drops below `_REL_TOL` and restarts its
    momentum when its dual value fell (the ascent is not monotone).  Returns
    (position, scale) -> (leaf array, BlockReport); the ConvergenceError
    raised at `_MAX_ITERS` names every block left uncertified.
    """
    blocks = [
        _DualBlock(
            at, k, ia, ib, bound, inst.f.n_leaves, inst.leaf_measure, _dense_bounds(inst, k)
        )
        for at, inst in batch
        for k, (ia, ib, bound) in inst.constraints.items()
    ]
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
        before, restarted = len(solved), False
        for (dual, primal, g), blk, seg in zip(lay.gap_points(), lay.blocks, lay.segments):
            if primal < blk.best:
                blk.best, blk.best_g = primal, g.copy()
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
            del lay
            lay = _DualLayout(unsolved)
        elif restarted:
            lay.set_runs()
    insts = dict(batch)
    raise ConvergenceError(
        f"dual ascent did not certify the optimum within {_MAX_ITERS} iterations: ",
        [
            (
                blk.at,
                _block_name(insts[blk.at], blk.k),
                "no gap check" if blk.gap is None else f"relative gap {blk.gap:.3g}",
            )
            for blk in lay.blocks
        ],
    )


def _block_name(inst, k):
    return f"(K={inst.f.K}, depth {inst.f.depth}) scale {k}"


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
    ConvergenceError at once, as the iteration cap does; `where`, the
    block's instance position and name, names the block in the error.
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

    g = np.zeros(n)
    np.maximum.at(g, la, b)
    np.maximum.at(g, lb, b)
    s = g[la] + g[lb] - b
    start = p * nu * float(np.sum(g**p)) / (m + n)
    mu, z = start / s, start / g
    stop = f"interior-point method at p = {p:g} did not certify the optimum of "
    for t in range(_MAX_ITERS):
        target = _CENTRING * (float(np.dot(s, mu)) + float(np.dot(g, z))) / (m + n)
        # a slack or a leaf value can underflow; the check below stops there
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            w = mu / s
            diag[active] = nu * p * (p - 1.0) * g ** (p - 2.0) + z / g
            if p == 1.0:
                diag[active] += _DIAGONAL * w.max()
            rhs[active] = target / g - nu * p * g ** (p - 1.0)
            rhs[active] += _pair_mass(la, lb, target / s, n)
        system = np.bincount(
            cells, np.concatenate([w, w, w, w, diag]), n_leaves * block
        ).reshape(-1, block, block)
        if not (np.isfinite(system).all() and np.isfinite(rhs).all()):
            not_finite = f"its Newton system is not finite after {t} steps"
            raise ConvergenceError(stop, [(*where, not_finite)])
        try:
            dg = np.linalg.solve(system, rhs.reshape(-1, block, 1)).ravel()[active]
        except np.linalg.LinAlgError:
            singular = f"its Newton matrix is singular after {t} steps"
            raise ConvergenceError(stop, [(*where, singular)]) from None
        ds = dg[la] + dg[lb]
        dmu = target / s - mu - w * ds
        dz = target / g - z - (z / g) * dg
        step = _TO_BOUNDARY * min(
            _max_step(g, dg), _max_step(s, ds), _max_step(mu, dmu), _max_step(z, dz)
        )
        g, s, mu, z = g + step * dg, s + step * ds, mu + step * dmu, z + step * dz

        gd, dual = _dual_point(nu, p, _pair_mass(la, lb, mu, n), mu, b)
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
    gap = f"relative gap {(primal - dual) / primal:.3g} after {_MAX_ITERS} iterations"
    raise ConvergenceError(stop, [(*where, gap)])


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
    """`hajlasz_minimize` of each instance of the iterable `instances`, in
    order.

    The iterable is consumed batch by batch.  The p = 2 instances go in
    order into a batch until the next one would take its pair count, K^N
    (K^N - 1) / 2 per instance, past `_BATCH_PAIRS` (a larger instance goes
    alone); then the scale blocks of the batch are solved in one
    dual-ascent loop, their solutions built and the batch's instances
    dropped before the next instance is taken.  The other instances go
    block by block through the interior-point method as they arrive.  So
    one batch of instances is alive at a time when `instances` builds them
    lazily; a sweep at the default config (21,056 pairs) is one batch and
    one loop.  Each block takes the steps it takes solved alone, in the
    form (dense or index) its instance alone decides, so every solution is
    that of its instance alone, bit for bit; a block solved in the other
    form would agree within the certified gap.  A ConvergenceError names
    each block it left uncertified by its instance's position in
    `instances`.
    """
    solutions, batch, pairs = [], [], 0
    for inst in instances:
        if inst.p != 2.0:
            solutions.append(_solution(inst, len(solutions), {}))
            continue
        size = inst.f.n_leaves * (inst.f.n_leaves - 1) // 2
        if batch and pairs + size > _BATCH_PAIRS:
            _solve_batch(batch, solutions)
            batch, pairs = [], 0
        batch.append((len(solutions), inst))
        solutions.append(None)
        pairs += size
    if batch:
        _solve_batch(batch, solutions)
    return solutions


def _solve_batch(batch, solutions):
    """Solve the p = 2 instances `batch`, a list of (position, instance),
    into their places in `solutions`."""
    solved = _solve_dual_blocks(batch)
    for at, inst in batch:
        solutions[at] = _solution(inst, at, solved)


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
            g[k], blocks[k] = _solve_scale_ipm(
                nu, inst.p, ia, ib, bound, n_leaves, block, (at, _block_name(inst, k))
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
