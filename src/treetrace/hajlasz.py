"""Fractional gradient seminorm on the boundary as a finite convex program.

For a boundary function f at resolution N, every unordered pair of
distinct leaves sits at one of finitely many ultrametric distances
d_j = (2/eps) e^(-eps*j); each distance falls into one dyadic annulus
[2^(-k-1), 2^(-k)) and that integer k is the pair's scale.  A gradient
system assigns one nonnegative leaf array g_k per occurring scale, subject
to |f_a - f_b| <= d^theta * (g_k(a) + g_k(b)) for every pair at scale k.
The seminorm (p-th power) is the infimum of sum_k mean-with-weights of
g_k^p over all feasible systems.

The objective and the constraints decouple across scales, so the program
splits into one block per scale.  An instance has at most `PAIR_CAP` =
2^20 leaf pairs and holds none of them: `_Block` is the only code that
builds a scale's pairs, for both solvers and the grid oracle, when its
batch is solved (`hajlasz_minimize_all`, at most `_BATCH_PAIRS` = 2^15
leaf pairs a batch, a larger instance alone).  A block takes its kept
pairs (nonzero bound) from one array of its level bounds in its own unit
2^e, e the frexp exponent of its largest bound, so the solvers see the
same numbers near 1 at every scale of f; a scale with no kept pair has no
block and g_k = 0.  Each solver returns the block's minimizer in its
unit, and it is scaled back by 2^e; the value is refused outside the
normal float range (`young._in_range`).  A block is solved by one of
two methods, named in `HajlaszSolution.method`:

* p = 2: accelerated projected ascent on the dual.  For multipliers
  mu >= 0 (one per pair) the Lagrangian minimizer is g_i = s_i / (2 nu),
  with s_i the multiplier mass on leaf i, so the dual is quadratic and the
  inverse-Lipschitz step 2 nu / max(deg_a + deg_b) is exact; a block keeps
  it and restarts its momentum when its dual value falls.  One loop steps
  all p = 2 blocks of a batch, each with its own step, momentum and stop,
  in at most 1.8 MB at the batch's pair bound.  A block whose runs (one
  sibling pair over all vertices of a level) are large, and most of whose
  level pairs have a nonzero bound, is held in the dense form:
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
  (at p = 6 the same term drives a slack to 0).  The matrix is
  block-diagonal over the vertices of the block's coarsest level; it is
  assembled with one bincount and solved by one batched dense solve.  The
  repaired minimizer is scaled down until its tightest pair holds with
  equality (the objective is homogeneous), which removes the slack the
  Newton iterates keep.

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
from functools import cache, cached_property, partial

import numpy as np

from .boundary_norms import BoundaryFunction
from .tree import split_distances
from .young import _in_domain, _in_range, dot

__all__ = [
    "HajlaszInstance",
    "HajlaszSolution",
    "BlockReport",
    "ConvergenceError",
    "PAIR_CAP",
    "leaf_pairs",
    "scale_for_distance",
    "hajlasz_feasible",
    "hajlasz_minimize",
    "hajlasz_minimize_all",
    "hajlasz_oracle",
]

_ORACLE_MAX_LEAVES = 8
_ORACLE_MAX_SCALES = 3
_ORACLE_POINT_BUDGET = 20_000_000
_ORACLE_CHUNK = 1 << 14
# a block stops at this certified relative duality gap, and raises
# ConvergenceError after this many iterations (dual-ascent steps at p = 2,
# Newton steps otherwise)
_REL_TOL = 1e-8
_MAX_ITERS = 100_000
# hajlasz_feasible accepts a pair whose g[a] + g[b] falls short of its bound
# by this much relative
_FEASIBLE_RTOL = 1e-9
# An instance of more leaf pairs (`leaf_pairs`) is refused before it is
# built (read at call time): K = 2 up to depth 10, 3 to 6, 5 to 4, 8 to 3.
PAIR_CAP = 2**20
# the sibling pairs c1 < c2 of a vertex of K children in row-major order,
# as the arrays of c1 and of c2
_sibling_pairs = cache(partial(np.triu_indices, k=1))


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
    """The integer k with 2^(-k-1) <= d < 2^(-k), for a finite positive d
    (-1024 from 2^1023 up): frexp's exponent e has 2^(e-1) <= d < 2^e."""
    if not 0.0 < d < math.inf:
        raise ValueError(f"distance must be finite and positive, got {d!r}")
    return -math.frexp(d)[1]


def leaf_pairs(K: int, depth: int) -> int:
    """The unordered pairs of distinct leaves of the depth-N tree, K^N (K^N - 1) / 2."""
    n = K**depth
    return n * (n - 1) // 2


def _split_bounds(inst, j, out=None):
    """The pairs of inst.f split at level j, as a dense (K^j, K(K-1)/2, m, m)
    array of bounds |f_a - f_b| / d_j^theta with m = K^(N-j-1), into `out`
    if given: a level-j vertex, a sibling pair c1 < c2 in row-major order,
    the leaf a under child c1 and the leaf b under child c2."""
    K, m = inst.f.K, inst.f.K ** (inst.f.depth - j - 1)
    pa, pb = _sibling_pairs(K)
    x, dj = inst.f.values.reshape(K**j, K, m), float(inst.split_distances[j])
    diff = np.subtract(x[:, pa, :, None], x[:, pb, None, :], out=out)
    return np.divide(np.abs(diff, out=diff), dj**inst.theta, out=diff)


def _by_level(a, shapes):
    """The flat array a as views of consecutive arrays of the given shapes."""
    ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
    return [a[e - math.prod(shape) : e].reshape(shape) for e, shape in zip(ends, shapes)]


class HajlaszInstance:
    """A boundary function f and its Hajlasz exponents, validated, with its
    `split_distances`, the scale of each split level (`scale_of_level`) and
    the sorted distinct `scales`; each scale's block builds its pairs."""

    def __init__(self, f: BoundaryFunction, theta: float, p: float, epsilon: float):
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        _in_domain(p=p, epsilon=epsilon)
        self.f, self.theta, self.p, self.epsilon = f, theta, p, epsilon
        K, N = f.K, f.depth
        pairs = leaf_pairs(K, N)
        if pairs > PAIR_CAP:
            raise ValueError(
                f"the Hajlasz program at K = {K}, depth {N} has {pairs} leaf pairs,"
                f" above the cap of {PAIR_CAP}"
            )
        self.split_distances = split_distances(epsilon, N)
        self.scale_of_level = [scale_for_distance(float(d)) for d in self.split_distances]
        self.scales = tuple(sorted(set(self.scale_of_level)))


def hajlasz_feasible(inst: HajlaszInstance, g) -> bool:
    """Whether the gradient system g (mapping scale -> leaf array) satisfies
    every pair constraint, to `_FEASIBLE_RTOL` relative: each split level's
    bounds (`_split_bounds`) against g_k[a] + g_k[b] in the same dense
    shape, k the level's scale.  Entries that are negative or not finite
    are rejected outright."""
    arrays = {}
    for k, arr in g.items():
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (inst.f.n_leaves,):
            raise ValueError(f"scale {k}: expected {inst.f.n_leaves} leaf values")
        if not np.isfinite(arr).all():
            raise ValueError("gradient arrays must be finite")
        if np.any(arr < 0):
            raise ValueError("gradient arrays must be nonnegative")
        arrays[k] = arr
    pa, pb = _sibling_pairs(inst.f.K)
    for j, k in enumerate(inst.scale_of_level):
        short = _split_bounds(inst, j)  # by how much g_k = 0 falls short
        if k in arrays:
            x = arrays[k].reshape(short.shape[0], inst.f.K, short.shape[2])
            short = short * (1.0 - _FEASIBLE_RTOL) - 1e-15
            short -= x[:, pa, :, None] + x[:, pb, None, :]
        if np.any(short > 0):
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


def _pair_mass(ia, ib, w, n, out=None):
    """A^T w: each of the n leaves' sum of w over its pairs (ia, ib), its
    first-index pairs summed apart from its second-index ones; w None counts."""
    return np.add(np.bincount(ia, w, n), np.bincount(ib, w, n), out=out)


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


class _Block:
    """The scale-k block of `inst`, the instance at position `at`: the
    bounds of its split levels (`_split_bounds`, once each) as one array in
    the unit 2^e, e the frexp exponent of the largest (which then lies in
    [0.5, 1)), and the kept pairs (nonzero bound) taken from it, `bound`
    and their leaves (ia, ib).  A power of two commutes with rounding, so
    in the normal float range the p = 2 dual ascent takes the same steps in
    this unit as on the raw bounds, bit for bit.  A dense block (`_dense`)
    keeps the array as `pair_bound`, `kept` locating the kept pairs in it;
    any other drops it (`pair_bound` is `bound`).  Every pair lies inside
    one vertex of the coarsest level, a run of `size` leaves; `deg` counts
    each leaf's pairs, `active` lists the leaves in some pair (`active_sel`
    selects them) and `name` names the block in errors."""

    def __init__(self, inst, k, at=0):
        f, K, N = inst.f, inst.f.K, inst.f.depth
        self.at, self.k, self.n_leaves, self.nu, self.p = at, k, f.n_leaves, f.leaf_measure, inst.p
        self.levels = [j for j, kj in enumerate(inst.scale_of_level) if kj == k]
        self.size = K ** (N - self.levels[0])
        self.name = f"(K={K}, depth {N}) scale {k}"
        shapes = self.level_shapes = [
            (K**j, K * (K - 1) // 2, K ** (N - j - 1), K ** (N - j - 1)) for j in self.levels
        ]
        pair_bound = np.empty(sum(map(math.prod, shapes)))
        for j, part in zip(self.levels, _by_level(pair_bound, shapes)):
            _split_bounds(inst, j, part)
        keep = pair_bound > 0
        self.e = math.frexp(float(pair_bound.max()))[1]
        self.bound = np.ldexp(pair_bound, -self.e, out=pair_bound)[keep]
        # the leaves a (under c1) and b (under c2) of each kept pair
        pa, pb, ia, ib = *_sibling_pairs(K), [], []
        for part in _by_level(keep, shapes):
            m = part.shape[2]
            leaf = np.arange(f.n_leaves).reshape(-1, K, m)
            ia.append(leaf[:, pa, :, None].repeat(m, axis=3)[part])
            ib.append(leaf[:, pb, None, :].repeat(m, axis=2)[part])
        self.ia, self.ib = np.concatenate(ia), np.concatenate(ib)
        if self._dense():
            self.pair_bound, self.kept = pair_bound, np.flatnonzero(keep)
        else:
            self.pair_bound, self.kept, self.level_shapes = self.bound, slice(None), None
        self.deg = _pair_mass(self.ia, self.ib, None, f.n_leaves)
        self.active = np.flatnonzero(self.deg)
        self.active_sel = slice(None) if self.active.size == f.n_leaves else self.active

    def _dense(self):
        """Whether the block keeps its level bounds (the dense dual form)."""
        return False

    @cached_property
    def local(self):
        """(la, lb): the pairs as indices into the active leaves, ia and ib
        themselves when every leaf is active."""
        if self.active.size == self.n_leaves:
            return self.ia, self.ib
        remap = np.full(self.n_leaves, -1)
        remap[self.active] = np.arange(self.active.size)
        return remap[self.ia], remap[self.ib]

    def solution(self, g):
        """The active-leaf values g over all leaves, 0 at the others, repaired."""
        out = np.zeros(self.n_leaves)
        out[self.active] = g
        _repair(out, self.ia, self.ib, self.bound)
        return out


def _blocks(inst, at=0, kind=_Block):
    """The `kind` block of each scale of inst with a kept pair, in increasing
    order, each built as it is taken (the other scales have g_k = 0)."""
    for k in inst.scales:
        blk = kind(inst, k, at)
        if blk.bound.size:
            yield blk


def _certified(primal, dual):
    """The gap test of every block, in the block's unit: there the largest
    bound is at least 1/2, so the primal value is at least nu 4^-p > 0."""
    return primal - dual <= _REL_TOL * primal


def _dual_point(nu, p, s, mu, bound):
    """The Lagrangian minimizer g over g >= 0 and q(mu), its value, given
    the multiplier mass s = A^T mu; q(mu) bounds the block optimum from
    below for every mu >= 0.  Near p = 1 the power can overflow far from
    the optimum; q(mu) is then -inf.  At p = 1, q(mu) is -inf unless
    s <= nu, so the bound is q(t mu) = t (mu . bound) with
    t = min(1, nu / max s), minimized by g = 0."""
    if p == 1.0:
        return np.zeros_like(s), min(1.0, nu / float(s.max())) * dot(mu, bound)
    with np.errstate(over="ignore", invalid="ignore"):
        g = (s / (p * nu)) ** (1.0 / (p - 1.0))
        q = nu * float(np.sum(g**p)) - dot(s, g) + dot(mu, bound)
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


# The instances of one batch have at most this many leaf pairs in all,
# K^N (K^N - 1) / 2 each; a larger instance goes alone.  The dual-ascent
# loop's flat arrays take four 8-byte entries per pair they step and three
# more per index-form pair (at most 1.8 MB at the bound), beside the blocks'
# own three per kept pair and a dense block's one per level pair.
_BATCH_PAIRS = 2**15


class _DualBlock(_Block):
    """One scale block (`_Block`) of the p = 2 dual ascent with its step
    state: `restart`, the step its momentum last restarted at, and `gap`,
    its relative gap at the last check (None before the first).

    A dense block (`level_shapes`, the (K^j, K(K-1)/2, m, m) shapes of its
    split levels, kept where `_DENSE_MIN_RUN` and `_DENSE_MIN_KEPT` allow)
    holds a multiplier for every pair of `pair_bound`, a zero-bound pair's
    staying exactly 0; any other block for its kept pairs only.  Outside a
    layout it keeps them in mu and mu_prev, None while they are 0.
    """

    def __init__(self, inst, k, at=0):
        super().__init__(inst, k, at)
        if not self.bound.size:
            return  # no constraint: `_blocks` drops the block
        self.sigma = (2.0 * self.nu) / float((self.deg[self.ia] + self.deg[self.ib]).max())
        del self.deg  # the step is all the loop needs of the pair counts
        self.best_g = np.full(self.active.size, self.bound.max() / 2.0)
        self.best = self.nu * float(np.sum(self.best_g**2.0))
        self.last_dual, self.gap, self.restart = -math.inf, None, 0
        self.mu = self.mu_prev = None

    def _dense(self):
        V, _, m, _ = self.level_shapes[-1]  # a run of level j, K^j m^2 pairs, is least here
        kept = self.bound.size / sum(map(math.prod, self.level_shapes))
        return V * m * m >= _DENSE_MIN_RUN and kept >= _DENSE_MIN_KEPT


class _DualLayout:
    """The multipliers of unsolved dual blocks, of one or more instances,
    in shared flat arrays, all advanced by one accelerated projected step
    at a time.

    Dense blocks come first, then the others; block i owns the pair
    entries `segments[i]` and the leaf entries `leaves[i]` (all n_leaves
    of its instance, a leaf in no pair at mass 0).  At split level j a
    dense block's multipliers are a (K^j, P, m, m) array: vertex, sibling
    pair (c1, c2), leaf a under c1, leaf b under c2.  Its leaves' masses
    are axis sums into s, over b for the leaves under c1 and over a for
    those under c2.  The other blocks share one gather for g[a] + g[b] and
    two bincounts, over their first and over their second indices.  Every
    view of a dense level, of y and of both multiplier arrays, is built
    here.  A dense block's sigma is one scalar; the index blocks' sigma and
    every block's 2 nu are spread over flat arrays.  Consecutive blocks
    whose momentum restarted at the same step share its coefficient, and
    `runs` holds their pair entries as one slice each.  The loop holds four
    8-byte entries per pair (mu, mu_prev, y, bound) and three more per
    index-form pair (sigma, ia, ib).
    """

    def __init__(self, blocks):
        dense = [b for b in blocks if b.level_shapes is not None]
        index = [b for b in blocks if b.level_shapes is None]
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
        self.two_nu = np.repeat([2.0 * b.nu for b in blocks], counts)
        self.y = np.empty_like(self.mu)
        self.s, self.g = np.zeros(leaf_ends[-1]), np.zeros(leaf_ends[-1])
        first = len(dense)
        start, base = sum(sizes[:first]), sum(counts[:first])
        # per sibling pair (c1, c2) of a split level of a dense block: the
        # (V, m, 1) and (V, 1, m) views of g under c1 and c2 with the block's
        # sigma, the (V, m, m) views of its entries of mu and of mu_prev, and
        # the sums of its multipliers in y over b into the (V, m) masses
        # under c1 and over a into those under c2.  A child's first sum in
        # the block is written into s, the later ones added.
        self.pair_g, self.sums, self.views = [], [], ([], [])
        for b, seg, lv in zip(dense, self.segments, self.leaves):
            written = set()
            levels = (_by_level(x[seg], b.level_shapes) for x in (self.y, self.mu, self.mu_prev))
            for y, *bufs in zip(*levels):
                V, _, m, _ = y.shape
                K = b.n_leaves // (V * m)
                s, g = (x[lv].reshape(V, K, m) for x in (self.s, self.g))
                for q, (c1, c2) in enumerate(zip(*_sibling_pairs(K))):
                    self.pair_g.append((g[:, c1, :, None], g[:, c2, None, :], b.sigma))
                    for views, buf in zip(self.views, bufs):
                        views.append(buf[:, q])
                    for c, axis in (c1, 2), (c2, 1):
                        self.sums.append((y[:, q], axis, s[:, c], c not in written))
                        written.add(c)
        self.sigma = np.repeat([b.sigma for b in index], sizes[first:])
        self.index_pairs = slice(start, None)
        self.index_s, self.index_g = self.s[base:], self.g[base:]
        # the index blocks' pairs as leaf indices into index_s and index_g
        self.ia, self.ib = np.empty((2, self.sigma.size), dtype=np.intp)
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
        """Every leaf's multiplier mass under the multipliers in y, into s.
        No multiplier is -0.0, so a sum written equals one added to 0.0."""
        for y, axis, s, write in self.sums:
            if write:
                np.add.reduce(y, axis, out=s)
            else:
                s += np.add.reduce(y, axis)
        s = self.index_s
        _pair_mass(self.ia, self.ib, self.y[self.index_pairs], s.size, out=s)

    def pair_sums(self, out):
        """g[a] + g[b] of every pair of the dense blocks, into `out`, the
        views of mu's or mu_prev's array (`views`)."""
        # as a copy and an add, faster than one broadcast add
        for o, (g1, g2, _) in zip(out, self.pair_g):
            np.copyto(o, g2)
            np.add(g1, o, out=o)

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
        step, out = self.mu_prev, self.views[1]
        self.pair_sums(out)
        # mode "clip" (the indices are in range) writes straight into out;
        # the default "raise" goes through a buffer
        index = np.take(self.index_g, self.ib, out=step[self.index_pairs], mode="clip")
        index += self.index_g[self.ia]
        np.subtract(self.bound, step, out=step)
        for o, (_, _, sigma) in zip(out, self.pair_g):
            o *= sigma
        index *= self.sigma
        step += y
        self.mu, self.mu_prev = np.maximum(0.0, step, out=step), self.mu
        self.views = self.views[::-1]

    def mu_mass(self):
        """Every leaf's multiplier mass under the current multipliers."""
        np.copyto(self.y, self.mu)
        self._mass()
        return self.s

    def gap_points(self):
        """(dual, primal, g) of each block in order: q(mu) under the current
        multipliers, and the value and active-leaf array of the repaired
        Lagrangian minimizer g = s / (2 nu).  The index blocks are repaired
        at once (a leaf's raises add up in its own pair order, as alone);
        each block sums over its own active leaves, so every number is that
        of the block alone."""
        s = self.mu_mass()
        duals = [
            _dual_point(blk.nu, 2.0, s[lv][blk.active_sel], self.mu[seg][blk.kept], blk.bound)[1]
            for blk, seg, lv in zip(self.blocks, self.segments, self.leaves)
        ]
        g = s / self.two_nu
        for blk, lv in zip(self.blocks[: self.n_dense], self.leaves):
            _repair(g[lv], blk.ia, blk.ib, blk.bound)
        if self.ia.size:
            _repair(g[self.index_leaves], self.ia, self.ib, self.bound[self.index_pairs])
        square = g**2.0
        return [
            (dual, blk.nu * float(square[lv][blk.active_sel].sum()), g[lv][blk.active_sel])
            for blk, lv, dual in zip(self.blocks, self.leaves, duals)
        ]

    def unsolved(self, solved):
        """The blocks not in `solved`, each given a copy of its multipliers."""
        blocks = []
        for blk, seg in zip(self.blocks, self.segments):
            if blk not in solved:
                blk.mu, blk.mu_prev = self.mu[seg].copy(), self.mu_prev[seg].copy()
                blocks.append(blk)
        return blocks


def _solve_dual_blocks(blocks):
    """Accelerated projected dual ascent on the p = 2 blocks `blocks`, a
    list of `_DualBlock`.

    All blocks advance in one loop, each in its own unit with its own
    momentum, stop and step sigma = 2 nu / max(deg_a + deg_b), the inverse
    Lipschitz constant of the dual's gradient (the Lagrangian minimizer is
    g = s / (2 nu)), so each takes the steps it would take alone.  Every
    `_CHECK_EVERY` steps each block takes its dual bound and repairs the
    Lagrangian minimizer into its best primal point (from the feasible
    g = max(bound)/2), all at once (`_DualLayout.gap_points`); it stops at
    a relative gap below `_REL_TOL` and restarts its momentum when its dual
    value fell (the ascent is not monotone).  Returns the (leaf array in
    the block's unit, BlockReport) of each block in order, the array its
    best point's `solution`; the ConvergenceError raised at `_MAX_ITERS`
    names every block left uncertified.
    """
    if not blocks:
        return []
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
            if _certified(blk.best, dual):
                solved[blk] = blk.solution(blk.best_g), BlockReport(t + 1, blk.gap)
                continue
            if dual < blk.last_dual:
                lay.mu_prev[seg] = lay.mu[seg]
                blk.restart = t + 1
                restarted = True
            blk.last_dual = dual
        if len(solved) == len(blocks):
            return [solved[blk] for blk in blocks]
        if len(solved) > before:
            unsolved = lay.unsolved(solved)
            # the old arrays go before the new ones are made
            del lay
            lay = _DualLayout(unsolved)
        elif restarted:
            lay.set_runs()
    uncertified = [
        (blk.at, blk.name, "no gap check" if blk.gap is None else f"relative gap {blk.gap:.3g}")
        for blk in lay.blocks
    ]
    stop = f"dual ascent did not certify the optimum within {_MAX_ITERS} iterations: "
    raise ConvergenceError(stop, uncertified)


_CENTRING = 0.1
_TO_BOUNDARY = 0.99
# at p = 1 the Newton matrix has no curvature term; this times the largest
# mu/s is added to its diagonal to keep it nonsingular
_DIAGONAL = 1e-12


def _max_step(x, dx):
    """The largest step in (0, 1] that keeps x + step * dx >= 0."""
    neg = dx < 0
    return min(1.0, float(np.min(-x[neg] / dx[neg]))) if neg.any() else 1.0


def _solve_scale_ipm(blk):
    """Primal-dual interior-point method on the block `blk` (p >= 1).

    Minimizes nu * sum g^p subject to s = A g - bound >= 0 and g >= 0, with
    multipliers mu >= 0 for the pairs and z >= 0 for g, where A g pairs up
    g[a] + g[b], in the block's unit, over its active leaves.  The
    iterates stay primal feasible (the start puts every leaf at its largest
    bound).  Each Newton step aims at complementarity products s*mu = g*z
    equal to _CENTRING times their current mean and moves all four
    variables by one step length, _TO_BOUNDARY of the way to the nearest
    bound.  The reduced Newton matrix lives on the leaves; every pair lies
    inside one run of `blk.size` consecutive leaves, so the matrix is
    assembled into a (n_leaves / size, size, size) array and solved batch
    by batch, with an identity row for each inactive leaf.  At p = 1 its
    diagonal also carries _DIAGONAL times the largest mu/s.  Stops on the
    certified gap between the better of the repaired iterate and the
    repaired Lagrangian minimizer of mu, and q(mu).  A Newton system that
    is not finite or not solvable raises ConvergenceError at once, as the
    iteration cap does, naming the block by its position and name.
    Returns the minimizer in the block's unit and the block's report.
    """
    nu, p, n_leaves, block = blk.nu, blk.p, blk.n_leaves, blk.size
    ia, ib, b, active = blk.ia, blk.ib, blk.bound, blk.active_sel
    la, lb = blk.local
    where = blk.at, blk.name
    n, m = blk.active.size, ia.size
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
        target = _CENTRING * (dot(s, mu) + dot(g, z)) / (m + n)
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
        if _certified(primal, dual):
            out = blk.solution(candidates[values.index(primal)])
            # Remove the slack left on every constraint: the objective is
            # homogeneous, so scaling g down until the tightest pair is
            # exactly tight keeps it feasible and can only lower the value,
            # by up to p times the relative slack.
            out *= float(np.max(b / (out[ia] + out[ib])))
            _repair(out, ia, ib, b)
            return out, BlockReport(t + 1, (primal - dual) / primal)
    gap = f"relative gap {(primal - dual) / primal:.3g} after {_MAX_ITERS} iterations"
    raise ConvergenceError(stop, [(*where, gap)])


def hajlasz_minimize(inst: HajlaszInstance) -> HajlaszSolution:
    """Minimize the p-th-power objective over feasible gradient systems.

    Returns the per-scale minimizers (guaranteed feasible), the summed
    objective and one `BlockReport` per constrained scale.  Scales without
    constraints get the zero array.  Every block stops at a certified
    relative gap of `_REL_TOL` = 1e-8; one that has not reached it after
    `_MAX_ITERS` = 100,000 iterations raises ConvergenceError.  A value
    outside the normal float range (0 or subnormal, or inf) is a
    ValueError naming p, K and the depth; a constant f, which has no
    constraints, has the value 0.
    """
    return hajlasz_minimize_all([inst])[0]


def hajlasz_minimize_all(instances) -> list[HajlaszSolution]:
    """`hajlasz_minimize` of each instance of the iterable `instances`, in
    order.

    The iterable is consumed batch by batch.  The instances, whatever their
    p, go in order into a batch until the next one would take its pair
    count, K^N (K^N - 1) / 2 per instance, past `_BATCH_PAIRS` (a larger
    instance goes alone); then the batch is solved and its instances
    dropped before the next instance is taken.  So one batch of instances
    is alive at a time when `instances` builds them lazily; a sweep at the
    default config (21,056 pairs) is one batch.  Each block takes the steps
    it takes solved alone, a p = 2 block in the form (dense or index) its
    instance alone decides, so every solution is that of its instance
    alone, bit for bit.  A ConvergenceError names each block it left
    uncertified by its instance's position in `instances`.
    """
    solutions, batch, pairs = [], [], 0
    for inst in instances:
        size = leaf_pairs(inst.f.K, inst.f.depth)
        if batch and pairs + size > _BATCH_PAIRS:
            solutions += _solve_batch(batch)
            batch, pairs = [], 0
        batch.append((len(solutions) + len(batch), inst))
        pairs += size
    if batch:
        solutions += _solve_batch(batch)
    return solutions


def _solve_batch(batch) -> list[HajlaszSolution]:
    """The solutions of the instances `batch`, a list of (position,
    instance), in order: one dual-ascent loop solves every block of its
    p = 2 instances, then the interior-point method each block of the
    others, each block built as it is solved, stopping at the first it
    cannot certify.  Both hand back a feasible leaf array in the block's
    unit 2^e, and each is scaled back here."""
    dual = [blk for at, inst in batch if inst.p == 2.0 for blk in _blocks(inst, at, _DualBlock)]
    solved = {(b.at, b.k): (b.e, *out) for b, out in zip(dual, _solve_dual_blocks(dual))}
    # the dual blocks' arrays go before the interior-point blocks are built
    del dual
    for at, inst in batch:
        if inst.p != 2.0:
            for blk in _blocks(inst, at):
                solved[at, blk.k] = (blk.e, *_solve_scale_ipm(blk))
    solutions = []
    for at, inst in batch:
        g, blocks = {k: np.zeros(inst.f.n_leaves) for k in inst.scales}, {}
        for k in inst.scales:
            if (at, k) in solved:
                e, arr, blocks[k] = solved.pop((at, k))
                g[k] = np.ldexp(arr, e, out=arr)
        with np.errstate(over="ignore"):
            value = sum(inst.f.leaf_measure * float(np.sum(arr**inst.p)) for arr in g.values())
        if blocks:
            at = f"p = {inst.p:g} of (K={inst.f.K}, depth {inst.f.depth})"
            value = _in_range("the Hajlasz value", at, value)
        iterations = sum(b.iterations for b in blocks.values())
        method = "dual-ascent" if inst.p == 2.0 else "interior-point"
        solutions.append(HajlaszSolution(value, g, iterations, method, blocks))
    return solutions


def hajlasz_oracle(inst: HajlaszInstance, grid_resolution: int) -> float:
    """Exhaustive grid search over gradient systems in [0, g_max]^(scales x
    leaves), g_max = max |f_a - f_b| * max d^(-theta).

    The grid has `grid_resolution` intervals per coordinate, so spacings
    halve when the resolution doubles and refined values can only
    decrease.  Returns an upper bound on the infimum; only small instances
    (at most 8 leaves and 3 scales) are accepted.  Each scale's grid is
    searched `_ORACLE_CHUNK` points at a time, so memory does not grow with
    the grid (7 MB at 8 leaves), and the value does not depend on the chunk.
    """
    if grid_resolution < 1:
        raise ValueError("grid resolution must be at least 1")
    if inst.f.n_leaves > _ORACLE_MAX_LEAVES:
        raise ValueError("instance too large for the grid oracle (more than 8 leaves)")
    if len(inst.scales) > _ORACLE_MAX_SCALES:
        raise ValueError("instance too large for the grid oracle (more than 3 scales)")
    spread = float(inst.f.values.max() - inst.f.values.min())
    h = spread * float(inst.split_distances.min()) ** -inst.theta / grid_resolution
    nu, total = inst.f.leaf_measure, 0.0
    for blk in _blocks(inst):
        la, lb, bound = *blk.local, np.ldexp(blk.bound, blk.e)
        d = blk.active.size
        n_points = (grid_resolution + 1) ** d
        if n_points > _ORACLE_POINT_BUDGET:
            raise ValueError("grid blow-up: too many grid points for the oracle")
        best = math.inf
        shape = (grid_resolution + 1,) * d
        for lo in range(0, n_points, _ORACLE_CHUNK):
            idx = np.arange(lo, min(lo + _ORACLE_CHUNK, n_points))
            G = np.stack(np.unravel_index(idx, shape), axis=1) * h
            feas = np.all(G[:, la] + G[:, lb] >= bound[None, :] - 1e-12, axis=1)
            if feas.any():
                obj = nu * np.sum(G[feas] ** inst.p, axis=1)
                best = min(best, float(obj.min()))
        total += best
    return total
