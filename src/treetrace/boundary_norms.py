"""Function spaces on the dyadic boundary of a truncated K-ary tree.

A boundary function is piecewise constant on the K^N leaf cells, stored
as one flat array in lexicographic address order, so the cell of a vertex
is a contiguous block and cell averages are plain block means, given for
every vertex in the level order of `treetrace.address`.  On top of that
representation the module provides

* power-mean and Luxemburg (gauge) norms for the uniform cell measure,
* two multiscale energies built from differences of successive cell
  averages: a pure power form with a level weight
  e^(eps*n*theta*p) * n^lambda1 * (n + C)^lambda2, and an Orlicz form that
  feeds the rescaled differences through the Young function Phi with weight
  e^(eps*n*(theta-1)*p) * (n + C)^lambda2, C the tree's shift,
* the gauge norm built from the Orlicz energy, and
* the exact double-integral fractional seminorm (all leaf pairs grouped
  by their split vertex), in O(p * depth * K^depth) at every integer p
  up to `MAX_CLOSED_FORM_P` (prefix power sums of the sorted cells) and
  by pair enumeration at other p, together with an unbiased Monte Carlo
  estimator for those p at resolutions where enumeration is too large
  (`double_integral_is_exact` decides).

Cell addresses and the leaf-row CSV files go through `treetrace.address`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .address import child_minus_parent, child_sums, function_values, level_slice
from .address import read_function_csv, write_function_csv
from .tree import _min_shift, split_distances
from .young import YoungModular, YoungPhi, _in_domain, _in_range, luxemburg_gauge

__all__ = [
    "BoundaryFunction",
    "EnergyParams",
    "MonteCarloEstimate",
    "PAIR_BUDGET",
    "MC_SAMPLES",
    "lp_norm",
    "orlicz_norm",
    "dyadic_energy",
    "dyadic_orlicz_modular",
    "orlicz_besov_norm",
    "double_integral_is_exact",
    "double_integral_energy",
    "double_integral_energy_mc",
]

# leaf pairs the double sum enumerates at most, at a p with no closed form;
# read at call time
PAIR_BUDGET = 16384
# leaf pairs the `verify equivalence` sweep samples per Monte Carlo double sum
MC_SAMPLES = 200_000
# integer p above this is enumerated: the exact sum costs p prefix sums
# per level and was checked against the enumeration up to here
MAX_CLOSED_FORM_P = 100


class BoundaryFunction:
    """Piecewise-constant function on the K^depth leaf cells (a float array is taken over)."""

    def __init__(self, K: int, depth: int, values) -> None:
        self.values = function_values(K, depth, values, first=depth)
        self.K, self.depth = K, depth
        self._averages = None

    @property
    def n_leaves(self) -> int:
        return self.values.size

    @property
    def leaf_measure(self) -> float:
        return float(self.K) ** -self.depth

    @cached_property
    def is_constant(self) -> bool:
        """Whether f takes one value on every leaf: then every energy is exactly 0."""
        return bool(self.values.min() == self.values.max())

    def level_averages(self) -> np.ndarray:
        """The average over the cell of every vertex, in level order.  The
        leaves are copied in unchanged, so resolution-preserving roundtrips
        stay bitwise exact.  A parent's average is its children's sum
        (`child_sums`) divided by K, bit for bit the mean of its cell's
        block of K children.  Memoized: computed on the first call, after
        which every call returns the same read-only array."""
        if self._averages is None:
            K = self.K
            out = np.empty(level_slice(K, self.depth).stop)
            out[level_slice(K, self.depth)] = self.values
            for n in reversed(range(self.depth)):
                np.divide(child_sums(K, out[level_slice(K, n + 1)]), K, out=out[level_slice(K, n)])
            out.flags.writeable = False
            self._averages = out
        return self._averages

    def to_csv(self, path) -> None:
        write_function_csv(path, self.K, self.depth, self.values, first=self.depth)

    @classmethod
    def from_csv(cls, path) -> "BoundaryFunction":
        return cls(*read_function_csv(path, leaves_only=True))


@dataclass(frozen=True)
class EnergyParams:
    """Exponents of the boundary energies and norms.

    theta    smoothness exponent, in [0, 1)
    p        integrability exponent
    epsilon  metric decay rate of the underlying tree (sets the scale
             e^(-eps*n) of level n)
    lambda1  log-exponent of Phi(t) = t^p log(e + t)^lambda1; the power
             energy weighs level n by n^lambda1 in its place
    lambda2  log-exponent of the tree's mass density (t + C)^lambda2; both
             energies weigh level n by (n + C)^lambda2

    Each field but theta lies in its domain (`young._in_domain`).  The Young
    function `phi` = YoungPhi(p, lambda1) is derived, not set, and rejects
    an inadmissible lambda1.  C, the derived `shift`, is the tree's minimal
    shift (`tree.min_shift_constant`), with beta - log K taken as
    eps p (1 - theta), its value at the matched theta.
    """

    theta: float
    p: float
    epsilon: float
    lambda1: float = 0.0
    lambda2: float = 0.0
    phi: YoungPhi = field(init=False, compare=False, repr=False)
    shift: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", YoungPhi(self.p, self.lambda1))
        _in_domain(epsilon=self.epsilon, lambda2=self.lambda2)
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")
        decay = self.epsilon * self.p * (1.0 - self.theta)
        object.__setattr__(self, "shift", _min_shift(decay, self.epsilon, self.lambda2))


def lp_norm(f: BoundaryFunction, p: float) -> float:
    """(mean |f|^p)^(1/p), taken over |f| / 2^e and multiplied back by 2^e,
    2^e the power of two at max |f|, where |f|^p may leave the float range
    (|e p| > 900); elsewhere e = 0, and the value is the unscaled one's bit
    for bit, which a power at another scale need not round to."""
    _in_domain(p=p)
    a = np.abs(f.values)
    e = math.frexp(float(a.max()))[1]
    e = e if abs(e * p) > 900 else 0
    return math.ldexp(float(np.mean(np.ldexp(a, -e, out=a) ** p) ** (1.0 / p)), e)


def _gauge(rho: YoungModular) -> float:
    """Luxemburg gauge of the amplitudes of rho as given (by homogeneity)."""
    return rho.scale * luxemburg_gauge(rho, start=rho.start) if rho.scale > 0.0 else 0.0


def orlicz_norm(f: BoundaryFunction, phi: YoungPhi) -> float:
    """Gauge norm for the uniform leaf measure (total mass 1)."""
    return _gauge(YoungModular(phi, np.abs(f.values), [(f.n_leaves, 1.0 / f.n_leaves)]))


@lru_cache(maxsize=256)
def _level_weights(depth: int, params: EnergyParams, orlicz: bool):
    """e^(eps*n*t*p) * n^lambda1 * (n + C)^lambda2, the weight of level n,
    for n = 1..depth, C the shift of `EnergyParams`, t = theta for the
    power energy and t = theta - 1, lambda1 = 0 for the `orlicz` one;
    memoized (a sweep asks for them at every sample).  A factor or a weight
    out of range (`_in_range`) names p for e^(eps*n*t*p), lambda1 or
    lambda2 for its power, and p with each power that moved it that way."""
    p, eps = params.p, params.epsilon
    t, lambda1 = (params.theta - 1.0, 0.0) if orlicz else (params.theta, params.lambda1)
    factor_is = f" e^(eps n {'(theta-1)' if orlicz else 'theta'} p)"
    at_p = f"p = {p:g}"
    keys = (("lambda1", 0.0, lambda1), ("lambda2", params.shift, params.lambda2))
    powers = [(f"{key} = {x!r}", shift, x) for key, shift, x in keys if x != 0.0]
    weights = []
    for n in range(1, depth + 1):
        where = f"the level-{n} weight"
        weight = _in_range(where + factor_is, at_p, lambda: math.exp(eps * n * t * p))
        factors = [(at, _in_range(where, at, lambda: (n + shift) ** x)) for at, shift, x in powers]
        for _, factor in factors:
            weight *= factor
        moved = [at for at, factor in factors if factor != 1.0 and (factor > 1.0) == (weight > 1.0)]
        weights.append(_in_range(where, " and ".join([at_p, *moved]), weight))
    return tuple(weights)


def dyadic_energy(f: BoundaryFunction, params: EnergyParams) -> float:
    """Weighted multiscale power energy of the cell-average differences.

    Sum over levels n = 1..depth of
    e^(eps*n*theta*p) * n^lambda1 * (n + C)^lambda2
    * sum_cells K^(-n) |f_I - f_parent(I)|^p, C the shift of `EnergyParams`;
    0 for a constant f, and out of range an error naming p.
    """
    p = params.p
    weights = _level_weights(f.depth, params, orlicz=False)
    if f.is_constant:
        return 0.0
    diffs = child_minus_parent(f.K, f.level_averages())
    total = 0.0
    with np.errstate(over="ignore"):
        for n, weight in enumerate(weights, 1):
            s = float(f.K) ** -n * float(np.sum(np.abs(diffs[level_slice(f.K, n - 1)]) ** p))
            total += weight * s
    return _in_range("the energy", f"p = {p:g}", total)


def _energy_modular(f: BoundaryFunction, params: EnergyParams) -> YoungModular:
    """Phi(|f_I - f_parent| * e^(eps*n)) per level n, with the level weight
    e^(eps*n*(theta-1)*p) * (n + C)^lambda2 * K^(-n), all 0 for a constant
    f.  A factor e^(eps*n) outside the normal float range names its level
    and epsilon, before any weight is checked."""
    diffs = child_minus_parent(f.K, f.level_averages())
    if f.is_constant:
        diffs.fill(0.0)  # from K = 3 the averages can round off the value
    np.abs(diffs, out=diffs)
    eps, at = params.epsilon, f"epsilon = {params.epsilon:g}"
    for n in range(1, f.depth + 1):
        factor = _in_range(f"the level-{n} factor e^(eps n)", at, lambda: math.exp(eps * n))
        diffs[level_slice(f.K, n - 1)] *= factor
    weights = _level_weights(f.depth, params, orlicz=True)
    segments = [(f.K**n, weight * float(f.K) ** -n) for n, weight in enumerate(weights, 1)]
    return YoungModular(params.phi, diffs.reshape(-1), segments)


def dyadic_orlicz_modular(f: BoundaryFunction, params: EnergyParams) -> float:
    """Orlicz form of the multiscale energy.

    Sum over levels n = 1..depth of e^(eps*n*(theta-1)*p) * (n + C)^lambda2
    * sum_cells K^(-n) Phi(|f_I - f_parent| * e^(eps*n)), C the shift of
    `EnergyParams`.  At lambda1 = 0 this is `dyadic_energy`, because the
    e^(eps*n*p) pulled out of Phi cancels the (theta-1) shift.
    """
    return _energy_modular(f, params).value(1.0)


def orlicz_besov_norm(f: BoundaryFunction, params: EnergyParams) -> float:
    """Gauge norm: the Orlicz norm of f under params.phi plus the gauge of
    the Orlicz energy of f/k (`dyadic_orlicz_modular`)."""
    energy = _gauge(_energy_modular(f, params))
    return orlicz_norm(f, params.phi) + energy


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte Carlo estimate and its standard error."""

    value: float
    stderr: float


def _has_closed_form(p: float) -> bool:
    return float(p).is_integer() and 1 <= p <= MAX_CLOSED_FORM_P


def double_integral_is_exact(K: int, depth: int, p: float) -> bool:
    """Whether `double_integral_energy` computes the seminorm at this size:
    always at integer p <= MAX_CLOSED_FORM_P (sorted prefix power sums),
    otherwise while the K^(2*depth) leaf pairs fit in `PAIR_BUDGET`.
    Where it does not, use `double_integral_energy_mc`."""
    return _has_closed_form(p) or K ** (2 * depth) <= PAIR_BUDGET


def _level_pair_sums(f: BoundaryFunction, p: float):
    """Yield (n, s, S) for n = depth-1 down to 0, where S[v] * 2^s is the
    sum of |f_a - f_b|^p over ordered pairs of leaves in block v of level n.

    Integer p <= MAX_CLOSED_FORM_P: each block sorted (the K sorted child
    blocks merged by a stable sort) and shifted by its midrange to y, so
    that a < b has y_a <= y_b and the pair term
    (y_b - y_a)^p = sum_k C(p, k) (-1)^k y_b^(p-k) y_a^k.  Summed over
    a <= b (the a = b terms vanish), that is, per b, the polynomial in
    y_b with the coefficients C(p, k) (-1)^k Q_k(b), where Q_k(b) is the
    sum of y_a^k over a <= b.  Horner's rule evaluates it in the same four
    block-sized arrays at every p.  A constant block shifts to zeros and
    gives exactly 0.  With |y| at most half the range, the alternating
    terms keep their digits: within 2.3e-16 relative of a compensated sum
    over all pairs at p = 1, 2, 3, 7, 8, 30, 31 and 99.  Each level's y
    is scaled by a power of two 2^-e that puts its largest |y| in
    [1/2, 1), and s = e p, so that S stays in the normal float range where
    the pair sums themselves would not; the scaling commutes with
    rounding.  Other p: every pair enumerated, K^(2*depth) in all, s = 0.
    """
    K, N, x = f.K, f.depth, f.values
    if _has_closed_form(p):
        p = int(p)
        for n in reversed(range(N)):
            x = np.sort(x.reshape(K**n, -1), axis=1, kind="stable")
            y = x - (x[:, :1] + 0.5 * (x[:, -1:] - x[:, :1]))
            e = int(np.frexp(np.abs(y).max())[1])
            np.ldexp(y, -e, out=y)
            acc = np.arange(1.0, y.shape[1] + 1) * y  # Q_0(b) y_b, Q_0(b) = b + 1
            power, prefix = y.copy(), np.empty_like(y)
            for k in range(1, p + 1):
                if k > 1:
                    power *= y
                    acc *= y
                np.cumsum(power, axis=1, out=prefix)
                prefix *= (-1) ** k * float(math.comb(p, k))
                acc += prefix
            yield n, e * p, 2.0 * acc.sum(axis=1)
    else:
        for n in reversed(range(N)):
            blocks = x.reshape(K**n, -1)
            yield n, 0, (np.abs(blocks[:, :, None] - blocks[:, None, :]) ** p).sum(axis=(1, 2))


def double_integral_energy(f: BoundaryFunction, params: EnergyParams) -> float:
    """Exact double-sum fractional seminorm (to the p-th power).

    Ordered pairs of distinct leaves (a, b) with split level k contribute
    nu(a) nu(b) |f_a - f_b|^p / (d_k^(theta*p) * K^(-k)), where d_k is the
    ultrametric distance and K^(-k) the mass of the distance ball (the
    level-k cell around a).  Pairs are grouped by split vertex v: their
    sum is S(v) minus the S of the children of v, with S the pair sum
    over a block (`_level_pair_sums`).  At integer p <= MAX_CLOSED_FORM_P
    the cost is O(p * depth * K^depth) at any depth; at other p pairs are
    enumerated and the call is rejected beyond `PAIR_BUDGET` leaf pairs
    (`double_integral_is_exact`).  The sum is 0 for a constant f, and out
    of range an error naming p.
    """
    K, N, p = f.K, f.depth, params.p
    if not double_integral_is_exact(K, N, p):
        raise ValueError(
            f"exact pair enumeration at p = {p:g} needs K^(2N) = {K ** (2 * N)} "
            f"<= {PAIR_BUDGET}; use the Monte Carlo estimator instead"
        )
    d = split_distances(params.epsilon, N)
    if f.is_constant:
        return 0.0  # every pair term is 0
    cross, scale = [0.0] * N, [0] * N
    below, below_scale = np.zeros(K**N), 0  # a level-N block is one leaf: no pairs
    # the enumerated pair terms are not scaled, and can overflow (an inf or
    # NaN cross sum makes the total one)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, s, sums in _level_pair_sums(f, p):
            children = np.ldexp(child_sums(K, below), below_scale - s)
            cross[n], scale[n] = float((sums - children).sum()), s
            below, below_scale = sums, s

    def total() -> float:
        # weight x cross x 2^scale as one product of mantissas and one
        # exponent, so that no factor alone leaves the float range
        out = 0.0
        for n in range(N):
            mw, ew = math.frexp(float(K) ** (n - 2 * N) / d[n] ** (params.theta * p))
            mc, ec = math.frexp(cross[n])
            out += math.ldexp(mw * mc, ew + ec + scale[n])
        return out

    return _in_range("the double sum", f"p = {p:g}", total)


def double_integral_energy_mc(
    f: BoundaryFunction,
    params: EnergyParams,
    n_samples: int,
    seed: int,
) -> MonteCarloEstimate:
    """Unbiased sampler of the double-sum seminorm: leaf pairs drawn from
    the product measure, same-leaf pairs contributing zero: 0 where every
    sampled pair has equal values, and out of range an error naming p."""
    if n_samples < 2:
        raise ValueError("need at least two samples")
    K, N = f.K, f.depth
    theta, p = params.theta, params.p
    d = split_distances(params.epsilon, N)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, f.n_leaves, n_samples)
    b = rng.integers(0, f.n_leaves, n_samples)
    # common prefix length of the leaf addresses
    prefix = np.zeros(n_samples, dtype=int)
    same = np.ones(n_samples, dtype=bool)
    for j in range(1, N + 1):
        block = K ** (N - j)
        eq = (a // block) == (b // block)
        prefix += same & eq
        same &= eq
    vals = np.zeros(n_samples)
    mask = a != b
    k = prefix[mask]
    jumps = np.abs(f.values[a[mask]] - f.values[b[mask]])
    with np.errstate(over="ignore"):  # an inf estimate is refused below
        vals[mask] = jumps**p * float(K) ** k / d[k] ** (theta * p)
    est = float(vals.mean())
    if jumps.any():
        est = _in_range("the Monte Carlo double sum", f"p = {p:g}", est)
    se = float(vals.std(ddof=1) / math.sqrt(n_samples))
    return MonteCarloEstimate(est, se)
