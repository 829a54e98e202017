"""Function spaces on the dyadic boundary of a truncated K-ary tree.

A boundary function is piecewise constant on the K^N leaf cells, stored
as one flat array in lexicographic address order, so the cell of a vertex
is a contiguous block and cell averages are plain block means, given for
every vertex in the level order of `treetrace.address`.  On top of that
representation the module provides

* power-mean and Luxemburg (gauge) norms for the uniform cell measure,
* two multiscale energies built from differences of successive cell
  averages: a pure power form with a level weight e^(eps*n*theta*p) * n^lam,
  and an Orlicz form that feeds the rescaled differences through a Young
  function with weight e^(eps*n*(theta-1)*p) * n^lam2,
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
from dataclasses import dataclass

import numpy as np

from .address import child_minus_parent, function_values, level_slice
from .address import read_function_csv, write_function_csv
from .tree import split_distances
from .young import YoungModular, YoungPhi, luxemburg_gauge

__all__ = [
    "BoundaryFunction",
    "EnergyParams",
    "MonteCarloEstimate",
    "DEFAULT_PAIR_BUDGET",
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

DEFAULT_PAIR_BUDGET = 16384
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

    def level_averages(self) -> np.ndarray:
        """The average over the cell of every vertex, in level order.  The
        leaves are copied in unchanged, so resolution-preserving roundtrips
        stay bitwise exact.  Memoized: computed on the first call, after
        which every call returns the same read-only array."""
        if self._averages is None:
            K = self.K
            out = np.empty(level_slice(K, self.depth).stop)
            out[level_slice(K, self.depth)] = self.values
            for n in reversed(range(self.depth)):
                out[level_slice(K, n)] = out[level_slice(K, n + 1)].reshape(-1, K).mean(axis=1)
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
    """Exponents of the multiscale energies.

    theta    smoothness exponent, in [0, 1)
    p        integrability exponent, >= 1
    epsilon  metric decay rate of the underlying tree (sets the scale
             e^(-eps*n) of level n)
    lam      level log-weight of the power energy
    lambda2  level log-weight of the Orlicz energy

    p, epsilon, lambda2 and lam must be finite.
    """

    theta: float
    p: float
    epsilon: float
    lam: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p", "epsilon", "lambda2", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def lp_norm(f: BoundaryFunction, p: float) -> float:
    if p < 1:
        raise ValueError("p must be at least 1")
    return float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))


def _gauge(rho: YoungModular) -> float:
    """Luxemburg gauge of the amplitudes of rho as given (by homogeneity)."""
    return rho.scale * luxemburg_gauge(rho, start=rho.start) if rho.scale > 0.0 else 0.0


def orlicz_norm(f: BoundaryFunction, phi: YoungPhi) -> float:
    """Gauge norm for the uniform leaf measure (total mass 1)."""
    return _gauge(YoungModular(phi, np.abs(f.values), [(f.n_leaves, 1.0 / f.n_leaves)]))


def _level_weight(n: int, eps: float, t: float, p: float, lam: float, key: str) -> float:
    """e^(eps*n*t*p) * n^lam, the weight of level n.  A weight beyond the
    float range is a ValueError naming the factor that left it: p for
    e^(eps*n*t*p), lam as `key` for n^lam, and both for their product."""
    where = f"the level-{n} weight"
    try:
        growth = math.exp(eps * n * t * p)
    except OverflowError:
        raise ValueError(f"{where} e^(eps n theta p) overflows at p = {p:g}") from None
    try:
        power = float(n) ** lam
    except OverflowError:
        raise ValueError(f"{where} overflows at {key} = {lam!r}") from None
    weight = growth * power
    if not math.isfinite(weight):
        raise ValueError(f"{where} overflows at p = {p:g} and {key} = {lam!r}")
    return weight


def dyadic_energy(f: BoundaryFunction, params: EnergyParams) -> float:
    """Weighted multiscale power energy of the cell-average differences.

    Sum over levels n = 1..depth of
    e^(eps*n*theta*p) * n^lam * sum_cells K^(-n) |f_I - f_parent(I)|^p.
    """
    eps, theta, p, lam = params.epsilon, params.theta, params.p, params.lam
    diffs = child_minus_parent(f.K, f.level_averages())
    total = 0.0
    for n in range(1, f.depth + 1):
        s = float(f.K) ** -n * float(np.sum(np.abs(diffs[level_slice(f.K, n - 1)]) ** p))
        total += _level_weight(n, eps, theta, p, lam, "lam") * s
    return total


def _energy_modular(
    f: BoundaryFunction, params: EnergyParams, phi: YoungPhi
) -> YoungModular:
    """Phi(|f_I - f_parent| * e^(eps*n)) per level n, with the level weight
    e^(eps*n*(theta-1)*p) * n^lambda2 * K^(-n)."""
    if abs(phi.p - params.p) > 1e-12:
        raise ValueError("phi.p must match params.p")
    eps, theta, p, lam2 = params.epsilon, params.theta, params.p, params.lambda2
    diffs = child_minus_parent(f.K, f.level_averages())
    np.abs(diffs, out=diffs)
    segments = []
    for n in range(1, f.depth + 1):
        diffs[level_slice(f.K, n - 1)] *= math.exp(eps * n)
        weight = _level_weight(n, eps, theta - 1.0, p, lam2, "lambda2") * float(f.K) ** -n
        segments.append((f.K**n, weight))
    return YoungModular(phi, diffs.reshape(-1), segments)


def dyadic_orlicz_modular(
    f: BoundaryFunction, params: EnergyParams, phi: YoungPhi
) -> float:
    """Orlicz form of the multiscale energy.

    Sum over levels n = 1..depth of
    e^(eps*n*(theta-1)*p) * n^lambda2 * sum_cells K^(-n) Phi(|f_I - f_parent| * e^(eps*n)).
    With lambda1 = 0 and lam = lambda2 this reduces to `dyadic_energy`
    because the e^(eps*n*p) pulled out of Phi cancels the (theta-1) shift.
    """
    return _energy_modular(f, params, phi).value(1.0)


def orlicz_besov_norm(f: BoundaryFunction, params: EnergyParams, phi: YoungPhi) -> float:
    """Gauge norm: Orlicz norm of f plus the gauge of the Orlicz energy of f/k."""
    energy = _gauge(_energy_modular(f, params, phi))
    return orlicz_norm(f, phi) + energy


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte Carlo estimate and its standard error."""

    value: float
    stderr: float


def _has_closed_form(p: float) -> bool:
    return float(p).is_integer() and 1 <= p <= MAX_CLOSED_FORM_P


def double_integral_is_exact(
    K: int, depth: int, p: float, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> bool:
    """Whether `double_integral_energy` computes the seminorm at this size:
    always at integer p <= MAX_CLOSED_FORM_P (sorted prefix power sums),
    otherwise while the K^(2*depth) leaf pairs fit in `pair_budget`.
    Where it does not, use `double_integral_energy_mc`."""
    return _has_closed_form(p) or K ** (2 * depth) <= pair_budget


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


def double_integral_energy(
    f: BoundaryFunction,
    params: EnergyParams,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> float:
    """Exact double-sum fractional seminorm (to the p-th power).

    Ordered pairs of distinct leaves (a, b) with split level k contribute
    nu(a) nu(b) |f_a - f_b|^p / (d_k^(theta*p) * K^(-k)), where d_k is the
    ultrametric distance and K^(-k) the mass of the distance ball (the
    level-k cell around a).  Pairs are grouped by split vertex v: their
    sum is S(v) minus the S of the children of v, with S the pair sum
    over a block (`_level_pair_sums`).  At integer p <= MAX_CLOSED_FORM_P
    the cost is O(p * depth * K^depth) at any depth; at other p pairs are
    enumerated and the call is rejected beyond `pair_budget`
    (`double_integral_is_exact`).
    """
    K, N, p = f.K, f.depth, params.p
    if not double_integral_is_exact(K, N, p, pair_budget):
        raise ValueError(
            f"exact pair enumeration at p = {p:g} needs K^(2N) = {K ** (2 * N)} "
            f"<= {pair_budget}; use the Monte Carlo estimator instead"
        )
    d = split_distances(params.epsilon, N)
    cross, scale = [0.0] * N, [0] * N
    below, below_scale = np.zeros(K**N), 0  # a level-N block is one leaf: no pairs
    for n, s, sums in _level_pair_sums(f, p):
        children = np.ldexp(below.reshape(-1, K).sum(axis=1), below_scale - s)
        cross[n], scale[n] = float((sums - children).sum()), s
        below, below_scale = sums, s
    total = 0.0
    for n in range(N):
        # weight x cross x 2^scale as one product of mantissas and one
        # exponent, so that no factor alone leaves the float range
        mw, ew = math.frexp(float(K) ** (n - 2 * N) / d[n] ** (params.theta * p))
        mc, ec = math.frexp(cross[n])
        try:
            total += math.ldexp(mw * mc, ew + ec + scale[n])
        except OverflowError:
            raise ValueError(f"the double sum overflows at p = {p:g}") from None
    return total


def double_integral_energy_mc(
    f: BoundaryFunction,
    params: EnergyParams,
    n_samples: int,
    seed: int,
) -> MonteCarloEstimate:
    """Unbiased sampler of the double-sum seminorm: leaf pairs drawn from
    the product measure, same-leaf pairs contributing zero."""
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
    vals[mask] = (
        np.abs(f.values[a[mask]] - f.values[b[mask]]) ** p
        * float(K) ** k
        / d[k] ** (theta * p)
    )
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_samples))
    return MonteCarloEstimate(est, se)
