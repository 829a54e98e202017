"""Function spaces on the dyadic boundary of a truncated K-ary tree.

A boundary function is piecewise constant on the K^N leaf cells, stored
as one flat array in lexicographic address order, so the cell of a vertex
is a contiguous block and cell averages are plain block means.  On top of
that representation the module provides

* power-mean and Luxemburg (gauge) norms for the uniform cell measure,
* two multiscale energies built from differences of successive cell
  averages: a pure power form with a level weight e^(eps*n*theta*p) * n^lam,
  and an Orlicz form that feeds the rescaled differences through a Young
  function with weight e^(eps*n*(theta-1)*p) * n^lam2,
* the gauge norm built from the Orlicz energy, and
* the exact double-integral fractional seminorm (all leaf pairs grouped
  by their split vertex), in O(depth * K^depth) at p = 1 (sorted gaps)
  and even p (power sums) and by pair enumeration at other p, together
  with an unbiased Monte Carlo estimator for other p at resolutions
  where enumeration is too large (`double_integral_is_exact` decides).

Cell addresses and the leaf-row CSV files go through `treetrace.address`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .address import (
    cell_leaves,
    child_minus_parent,
    read_function_csv,
    write_function_csv,
)
from .tree import split_distances
from .young import YoungModular, YoungPhi, luxemburg_gauge

__all__ = [
    "BoundaryFunction",
    "EnergyParams",
    "MonteCarloEstimate",
    "DEFAULT_PAIR_BUDGET",
    "cell_average",
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
# even p above this is enumerated: the closed form costs p power sums per
# level and was checked against the enumeration up to here
MAX_CLOSED_FORM_P = 100


class BoundaryFunction:
    """Piecewise-constant function on the K^depth leaf cells."""

    def __init__(self, K: int, depth: int, values) -> None:
        if K < 2:
            raise ValueError("K must be at least 2")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        values = np.asarray(values, dtype=float).copy()
        if values.shape != (K**depth,):
            raise ValueError(f"expected {K**depth} leaf values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("leaf values must be finite")
        self.K = K
        self.depth = depth
        self.values = values

    @property
    def n_leaves(self) -> int:
        return self.values.size

    @property
    def leaf_measure(self) -> float:
        return float(self.K) ** -self.depth

    def level_averages(self) -> list[np.ndarray]:
        """Cell averages for every level, bottom-up; entry n has K^n values.

        The deepest entry is the leaf array itself (no arithmetic applied),
        so resolution-preserving roundtrips stay bitwise exact.
        """
        out = [self.values]
        cur = self.values
        for _ in range(self.depth):
            cur = cur.reshape(-1, self.K).mean(axis=1)
            out.append(cur)
        out.reverse()
        return out

    def scaled(self, factor: float) -> "BoundaryFunction":
        return BoundaryFunction(self.K, self.depth, self.values * factor)

    def to_csv(self, path) -> None:
        write_function_csv(path, self.K, self.depth, [self.values])

    @classmethod
    def from_csv(cls, path) -> "BoundaryFunction":
        K, depth, (values,) = read_function_csv(path, leaves_only=True)
        return cls(K, depth, values)


@dataclass(frozen=True)
class EnergyParams:
    """Exponents of the multiscale energies.

    theta    smoothness exponent, in [0, 1)
    p        integrability exponent, >= 1
    epsilon  metric decay rate of the underlying tree (sets the scale
             e^(-eps*n) of level n)
    lam      level log-weight of the power energy
    lambda2  level log-weight of the Orlicz energy
    """

    theta: float
    p: float
    epsilon: float
    lam: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def cell_average(f: BoundaryFunction, cell_digits) -> float:
    """Mean of f over the cell with the given address (exact block mean)."""
    return float(f.values[cell_leaves(f.K, f.depth, cell_digits)].mean())


def lp_norm(f: BoundaryFunction, p: float) -> float:
    if p < 1:
        raise ValueError("p must be at least 1")
    return float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))


def _gauge(rho: YoungModular, tol: float) -> float:
    """Luxemburg gauge of the amplitudes of rho as given (by homogeneity)."""
    return rho.scale * luxemburg_gauge(rho, tol) if rho.scale > 0.0 else 0.0


def orlicz_norm(f: BoundaryFunction, phi: YoungPhi, tol: float = 1e-10) -> float:
    """Gauge norm for the uniform leaf measure (total mass 1)."""
    return _gauge(YoungModular(phi, [(np.abs(f.values), 1.0 / f.n_leaves)]), tol)


def dyadic_energy(f: BoundaryFunction, params: EnergyParams) -> float:
    """Weighted multiscale power energy of the cell-average differences.

    Sum over levels n = 1..depth of
    e^(eps*n*theta*p) * n^lam * sum_cells K^(-n) |f_I - f_parent(I)|^p.
    """
    eps, theta, p, lam = params.epsilon, params.theta, params.p, params.lam
    diffs = child_minus_parent(f.K, f.level_averages())
    total = 0.0
    for n, diff in enumerate(diffs, start=1):
        s = float(f.K) ** -n * float(np.sum(np.abs(diff) ** p))
        total += math.exp(eps * n * theta * p) * float(n) ** lam * s
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
    return YoungModular(
        phi,
        [
            (
                np.abs(diff) * math.exp(eps * n),
                math.exp(eps * n * (theta - 1.0) * p) * float(n) ** lam2 * float(f.K) ** -n,
            )
            for n, diff in enumerate(diffs, start=1)
        ],
    )


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


def orlicz_besov_norm(
    f: BoundaryFunction, params: EnergyParams, phi: YoungPhi, tol: float = 1e-10
) -> float:
    """Gauge norm: Orlicz norm of f plus the gauge of the Orlicz energy of f/k."""
    energy = _gauge(_energy_modular(f, params, phi), tol)
    return orlicz_norm(f, phi, tol) + energy


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    stderr: float
    n_samples: int


def _has_closed_form(p: float) -> bool:
    return p == 1 or (p % 2 == 0 and p <= MAX_CLOSED_FORM_P)


def double_integral_is_exact(
    K: int, depth: int, p: float, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> bool:
    """Whether `double_integral_energy` computes the seminorm at this size:
    always at p = 1 and at even p <= MAX_CLOSED_FORM_P (closed forms),
    otherwise while the K^(2*depth) leaf pairs fit in `pair_budget`.
    Where it does not, use `double_integral_energy_mc`."""
    return _has_closed_form(p) or K ** (2 * depth) <= pair_budget


def _even_pair_sums(y: np.ndarray, p: int) -> np.ndarray:
    """Per row, sum_ab (y_a - y_b)^p for even p, from the power sums
    P_j = sum y^j: sum_j C(p, j) (-1)^j P_(p-j) P_j, where the terms j
    and p - j are equal."""
    t = np.ones_like(y)
    power = [t.sum(axis=1)]
    for _ in range(p):
        t *= y
        power.append(t.sum(axis=1))
    q = p // 2
    total = (-1) ** q * float(math.comb(p, q)) * power[q] * power[q]
    for j in range(q):
        total += (-1) ** j * 2.0 * float(math.comb(p, j)) * power[p - j] * power[j]
    return total


def _level_pair_sums(f: BoundaryFunction, p: float):
    """Yield (n, S) for n = depth-1 down to 0, where S[v] is the sum of
    |f_a - f_b|^p over ordered pairs of leaves in block v of level n.

    p = 1: each block sorted (the K sorted child blocks merged by a
    stable sort) and its m - 1 gaps weighted by i (m - i), the number of
    pairs they separate.  Even p: the power-sum expansion of each block
    shifted by its midrange, a block value for a constant block, which
    then gives exactly 0; the shift keeps |y| within half the range, so
    the alternating terms do not cancel (measured to 1.4e-15 relative up
    to p = 100).  Other p: every pair enumerated, K^(2*depth) in all.
    """
    K, N, x = f.K, f.depth, f.values
    if p == 1:
        for n in reversed(range(N)):
            x = np.sort(x.reshape(K**n, -1), axis=1, kind="stable")
            i = np.arange(1.0, x.shape[1])
            yield n, 2.0 * (np.diff(x, axis=1) @ (i * (x.shape[1] - i)))
    elif _has_closed_form(p):
        lo = hi = x
        for n in reversed(range(N)):
            lo = lo.reshape(-1, K).min(axis=1)
            hi = hi.reshape(-1, K).max(axis=1)
            mid = lo + 0.5 * (hi - lo)
            yield n, _even_pair_sums(x.reshape(K**n, -1) - mid[:, None], int(p))
    else:
        for n in reversed(range(N)):
            blocks = x.reshape(K**n, -1)
            yield n, (np.abs(blocks[:, :, None] - blocks[:, None, :]) ** p).sum(axis=(1, 2))


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
    over a block (`_level_pair_sums`).  At p = 1 and even p the cost is
    O(depth * K^depth) at any depth; otherwise pairs are enumerated and
    the call is rejected beyond `pair_budget` (`double_integral_is_exact`).
    """
    K, N, p = f.K, f.depth, params.p
    if not double_integral_is_exact(K, N, p, pair_budget):
        raise ValueError(
            f"exact pair enumeration at p = {p:g} needs K^(2N) = {K ** (2 * N)} "
            f"<= {pair_budget}; use the Monte Carlo estimator instead"
        )
    d = split_distances(params.epsilon, N)
    cross = [0.0] * N
    below = np.zeros(K**N)  # a level-N block is one leaf: no pairs
    for n, sums in _level_pair_sums(f, p):
        cross[n] = float((sums - below.reshape(-1, K).sum(axis=1)).sum())
        below = sums
    total = 0.0
    for n in range(N):
        total += float(K) ** (n - 2 * N) / d[n] ** (params.theta * p) * cross[n]
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
    return MonteCarloEstimate(est, se, n_samples)
