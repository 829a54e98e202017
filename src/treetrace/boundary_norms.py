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
  by their split vertex) together with an unbiased Monte Carlo estimator
  for resolutions where exact enumeration is too large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "double_integral_energy",
    "double_integral_energy_mc",
]

DEFAULT_PAIR_BUDGET = 16384


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
        with open(path, "w", newline="") as fh:
            fh.write("K,N\n")
            fh.write(f"{self.K},{self.depth}\n")
            fh.write("address,value\n")
            for i, v in enumerate(self.values):
                fh.write(f"{_address_string(self.K, self.depth, i)},{v:.17g}\n")

    @classmethod
    def from_csv(cls, path) -> "BoundaryFunction":
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if lines[0] != "K,N":
            raise ValueError("missing K,N header")
        K, depth = (int(s) for s in lines[1].split(","))
        values = np.zeros(K**depth)
        for ln in lines[3:]:
            addr, val = ln.split(",")
            values[_address_index(K, addr)] = float(val)
        return cls(K, depth, values)


def _address_string(K: int, depth: int, index: int) -> str:
    if K > 10:
        raise ValueError("digit-string addresses support K <= 10 only")
    digits = []
    for _ in range(depth):
        index, d = divmod(index, K)
        digits.append(str(d))
    return "".join(reversed(digits))


def _address_index(K: int, addr: str) -> int:
    idx = 0
    for ch in addr:
        idx = idx * K + int(ch)
    return idx


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
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def cell_average(f: BoundaryFunction, cell_digits) -> float:
    """Mean of f over the cell with the given address (exact block mean)."""
    digits = tuple(int(d) for d in cell_digits)
    level = len(digits)
    if level > f.depth:
        raise ValueError("cell level exceeds function resolution")
    idx = 0
    for d in digits:
        if not 0 <= d < f.K:
            raise ValueError(f"digit {d} out of range for K={f.K}")
        idx = idx * f.K + d
    block = f.K ** (f.depth - level)
    return float(f.values[idx * block : (idx + 1) * block].mean())


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


def _level_diffs(f: BoundaryFunction) -> list[np.ndarray]:
    """Per level n >= 1: the K^n differences (cell average - parent average)."""
    avgs = f.level_averages()
    return [avgs[n] - np.repeat(avgs[n - 1], f.K) for n in range(1, f.depth + 1)]


def dyadic_energy(f: BoundaryFunction, params: EnergyParams) -> float:
    """Weighted multiscale power energy of the cell-average differences.

    Sum over levels n = 1..depth of
    e^(eps*n*theta*p) * n^lam * sum_cells K^(-n) |f_I - f_parent(I)|^p.
    """
    eps, theta, p, lam = params.epsilon, params.theta, params.p, params.lam
    total = 0.0
    for n, diff in enumerate(_level_diffs(f), start=1):
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
    return YoungModular(
        phi,
        [
            (
                np.abs(diff) * math.exp(eps * n),
                math.exp(eps * n * (theta - 1.0) * p) * float(n) ** lam2 * float(f.K) ** -n,
            )
            for n, diff in enumerate(_level_diffs(f), start=1)
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


def _split_distances(params: EnergyParams, depth: int) -> np.ndarray:
    n = np.arange(depth)
    return 2.0 / params.epsilon * np.exp(-params.epsilon * n)


def double_integral_energy(
    f: BoundaryFunction,
    params: EnergyParams,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> float:
    """Exact double-sum fractional seminorm (to the p-th power).

    Ordered pairs of distinct leaves (a, b) with split level k contribute
    nu(a) nu(b) |f_a - f_b|^p / (d_k^(theta*p) * K^(-k)), where d_k is the
    ultrametric distance and K^(-k) the mass of the distance ball (the
    level-k cell around a).  Pairs are grouped by split vertex; the cost is
    of order K^(2*depth), so the call is rejected beyond `pair_budget`.
    """
    K, N = f.K, f.depth
    if K ** (2 * N) > pair_budget:
        raise ValueError(
            f"exact pair enumeration needs K^(2N) = {K ** (2 * N)} <= {pair_budget}; "
            "use the Monte Carlo estimator instead"
        )
    theta, p = params.theta, params.p
    d = _split_distances(params, N)
    # S[n][v]: sum of |f_a - f_b|^p over ordered leaf pairs inside block v of level n
    pair_sums = []
    for n in range(N + 1):
        blocks = f.values.reshape(K**n, K ** (N - n))
        diff = np.abs(blocks[:, :, None] - blocks[:, None, :]) ** p
        pair_sums.append(diff.sum(axis=(1, 2)))
    total = 0.0
    for n in range(N):
        cross = pair_sums[n] - pair_sums[n + 1].reshape(-1, K).sum(axis=1)
        weight = float(K) ** (n - 2 * N) / d[n] ** (theta * p)
        total += weight * float(cross.sum())
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
    d = _split_distances(params, N)
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
