"""Experiment drivers: random function families, ratio reports, and the
empirical stability checks for the trace/extension norm bounds and the
equivalence of the boundary energies.

A "bounded ratio" claim is operationalized as two thresholds on a sweep
over depths: the least-squares slope of log(ratio) against depth must stay
within +-SLOPE_TOL of zero, and the spread max/min of the sampled ratios
must stay at most SPREAD_MAX.  A column that is an identity of the config
is no evidence of either.  Reports sort their rows on (seed, depth) before
serialization so identical configurations produce identical CSV bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .address import cell_leaves, check_digits, child_minus_parent, index_digits, level_slice
from . import boundary_norms
from .boundary_norms import (
    MC_SAMPLES,
    BoundaryFunction,
    EnergyParams,
    double_integral_energy,
    double_integral_energy_mc,
    double_integral_is_exact,
    dyadic_energy,
    dyadic_orlicz_modular,
    orlicz_besov_norm,
    orlicz_norm,
)
from . import hajlasz
from .hajlasz import ConvergenceError, HajlaszInstance
from .operators import extend, trace
from .tree import TreeParams, ahlfors_ratio, doubling_ratios, sample_ball_centers
from .tree_norms import TreeFunction, gradient_lphi_modular, newtonian_norm
from .young import YoungPhi

__all__ = [
    "BOUNDARY_FAMILIES",
    "TREE_FAMILIES",
    "ExperimentConfig",
    "RatioReport",
    "CheckReport",
    "TwoSidedFit",
    "generate",
    "generate_for",
    "indicator_function",
    "fit_log_slope",
    "tail_constant",
    "fit_two_sided",
    "chi_exceed_fraction",
    "verify_trace_bound",
    "verify_extension_bound",
    "verify_equivalences",
    "verify_roundtrip",
    "verify_doubling",
    "verify_ahlfors",
    "load_config",
]

LN2 = math.log(2.0)
# the largest error the exact checks (roundtrip, ahlfors) allow
_EXACT_TOL = 1e-12
# the PASS rule of a ratio column: |slope of log(ratio)| and max/min at most
# these, read when a report is built
SLOPE_TOL = 0.1
SPREAD_MAX = 100.0

BOUNDARY_FAMILIES = ("iid-uniform", "cell-indicator", "lacunary")
TREE_FAMILIES = ("extension-of-boundary", "random-vertex")

# the code in each sample's seed: reordering the families changes every sample
_FAMILY_CODES = {name: code for code, name in enumerate(BOUNDARY_FAMILIES + TREE_FAMILIES, 1)}


def indicator_function(K: int, depth: int, cell_digits) -> BoundaryFunction:
    """Indicator of one dyadic cell, as a resolution-`depth` function."""
    digits = check_digits(K, cell_digits, depth)
    if not digits:
        raise ValueError("cell level must lie in 1..depth")
    values = np.zeros(K**depth)
    values[cell_leaves(K, depth, digits)] = 1.0
    return BoundaryFunction(K, depth, values)


def generate(
    family: str,
    *,
    K: int,
    depth: int,
    seed: int,
    epsilon: float | None = None,
    theta: float | None = None,
):
    """Deterministic sample from one of the named function families.

    Boundary families return a BoundaryFunction, tree families a
    TreeFunction.  The lacunary family needs epsilon and theta: it sums
    random-sign layers with amplitude e^(-eps*theta*n)/n, one per level.
    """
    if family not in _FAMILY_CODES:
        raise ValueError(f"unknown family {family!r}")
    rng = np.random.default_rng([_FAMILY_CODES[family], seed, depth, K])
    if family == "iid-uniform":
        return BoundaryFunction(K, depth, rng.uniform(size=K**depth))
    if family == "cell-indicator":
        level = int(rng.integers(1, depth + 1))
        idx = int(rng.integers(0, K**level))
        return indicator_function(K, depth, index_digits(K, level, idx))
    if family == "lacunary":
        if epsilon is None or theta is None:
            raise ValueError("lacunary family needs epsilon and theta")
        values = np.zeros(K**depth)
        for n in range(1, depth + 1):
            amp = math.exp(-epsilon * theta * n) / n
            signs = rng.choice(np.array([-1.0, 1.0]), size=K**n)
            values += amp * np.repeat(signs, K ** (depth - n))
        return BoundaryFunction(K, depth, values)
    if family == "extension-of-boundary":
        u = BoundaryFunction(K, depth, rng.uniform(size=K**depth))
        return extend(u)
    # random-vertex
    return TreeFunction(K, depth, rng.uniform(size=level_slice(K, depth).stop))


@dataclass
class ExperimentConfig:
    """Geometry, exponents and sweep lists for one experiment run.

    The boundary energies take p, epsilon, lambda1 and lambda2 as they are
    (`energy_params`), and the smoothness exponent is always the matched
    one, `resolved_theta` = 1 - (beta - log K) / (epsilon * p), as the
    trace theorem fixes it.
    The three ratio drivers check the paper's standing hypothesis, p >
    (beta - log K)/epsilon > 0, that is 0 < theta < 1, before they sample
    (`_sweep`).  `K` must be at least 2, the real keys finite, `epsilon`
    positive and `p` at least 1.  The tree of each depth takes the minimal shift C and the
    order-8 edge rule (`TreeParams`).  `hajlasz_max_depth` must be
    nonnegative (0 runs no Hajlasz program, nor does a depth whose leaf
    pairs pass `hajlasz.PAIR_CAP`), every seed nonnegative and every
    depth at least 1.  The fields are the config-file keys
    (`load_config`); where the output goes is the command line's
    (`treetrace.cli`).
    """

    K: int = 2
    epsilon: float = LN2
    beta: float = 2.0 * LN2
    p: float = 2.0
    lambda1: float = 0.0
    lambda2: float = 0.0
    family: str | None = None
    seeds: tuple[int, ...] = tuple(range(8))
    depths: tuple[int, ...] = (4, 5, 6, 7)
    n_balls: int = 1000
    hajlasz_max_depth: int = 6

    def __post_init__(self) -> None:
        # K comes first, so that every command rejects K < 2 alike
        for name, least in (("K", 2), ("n_balls", 1), ("hajlasz_max_depth", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        # before the range checks, which NaN passes; `verify roundtrip` and
        # `gen` build neither the tree nor the energy parameters
        for name in ("epsilon", "beta", "p", "lambda1", "lambda2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.p < 1.0:
            raise ValueError(f"p must be at least 1, got {self.p!r}")
        for name in ("depths", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be nonnegative, got {min(self.seeds)}")
        if min(self.depths) < 1:
            raise ValueError(f"depths must be at least 1, got {min(self.depths)}")

    @property
    def codimension(self) -> float:
        return (self.beta - math.log(self.K)) / self.epsilon

    @property
    def pair_budget(self) -> int:
        """`boundary_norms.PAIR_BUDGET`, not a setting; the benchmark reads it here."""
        return boundary_norms.PAIR_BUDGET

    @property
    def resolved_theta(self) -> float:
        """The matched smoothness exponent 1 - (beta - log K)/(epsilon p)."""
        return 1.0 - self.codimension / self.p

    def _theta_is(self) -> str:
        """The resolved theta, said as how it was reached."""
        return f"theta = 1 - (beta - log K)/(epsilon p) = {self.resolved_theta:.6g}"

    def tree_params(self, depth: int) -> TreeParams:
        return TreeParams(self.K, self.epsilon, self.beta, self.lambda2, depth)

    def energy_params(self) -> EnergyParams:
        """The exponents of the boundary energies, at the matched theta."""
        if not 0.0 <= self.resolved_theta < 1.0:
            raise ValueError(f"the energies need 0 <= theta < 1, but {self._theta_is()}")
        return EnergyParams(self.resolved_theta, self.p, self.epsilon, self.lambda1, self.lambda2)

    def phi(self) -> YoungPhi:
        return YoungPhi(self.p, self.lambda1)


def _single_depth(depths: np.ndarray) -> bool:
    """Whether `depths` holds fewer than two distinct depths (by min == max,
    not np.unique, which imports numpy.ma)."""
    return depths.size == 0 or depths.min() == depths.max()


def _median(values: np.ndarray) -> float:
    """np.median of `values`, bit for bit, from one sort: the middle value,
    or the mean of the two middle values; NaN where any value is NaN (a
    sort puts NaN last).  np.median imports numpy.ma."""
    s = np.sort(values)
    if s.size and np.isnan(s[-1]):
        return math.nan
    m = s.size // 2
    return float(s[m] if s.size % 2 else (s[m - 1] + s[m]) / 2.0)


def fit_log_slope(depths, values) -> float:
    """Least-squares slope of log(value) against depth; 0 for a single depth."""
    depths = np.asarray(depths, dtype=float)
    values = np.asarray(values, dtype=float)
    if _single_depth(depths):
        return 0.0
    return float(np.polyfit(depths, np.log(values), 1)[0])


@dataclass
class ColumnStats:
    """Summary of one ratio column; `slope` is None when the column has a
    single depth, so that no depth trend could be tested."""

    count: int
    minimum: float
    maximum: float
    median: float
    slope: float | None

    @classmethod
    def of(cls, depths, values) -> ColumnStats:
        """Stats of the samples `values`, taken at `depths`."""
        if _single_depth(depths):
            slope = None
        elif np.all(np.isfinite(values)) and np.all(values > 0):
            slope = fit_log_slope(depths, values)
        else:
            slope = math.inf
        return cls(
            int(values.size), float(values.min()), float(values.max()), _median(values), slope
        )

    @property
    def spread(self) -> float:
        if self.minimum <= 0:
            return math.inf
        return self.maximum / self.minimum

    @property
    def finite(self) -> bool:
        return math.isfinite(self.minimum) and math.isfinite(self.maximum)

    def within(self) -> bool:
        """Finite and positive, with no depth trend beyond SLOPE_TOL and a
        spread of at most SPREAD_MAX."""
        trend = self.slope is not None and abs(self.slope) > SLOPE_TOL
        return self.finite and self.minimum > 0 and not trend and self.spread <= SPREAD_MAX


class RatioReport:
    """Per-sample ratio values and their verdict over a depth sweep, both
    fixed at construction.  `stats` holds the `ColumnStats` of each ratio
    column with a sample; a column with none was not run (skipped at every
    depth, say) and does not count.  `identities` names the columns that
    are identities of the config, so that they hold whatever the sample:
    they are judged, but are no evidence; `evidence` lists the sampled
    columns that are not.  `passed` needs some evidence, every sampled
    column `within` SLOPE_TOL and SPREAD_MAX, and every (label, passed)
    pair of `extra_checks` passed.  `constant` lists the (seed, depth) of
    each constant sample (`_is_constant`), which the summary names."""

    def __init__(self, name, rows, ratio_columns, extra_checks=(), identities=(), constant=()):
        self.name = name
        self.rows = sorted(
            rows, key=lambda r: (r["seed"], r["depth"], str(r.get("family", "")))
        )
        self.ratio_columns = tuple(ratio_columns)
        self.extra_checks = tuple(extra_checks)
        self.identities = tuple(identities)
        self.constant = sorted(constant)
        self.stats: dict[str, ColumnStats] = {}
        for col in self.ratio_columns:
            pts = [(r["depth"], r[col]) for r in self.rows if r.get(col) is not None]
            if pts:
                self.stats[col] = ColumnStats.of(*np.array(pts, dtype=float).T)
        self.evidence = [col for col in self.stats if col not in self.identities]
        self.passed = (
            bool(self.evidence)
            and all(st.within() for st in self.stats.values())
            and all(ok for _, ok in self.extra_checks)
        )

    def summary_lines(self) -> list[str]:
        lines = [f"report {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for col in self.ratio_columns:
            st = self.stats.get(col)
            if st is None:
                lines.append(f"  {col}: not run (no samples)")
                continue
            slope = "n/a (one depth)" if st.slope is None else f"{st.slope:+.4f}"
            lines.append(
                f"  {col}: n={st.count} min={st.minimum:.6g} max={st.maximum:.6g}"
                f" median={st.median:.6g} slope={slope} spread={st.spread:.3g}"
            )
        for label, ok in self.extra_checks:
            lines.append(f"  {label}: {'PASS' if ok else 'FAIL'}")
        if self.constant:
            named = ", ".join(f"seed {seed} depth {depth}" for seed, depth in self.constant)
            lines.append(f"  constant samples, their energy ratios not judged: {named}")
        if self.stats and not self.evidence:
            lines.append(
                f"  no evidence: every sampled column ({', '.join(self.stats)})"
                " is an identity of the config"
            )
        return lines

    def to_csv(self, path) -> None:
        _write_rows_csv(path, self.rows)

    def plot_data(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("series,depth,value\n")
            for col in self.ratio_columns:
                for r in self.rows:
                    if r.get(col) is not None:
                        fh.write(f"{col},{r['depth']},{_fmt(r[col])}\n")


@dataclass
class CheckReport:
    """Pass/fail report for the exact checks (roundtrip, doubling, regularity)."""

    name: str
    passed: bool
    rows: list[dict] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        lines = [f"report {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        lines.extend(f"  {m}" for m in self.messages)
        return lines

    def to_csv(self, path) -> None:
        _write_rows_csv(path, self.rows)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_rows_csv(path, rows) -> None:
    if not rows:
        with open(path, "w", newline="") as fh:
            fh.write("\n")
        return
    lead = [k for k in ("seed", "depth", "family") if k in rows[0]]
    rest = sorted(k for k in rows[0] if k not in lead)
    cols = lead + rest
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for r in rows:
            fh.write(",".join("" if r.get(c) is None else _fmt(r.get(c)) for c in cols) + "\n")


def generate_for(cfg: ExperimentConfig, family: str, depth: int, seed: int):
    """`generate` with the config's K, epsilon and resolved theta."""
    return generate(
        family,
        K=cfg.K,
        depth=depth,
        seed=seed,
        epsilon=cfg.epsilon,
        theta=cfg.resolved_theta,
    )


def _samples(cfg: ExperimentConfig, family: str):
    """(row head, sample) of `family` at each depth, then each seed, the
    head being {"seed", "depth", "family"}; each sample is drawn as it is
    taken."""
    return (
        ({"seed": seed, "depth": depth, "family": family}, generate_for(cfg, family, depth, seed))
        for depth in cfg.depths
        for seed in cfg.seeds
    )


def _sweep(cfg: ExperimentConfig, check: str, families, kind: str):
    """The samples of a ratio sweep (`_samples`), once the config meets the
    standing hypothesis of `check`: (p, lambda1) admissible (`cfg.phi`) and
    p > (beta - log K)/epsilon > 0, that is 0 < theta < 1.  The family is
    cfg.family, by default the first of `families`; a family not among them
    is a ValueError."""
    cfg.phi()
    if not 0.0 < cfg.resolved_theta < 1.0:
        raise ValueError(
            f"{check} needs p > (beta - log K)/epsilon > 0, that is 0 < theta < 1,"
            f" but {cfg._theta_is()}"
        )
    family = cfg.family or families[0]
    if family not in families:
        raise ValueError(f"{check} needs a {kind} family, got {family!r}")
    return _samples(cfg, family)


def verify_trace_bound(cfg: ExperimentConfig) -> RatioReport:
    """Ratio of the boundary gauge norm of the trace to the tree norm, on
    a sweep of a tree family (`_sweep`)."""
    samples = _sweep(cfg, "trace-bound", TREE_FAMILIES, "tree-function")
    phi = cfg.phi()
    ep = cfg.energy_params()
    rows = []
    for head, F in samples:
        tp = cfg.tree_params(head["depth"])
        numer = orlicz_besov_norm(trace(F), ep)
        denom = newtonian_norm(F, tp, phi)
        rows.append({**head, "besov_norm": numer, "newtonian_norm": denom, "ratio": numer / denom})
    return RatioReport("trace-bound", rows, ("ratio",))


def verify_extension_bound(cfg: ExperimentConfig) -> RatioReport:
    """Ratio of the tree norm of the extension to the boundary gauge norm,
    plus the two-sided gradient-energy comparison for the same samples, on
    a sweep of a boundary family (`_sweep`).  A constant sample's
    `energy_ratio` is 0/0 and left empty (`_is_constant`)."""
    samples = _sweep(cfg, "extension-bound", BOUNDARY_FAMILIES, "boundary")
    phi = cfg.phi()
    ep = cfg.energy_params()
    rows, constant = [], []
    for head, u in samples:
        tp = cfg.tree_params(head["depth"])
        G = extend(u)
        numer = newtonian_norm(G, tp, phi)
        denom = orlicz_besov_norm(u, ep)
        gmod = gradient_lphi_modular(G, tp, phi)
        dmod = dyadic_orlicz_modular(u, ep)
        flat = _is_constant(u)
        rows.append(
            {
                **head,
                "newtonian_norm": numer,
                "besov_norm": denom,
                "gradient_modular": gmod,
                "dyadic_modular": dmod,
                "ratio": numer / denom,
                "energy_ratio": None if flat else gmod / dmod,
            }
        )
        if flat:
            constant.append((head["seed"], head["depth"]))
    # at lambda1 = lambda2 = 0 every row's energy_ratio is
    # (e^beta - 1)/beta * (epsilon/(e^epsilon - 1))^p, whatever the sample
    return RatioReport(
        "extension-bound",
        rows,
        ("ratio", "energy_ratio"),
        identities=("energy_ratio",) if cfg.lambda1 == cfg.lambda2 == 0.0 else (),
        constant=constant,
    )


def tail_constant(
    epsilon: float, theta: float, p: float, lam: float, lambda2: float = 0.0, shift: float = 0.0
) -> float:
    """Value of the convergent series
    sum_n e^(eps*n*p*(theta-1)/2) * n^lam * (n + shift)^lambda2."""
    q = math.exp(epsilon * p * (theta - 1.0) / 2.0)
    if not q < 1.0:
        raise ValueError("theta must be below 1 for the tail series to converge")
    total, n = 0.0, 1
    while True:
        try:
            term = q**n * float(n) ** lam * (n + shift) ** lambda2
        except OverflowError:
            term = math.inf
        total += term
        if not math.isfinite(total):
            raise ValueError(
                f"tail series overflows at n = {n} for lam = {lam!r}, lambda2 = {lambda2!r}"
            )
        if term < 1e-15 * total and n > 1:
            return total
        n += 1
        if n > 1_000_000:
            raise RuntimeError("tail series did not converge")


def _oriented(lambda1: float, energy: float, modular: float) -> tuple[float, float]:
    """(energy, modular) at lambda1 > 0, else (modular, energy): the pair
    (x, y) that the comparison at lambda1 != 0 bounds as y / C <= x <= C y + C'."""
    return (energy, modular) if lambda1 > 0 else (modular, energy)


@dataclass
class TwoSidedFit:
    """Constants (C, C_prime) of a two-sided comparison between the power
    energy and the Orlicz energy at lambda1 != 0, fitted on base-depth
    samples."""

    lambda1: float
    C: float
    C_prime: float

    def check(self, energy: float, modular: float, widen: float = 1.0) -> bool:
        C = self.C * widen
        slack = 1e-9 * (1.0 + abs(energy) + abs(modular))
        x, y = _oriented(self.lambda1, energy, modular)
        return y / C <= x + slack and x <= C * y + self.C_prime + slack


def fit_two_sided(pairs, lambda1: float, c_prime: float) -> TwoSidedFit:
    """Smallest C making the two-sided comparison at lambda1 != 0 hold on
    the given (energy, modular) pairs, with the additive constant supplied
    analytically."""
    C = 1.0
    for energy, modular in pairs:
        if energy > 0 and modular > 0:
            x, y = _oriented(lambda1, energy, modular)
            C = max(C, y / x, (x - c_prime) / y)
    return TwoSidedFit(lambda1=lambda1, C=C, C_prime=c_prime)


def _is_constant(f: BoundaryFunction) -> bool:
    """Whether f takes one value on every leaf.  Every energy of such a
    sample is exactly 0, so a ratio of two of them is 0/0: its cell is left
    empty, and the sample is not judged."""
    return bool(f.values.min() == f.values.max())


def chi_exceed_fraction(f: BoundaryFunction, theta: float, epsilon: float) -> float:
    """Fraction of cells (levels 1..depth) whose average jump exceeds the
    threshold e^(-eps*n*(theta+1)/2) separating the two regimes of the
    logarithmic factor."""
    jumps = np.abs(child_minus_parent(f.K, f.level_averages()))
    exceed = 0
    for n in range(1, f.depth + 1):
        thr = math.exp(-epsilon * n * (theta + 1.0) / 2.0)
        exceed += int(np.sum(jumps[level_slice(f.K, n - 1)] > thr))
    return exceed / jumps.size


def verify_equivalences(cfg: ExperimentConfig) -> RatioReport:
    """Cross-checks between the four boundary energies on one family sweep.

    Columns: double-sum vs multiscale power energy (both with unit level
    weights), fractional-gradient program vs the same, and the gauge norm
    vs the composite (Orlicz norm + energy^(1/p)).  When lambda1 is
    nonzero the two-sided fit between the weighted energy and the Orlicz
    energy is fitted at the shallowest depth and validated, with the
    multiplicative constant doubled, on the deeper ones.  Each row says
    how its double sum was computed: `double_integral_method` is `exact`
    or `mc` (`double_integral_is_exact`), and `double_integral_stderr` is
    the Monte Carlo standard error, empty when exact.  A sampled double sum
    is reported but not judged: its `double_vs_dyadic` is left empty, as
    `hajlasz_vs_dyadic` is past `hajlasz_max_depth`, since Monte Carlo noise
    is no evidence of a depth trend.  Nor is a constant sample judged
    (`_is_constant`): its `double_vs_dyadic` and `hajlasz_vs_dyadic` are
    0/0 and left empty.  Each row also says how its Hajlasz
    energy was reached: `hajlasz_method` (`dual-ascent` at p = 2,
    `interior-point` otherwise), `hajlasz_iterations` summed over the
    scale blocks and `hajlasz_rel_gap`, the largest certified gap of a
    block; all three are empty past `hajlasz_max_depth`, and where the
    instance's leaf pairs pass `hajlasz.PAIR_CAP`.  One pass over the sweep
    (depth by depth, then seed by seed) builds every row; then one
    `hajlasz_minimize_all` call, which builds each instance as it takes
    it, fills in the other rows.  Every value
    is that of solving the instance alone; a ConvergenceError names each
    uncertified block by its seed and depth.  At lambda1 = 0 the Orlicz
    energy is the weighted power energy, so `besov_vs_composite` is 1 by
    identity and no evidence on its own.
    """
    samples = _sweep(cfg, "equivalence", BOUNDARY_FAMILIES, "boundary")
    ep = cfg.energy_params()
    ep_plain = EnergyParams(theta=ep.theta, p=ep.p, epsilon=ep.epsilon)
    rows, solve, constant = [], [], []  # solve: (row, sample) of each Hajlasz program
    for head, f in samples:
        flat = _is_constant(f)
        if flat:
            constant.append((head["seed"], head["depth"]))
        e_plain = dyadic_energy(f, ep_plain)
        if double_integral_is_exact(f.K, f.depth, ep_plain.p):
            b_energy = double_integral_energy(f, ep_plain)
            b_method, b_stderr = "exact", None
        else:
            est = double_integral_energy_mc(f, ep_plain, MC_SAMPLES, head["seed"])
            b_energy, b_method, b_stderr = est.value, "mc", est.stderr
        e_weighted = e_plain if ep == ep_plain else dyadic_energy(f, ep)
        besov = orlicz_besov_norm(f, ep)
        composite = orlicz_norm(f, ep.phi) + e_weighted ** (1.0 / ep.p)
        row = {
            **head,
            "dyadic_energy": e_plain,
            "double_integral": b_energy,
            "double_integral_method": b_method,
            "double_integral_stderr": b_stderr,
            "hajlasz_energy": None,
            "hajlasz_method": None,
            "hajlasz_iterations": None,
            "hajlasz_rel_gap": None,
            "weighted_energy": e_weighted,
            "orlicz_modular": dyadic_orlicz_modular(f, ep),
            "besov_norm": besov,
            "composite_norm": composite,
            "chi_fraction": chi_exceed_fraction(f, ep.theta, cfg.epsilon),
            "double_vs_dyadic": None if flat or b_stderr is not None else b_energy / e_plain,
            "hajlasz_vs_dyadic": None,
            "besov_vs_composite": besov / composite,
        }
        rows.append(row)
        if (
            f.depth <= cfg.hajlasz_max_depth
            and hajlasz.leaf_pairs(f.K, f.depth) <= hajlasz.PAIR_CAP
        ):
            solve.append((row, f))
    try:
        # this calls no hajlasz_minimize, so a wrapper of that function
        # (the benchmark's tracer) neither times nor counts these programs
        solved = hajlasz.hajlasz_minimize_all(
            HajlaszInstance(f, ep.theta, ep.p, cfg.epsilon) for _, f in solve
        )
    except ConvergenceError as err:
        raise err.named({at: f"seed {row['seed']}" for at, (row, _) in enumerate(solve)}) from None
    for (row, f), sol in zip(solve, solved):
        row["hajlasz_energy"] = sol.value
        row["hajlasz_method"] = sol.method
        row["hajlasz_iterations"] = sol.iterations
        row["hajlasz_rel_gap"] = max((b.rel_gap for b in sol.blocks.values()), default=0.0)
        if not _is_constant(f):
            row["hajlasz_vs_dyadic"] = sol.value / row["dyadic_energy"]
    extra_checks = []
    if cfg.lambda1 != 0.0:
        # the levels' weights of the energy the fit bounds: n^lambda1
        # (n + C)^lambda2 at lambda1 > 0, else (n + C)^lambda2
        lam_for_tail = max(cfg.lambda1, 0.0)
        c_prime = tail_constant(cfg.epsilon, ep.theta, ep.p, lam_for_tail, ep.lambda2, ep.shift)
        energies = [(r["weighted_energy"], r["orlicz_modular"]) for r in rows]
        base = [e for e, r in zip(energies, rows) if r["depth"] == min(cfg.depths)]
        fit = fit_two_sided(base, cfg.lambda1, c_prime)
        ok = all(fit.check(e, m, widen=2.0) for e, m in energies)
        extra_checks.append((f"two-sided fit C={fit.C:.4g}", ok))
    return RatioReport(
        "equivalence",
        rows,
        ("double_vs_dyadic", "hajlasz_vs_dyadic", "besov_vs_composite"),
        extra_checks,
        identities=("besov_vs_composite",) if cfg.lambda1 == 0.0 else (),
        constant=constant,
    )


def verify_roundtrip(cfg: ExperimentConfig) -> CheckReport:
    """trace(extend(u)) must reproduce u on every sample, to `_EXACT_TOL`."""
    rows = []
    worst = 0.0
    for family in BOUNDARY_FAMILIES:
        for head, u in _samples(cfg, family):
            err = float(np.max(np.abs(trace(extend(u)).values - u.values)))
            worst = max(worst, err)
            rows.append({**head, "max_error": err})
    return CheckReport(
        "roundtrip",
        worst <= _EXACT_TOL,
        rows,
        [f"max roundtrip error {worst:.3g} (tolerance {_EXACT_TOL:g})"],
    )


def verify_doubling(cfg: ExperimentConfig) -> CheckReport:
    """Sampled doubling ratios of the tree mass must be finite and their
    supremum stable (within factor 1.5) under two extra truncation levels.
    The balls are always drawn with seed 0; `cfg.seeds` is not used."""
    base = min(cfg.depths)
    tp = cfg.tree_params(base)
    tp_deeper = cfg.tree_params(base + 2)
    centers, radii = sample_ball_centers(tp, cfg.n_balls, 0)
    r_base = doubling_ratios(tp, centers, radii)
    r_deep = doubling_ratios(tp_deeper, centers, radii)
    sup_base = float(r_base.max())
    sup_deep = float(r_deep.max())
    finite = bool(np.all(np.isfinite(r_base)) and np.all(np.isfinite(r_deep)))
    stable = sup_deep <= 1.5 * sup_base and sup_base <= 1.5 * sup_deep
    rows = [
        {
            "seed": 0,
            "depth": base,
            "n_balls": cfg.n_balls,
            "sup_ratio": sup_base,
            "sup_ratio_deeper": sup_deep,
        }
    ]
    return CheckReport(
        "doubling",
        finite and stable,
        rows,
        [
            f"sup ratio {sup_base:.4f} at depth {base}, {sup_deep:.4f} at depth {base + 2}"
        ],
    )


def verify_ahlfors(cfg: ExperimentConfig) -> CheckReport:
    """The cell-mass to diameter^Q ratio must be level-independent, to
    `_EXACT_TOL` relative."""
    depth = max(cfg.depths)
    tp = cfg.tree_params(depth)
    ratios = [ahlfors_ratio(tp, n) for n in range(depth + 1)]
    spread = max(ratios) / min(ratios) - 1.0
    rows = [{"seed": 0, "depth": n, "ratio": r} for n, r in enumerate(ratios)]
    return CheckReport(
        "ahlfors",
        spread <= _EXACT_TOL,
        rows,
        [f"ratio spread over levels 0..{depth}: {spread:.3g} (tolerance {_EXACT_TOL:g})"],
    )


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        a, b = text.split("..")
        return tuple(range(int(a), int(b) + 1))
    return tuple(int(s) for s in text.split(",") if s.strip())


# config-file key -> parser of its value text: one key per ExperimentConfig
# field, parsed by the field's annotation
_TYPE_PARSERS = {
    "int": int,
    "float": float,
    "str | None": str,
    "tuple[int, ...]": _parse_int_list,
}
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(ExperimentConfig)}


def load_config(path: str | None = None, **overrides) -> ExperimentConfig:
    """Build a config from a flat key-value file plus keyword overrides.

    File lines look like ``key = value``, the key an `ExperimentConfig`
    field; '#' starts a comment.  Seed and depth lists accept either comma
    lists (``4,5,6``) or ranges (``0..19``).  An unknown key, a key set
    twice or a value that does not parse is a ValueError naming the file
    line.  The overrides are field values, None meaning unset.
    """
    values: dict = {}
    seen: dict[str, int] = {}  # key -> the line that set it
    if path is not None:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                where = f"{path}, line {lineno}"
                if "=" not in line:
                    raise ValueError(f"{where}: bad config line: {raw.rstrip()}")
                key, _, text = line.partition("=")
                key = key.strip()
                text = text.strip()
                if key not in _PARSERS:
                    raise ValueError(f"{where}: unknown config key {key!r}")
                if key in seen:
                    raise ValueError(f"{where}: {key} set twice, first on line {seen[key]}")
                seen[key] = lineno
                try:
                    values[key] = _PARSERS[key](text)
                except ValueError as exc:
                    raise ValueError(f"{where}: bad value for {key}: {exc}") from None
    values.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**values)
