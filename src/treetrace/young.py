"""Young functions t^p * log(e+t)^lambda1 and the Luxemburg gauge.

Every norm in this package is either a plain power-mean or the gauge of a
modular: a map k -> rho(k) that is non-increasing on (0, inf) and tends
to 0 as k grows.  The gauge is inf{k > 0 : rho(k) <= 1}.  `YoungModular`
builds the modulars sum w * Phi(a / k) once per function, with the
amplitudes rescaled to a largest value of 1.  The solver treats rho as a
black box (no derivatives): it finds the root of log rho(e^x) by secant
extrapolation outward from k = 1 and then Illinois regula falsi on the
bracket, which is exact after two samples for a pure power.  It tracks
all evaluations and raises if they ever contradict monotonicity.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "YoungPhi",
    "PhiDiagnostics",
    "phi_eval",
    "phi_diagnostics",
    "YoungModular",
    "luxemburg_gauge",
    "GaugeBracketError",
    "NonMonotoneModularError",
]

_LOG2 = math.log(2.0)
# bracketing steps in log k: at most a factor 2^16, and k within e^(+-700)
_MAX_STEP = 16.0 * _LOG2
_MAX_LOG = 700.0


class GaugeBracketError(RuntimeError):
    """The modular stayed above 1 through the whole expansion range."""


class NonMonotoneModularError(RuntimeError):
    """Sampled modular values increased with k."""


@dataclass(frozen=True)
class YoungPhi:
    """The Young function t^p * log(e+t)^lambda1.

    Admissible ranges: p > 1 with any real lambda1, or p = 1 with
    lambda1 >= 0.  Outside them the function fails to be convex near 0.
    """

    p: float
    lambda1: float = 0.0

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.p == 1 and self.lambda1 < 0:
            raise ValueError("p = 1 requires lambda1 >= 0")

    def __call__(self, t):
        return phi_eval(self, t)


def phi_eval(phi: YoungPhi, t):
    """Evaluate t^p * log(e+t)^lambda1 for scalar or array t >= 0."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("Young functions take nonnegative arguments")
    out = arr**phi.p * np.log(math.e + arr) ** phi.lambda1
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


class YoungModular:
    """The modular k -> sum over blocks (a, w) of sum_ij w_j Phi(a_ij / k).

    Each block is an array of nonnegative amplitudes a, read as rows of
    len(w) entries, with the weights w (a scalar or a vector) applied
    along each row.  Everything that does not depend on k is built once.
    The amplitudes are stored divided by their largest value `scale`
    (in place: the arrays passed in are taken over).  Calling the object
    evaluates the modular of a / scale, whose gauge is of order 1 however
    large or small a is; by homogeneity the gauge of a is `scale` times
    that gauge, and `value(k)` is the modular of a itself.
    """

    def __init__(self, phi: YoungPhi, blocks) -> None:
        self.phi = phi
        self.blocks = []
        for a, w in blocks:
            w = np.atleast_1d(np.asarray(w, dtype=float))
            self.blocks.append((np.asarray(a, dtype=float).reshape(-1, w.size), w))
        self.scale = max((float(a.max()) for a, _ in self.blocks if a.size), default=0.0)
        if self.scale > 0.0:
            for a, _ in self.blocks:
                a /= self.scale
        size = max((a.size for a, _ in self.blocks), default=0)
        self._t = np.empty(size)
        self._s = np.empty(size if phi.lambda1 != 0.0 else 0)

    def __call__(self, k: float) -> float:
        p, lam = self.phi.p, self.phi.lambda1
        total = 0.0
        for a, w in self.blocks:
            # Phi(a / k) = (a/k)^p * log(e + a/k)^lambda1, in the buffers
            t = np.divide(a, k, out=self._t[: a.size].reshape(a.shape))
            if lam != 0.0:
                s = np.add(t, math.e, out=self._s[: a.size].reshape(a.shape))
                np.log(s, out=s)
                if lam != 1.0:
                    s **= lam
            t **= p
            if lam != 0.0:
                t *= s
            total += float(np.sum(t @ w))
        return total

    def value(self, k: float) -> float:
        """The modular of the amplitudes as given, at k."""
        if k <= 0:
            raise ValueError("k must be positive")
        return self(k / self.scale) if self.scale > 0.0 else 0.0


@dataclass(frozen=True)
class PhiDiagnostics:
    """Sampled convexity, doubling constant and power sandwich of a Young function."""

    convexity_ok: bool
    delta2_sup: float
    sandwich_delta: float
    sandwich_scale: float
    sandwich_start: float
    sandwich_ok: bool


def phi_diagnostics(
    phi: YoungPhi, t_grid: np.ndarray | None = None, delta: float = 0.5
) -> PhiDiagnostics:
    """Probe a Young function on a grid.

    Checks midpoint convexity on consecutive grid triples, samples the
    doubling constant sup Phi(2t)/Phi(t), and searches for a scale k and a
    threshold T with t^max(p-delta,1) <= Phi(k t) and Phi(t) <= (k t)^(p+delta)
    for all sampled t >= T.
    """
    if t_grid is None:
        t_grid = np.logspace(-8.0, 8.0, 241)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be positive and increasing")

    vals = phi_eval(phi, t_grid)
    mids = phi_eval(phi, 0.5 * (t_grid[:-2] + t_grid[2:]))
    convexity_ok = bool(np.all(mids <= 0.5 * (vals[:-2] + vals[2:]) * (1 + 1e-12)))

    delta2_sup = float(np.max(phi_eval(phi, 2.0 * t_grid) / vals))

    q_lo = max(phi.p - delta, 1.0)
    q_hi = phi.p + delta
    sandwich_scale = math.nan
    sandwich_start = math.nan
    sandwich_ok = False
    for k in (1.0, 2.0, 4.0, 8.0, 16.0):
        lower = t_grid**q_lo <= phi_eval(phi, k * t_grid) * (1 + 1e-12)
        upper = vals <= (k * t_grid) ** q_hi * (1 + 1e-12)
        good = lower & upper
        # want both inequalities on the whole sampled tail above some T
        tail_ok = np.flatnonzero(~good)
        start_idx = 0 if tail_ok.size == 0 else int(tail_ok[-1]) + 1
        if start_idx < len(t_grid) - 8:
            sandwich_scale = k
            sandwich_start = float(t_grid[start_idx])
            sandwich_ok = True
            break
    return PhiDiagnostics(
        convexity_ok=convexity_ok,
        delta2_sup=delta2_sup,
        sandwich_delta=delta,
        sandwich_scale=sandwich_scale,
        sandwich_start=sandwich_start,
        sandwich_ok=sandwich_ok,
    )


class _EvalLog:
    """Sampled (k, rho(k)) pairs, kept sorted in k, with monotonicity checks."""

    def __init__(self, rho):
        self._rho = rho
        self._ks: list[float] = []
        self._vs: list[float] = []

    def __call__(self, k: float) -> float:
        v = float(self._rho(k))
        if math.isnan(v):
            raise ValueError("modular returned NaN")
        i = bisect.bisect_left(self._ks, k)
        slack = 1e-9
        if i > 0 and v > self._vs[i - 1] + slack * (1.0 + abs(self._vs[i - 1])):
            raise NonMonotoneModularError(
                f"rho({k}) = {v} exceeds rho({self._ks[i-1]}) = {self._vs[i-1]}"
            )
        if i < len(self._ks) and self._vs[i] > v + slack * (1.0 + abs(v)):
            raise NonMonotoneModularError(
                f"rho({self._ks[i]}) = {self._vs[i]} exceeds rho({k}) = {v}"
            )
        self._ks.insert(i, k)
        self._vs.insert(i, v)
        return v


def _log(v: float) -> float:
    """log v, with log 0 = -inf."""
    return math.log(v) if v > 0.0 else -math.inf


def luxemburg_gauge(rho, tol: float = 1e-10, max_doublings: int = 200) -> float:
    """inf{k > 0 : rho(k) <= 1} for a non-increasing modular rho.

    Finds the root of g(x) = log rho(e^x), derivative-free.  From k = 1 it
    steps outward, by the secant extrapolation through the last two
    samples when they give one and by a factor 2 otherwise, until the
    crossing is bracketed (at most `max_doublings` steps).  It then runs
    Illinois regula falsi on the bracket, keeping every iterate at least
    0.4 * tol (in log k) inside it so that both ends close, and bisects
    in log k while an end value is 0 or inf.  For a pure power modular g
    is linear, so the secant is exact after two samples.

    Returns 0 when rho never exceeds 1 (in particular for rho identically
    zero) and +inf when rho is infinite beyond the expansion range.  The
    returned k satisfies rho(k) <= 1, and the final bracket [lo, k] has
    k - lo <= tol * k.
    """
    ev = _EvalLog(rho)
    inner = 0.4 * tol
    # bracketing: (xa, ga) and (xb, gb) are the last two samples, x = log k
    xa, ga = math.nan, math.nan
    xb, vb = 0.0, ev(1.0)
    gb = _log(vb)
    up = vb > 1.0
    for _ in range(max_doublings):
        step = _LOG2
        if math.isfinite(ga) and math.isfinite(gb) and ga != gb:
            slope = (gb - ga) / (xb - xa)
            if slope < 0.0:
                step = min(max(abs(gb / slope), inner), _MAX_STEP)
        xa, ga = xb, gb
        xb = min(max(xa + step if up else xa - step, -_MAX_LOG), _MAX_LOG)
        vb = ev(math.exp(xb))
        gb = _log(vb)
        if (vb > 1.0) != up:
            break
    else:
        if not up:
            return 0.0
        if math.isinf(vb):
            return math.inf
        raise GaugeBracketError(
            f"modular still {vb} > 1 after {max_doublings} doublings"
        )
    # Illinois regula falsi on g(lo) > 0 >= g(hi); gl and gh weight the
    # secant, and the weight of an end kept twice in a row is halved
    (xl, gl), (xh, gh) = ((xa, ga), (xb, gb)) if up else ((xb, gb), (xa, ga))
    moved = ""
    for _ in range(200):
        if math.exp(xh) - math.exp(xl) <= tol * math.exp(xh):
            break
        if math.isfinite(gl) and math.isfinite(gh):
            x = xl + (xh - xl) * gl / (gl - gh)
        else:
            x = 0.5 * (xl + xh)
        x = min(max(x, xl + inner), xh - inner)
        v = ev(math.exp(x))
        if v > 1.0:
            xl, gl = x, _log(v)
            if moved == "lo":
                gh *= 0.5
            moved = "lo"
        else:
            xh, gh = x, _log(v)
            if moved == "hi":
                gl *= 0.5
            moved = "hi"
    return math.exp(xh)
