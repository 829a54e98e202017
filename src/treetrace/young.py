"""Young functions t^p * log(e+t)^lambda1 and the Luxemburg gauge.

Every norm in this package is either a plain power-mean or the gauge of a
modular: a map k -> rho(k) that is non-increasing on (0, inf) and tends
to 0 as k grows.  The gauge is inf{k > 0 : rho(k) <= 1}.  `YoungModular`
builds the modulars sum w * Phi(a / k) once per function, over one flat
array of amplitudes rescaled to a largest value of 1.  Since
Phi(a/k) = k^-p * a^p * log(e + a/k)^lambda1, it precomputes w * a^p:
at lambda1 = 0 an evaluation is then O(1), and otherwise one log pass
over the amplitudes, run in fixed chunks through one scratch buffer.
At lambda1 != 0 the build also solves the mean-field equation, rho = 1
with every amplitude replaced by their mean weighted by w * a^p, for a
start k0.  The solver treats rho as a black box (no derivatives): it
finds the root of log rho(e^x) by stepping outward from k0 (from k = 1
at lambda1 = 0), first along the slope -p of the degree and then by
secant extrapolation, and then by Illinois regula falsi on the bracket,
which is exact after two samples for a pure power.  The start saves
evaluations (4 instead of 7 for a large tree modular at lambda1 = 1) and
never moves the answer.  The solver tracks all evaluations and raises
if they ever contradict monotonicity.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "YoungPhi",
    "YoungModular",
    "luxemburg_gauge",
    "GaugeBracketError",
    "NonMonotoneModularError",
]

_LOG2 = math.log(2.0)
# bracketing steps in log k: at most a factor 2^16, and k within the
# positive doubles, from the smallest subnormal to the largest
_MAX_STEP = 16.0 * _LOG2
_LOG_RANGE = (math.log(math.ulp(0.0)), math.log(sys.float_info.max))
# the gauge's final bracket [lo, k] has k - lo <= _TOL * k, and its search
# for a bracket takes at most _MAX_DOUBLINGS steps
_TOL = 1e-10
_MAX_DOUBLINGS = 200
# elements per pass of a modular evaluation: the size of its scratch buffer
_CHUNK = 1 << 14


class GaugeBracketError(RuntimeError):
    """The modular stayed above 1 through the whole expansion range."""


class NonMonotoneModularError(RuntimeError):
    """Sampled modular values increased with k."""


@dataclass(frozen=True)
class YoungPhi:
    """The Young function t^p * log(e+t)^lambda1.

    Admissible: p >= 1 and lambda1 >= `_lowest_lambda1(p)` (about
    -3.1462 p), and lambda1 >= 0 at p = 1.  Then Phi(0) = 0 and Phi
    increases strictly on (0, inf), and it is convex near 0 (where it
    behaves as t^p) and for large t.  At lambda1 >= 0 it is convex
    everywhere; at lambda1 < 0 it need not be in between (p = 2,
    lambda1 = -3 is not).  Below the bound Phi decreases near t = 5.83,
    and at p = 1 with lambda1 < 0 it is concave near 0.  Both exponents must be finite, and so must
    Phi(1) = log(e + 1)^lambda1, which must also be positive (about
    |lambda1| <= 2.6e3).
    """

    p: float
    lambda1: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p", "lambda1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.p == 1 and self.lambda1 < 0:
            raise ValueError("p = 1 requires lambda1 >= 0")
        if self.lambda1 < 0 and self.lambda1 < _lowest_lambda1(self.p):
            raise ValueError(
                f"lambda1 = {self.lambda1!r} makes Phi decrease near t = 5.83: "
                f"p = {self.p!r} needs lambda1 >= {_lowest_lambda1(self.p)!r}"
            )
        try:
            at_one = math.log(math.e + 1.0) ** self.lambda1
        except OverflowError:
            at_one = math.inf
        if not 0.0 < at_one < math.inf:
            raise ValueError(
                f"lambda1 = {self.lambda1!r} puts Phi(1) = log(e + 1)^lambda1 "
                "out of the float range"
            )

    def __call__(self, t):
        """t^p * log(e+t)^lambda1 for scalar or array t >= 0."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0):
            raise ValueError("Young functions take nonnegative arguments")
        out = arr**self.p * np.log(math.e + arr) ** self.lambda1
        if np.isscalar(t) or arr.ndim == 0:
            return float(out)
        return out


def _lowest_lambda1(p: float) -> float:
    """The least lambda1 at which t^p log(e + t)^lambda1 increases on (0, inf).

    Its derivative in log t is p + lambda1 t / ((e + t) log(e + t)).  The
    fraction peaks where t = e log(e + t), at t = 5.83, with the value
    e / (e + t) = 1 / (1 + log(e + t)) = 0.31784, so the bound is
    -p (1 + log(e + t)) = -3.1462 p."""
    t = math.e
    for _ in range(40):  # a contraction by e / (e + t) < 0.32 per step
        t = math.e * math.log(math.e + t)
    return -p * (1.0 + t / math.e)


class YoungModular:
    """The modular k -> sum_i w_i Phi(a_i / k) over one flat amplitude array.

    `a` is a flat array of nonnegative amplitudes in consecutive segments:
    `segments` lists (size, w) in order, and a segment of `size` entries
    is read as rows of len(w) entries with the weights w (a scalar or a
    vector) applied along each row.  The array is taken over and divided
    in place by its largest value `scale`.  Calling the object evaluates
    the modular of a / scale, whose gauge is of order 1 however large or
    small a is; by homogeneity the gauge of a is `scale` times that gauge,
    and `value(k)` is the modular of a itself.

    Since Phi(a/k) = k^-p * a^p * log(e + a/k)^lambda1, the build stores
    A = w * a^p / 2^e, with 2^e the power of two at the largest weight (so
    that tiny weights do not fall into subnormals), and its sum.  An
    evaluation is 2^e * k^-p times sum A, in O(1), at lambda1 = 0; at
    lambda1 = 1 it is sum A * log(a + e*k) - log k * sum A, one add, one
    log and one dot per chunk of `_CHUNK` elements in one reused buffer;
    other lambda1 add a subtract and a power per chunk.

    At lambda1 != 0 the build takes one more dot per chunk, for the
    A-weighted mean m = sum A a / sum A, and solves the mean-field
    equation p x = log(2^e sum A) + lambda1 log log(e + m e^-x), which is
    rho(e^x) = 1 with every amplitude replaced by m, for the `start`
    (x, p) that `luxemburg_gauge` takes.  `start` is None at lambda1 = 0,
    where evaluations are O(1), and where that solve fails.
    """

    def __init__(self, phi: YoungPhi, a: np.ndarray, segments) -> None:
        self.phi = phi
        p, lam = phi.p, phi.lambda1
        weights = [np.atleast_1d(np.asarray(w, dtype=float)) for _, w in segments]
        if sum(size for size, _ in segments) != a.size:
            raise ValueError("segment sizes must add up to the amplitude count")
        self.scale = float(a.max()) if a.size else 0.0
        if self.scale > 0.0:
            a /= self.scale
        self._exp = math.frexp(max((float(w.max()) for w in weights), default=0.0))[1]
        # A = w a^p / 2^e, in place of a where the log term does not need a
        if lam == 0.0:
            a **= p
            weighted = a
        else:
            weighted = a**p
        start = 0
        for (size, _), w in zip(segments, weights):
            seg = weighted[start : start + size].reshape(-1, w.size)
            seg *= np.ldexp(w, -self._exp)
            start += size
        self._total = float(np.sum(weighted))
        self._chunks = []
        self.start = None
        if lam != 0.0 and self._total > 0.0:
            buf = np.empty(min(a.size, _CHUNK))
            self._chunks = [
                (a[i : i + _CHUNK], weighted[i : i + _CHUNK], buf[: min(_CHUNK, a.size - i)])
                for i in range(0, a.size, _CHUNK)
            ]
            mean = sum(float(wa @ aa) for aa, wa, _ in self._chunks) / self._total
            x0 = _mean_field_root(p, lam, self._exp * _LOG2 + math.log(self._total), mean)
            if x0 is not None:
                self.start = (x0, p)

    def __call__(self, k: float) -> float:
        if self._total == 0.0:
            return 0.0
        factor = _times_power(self._exp, k, self.phi.p)
        lam = self.phi.lambda1
        if lam == 0.0 or factor == 0.0:
            return factor * self._total
        # log(e + a/k) = log(a + e*k) - log k
        ek, log_k = math.e * k, math.log(k)
        total = 0.0
        for a, weighted, buf in self._chunks:
            np.add(a, ek, out=buf)
            np.log(buf, out=buf)
            if lam != 1.0:
                buf -= log_k
                buf **= lam
            total += float(weighted @ buf)
        if lam == 1.0:
            total -= log_k * self._total
        return factor * total

    def value(self, k: float) -> float:
        """The modular of the amplitudes as given, at k; a value beyond the
        float range is a ValueError naming p (a call may return inf)."""
        if not k > 0:
            raise ValueError(f"k must be positive, got {k!r}")
        value = self(k / self.scale) if self.scale > 0.0 else 0.0
        if not math.isfinite(value):
            raise ValueError(f"the modular at k = {k!r} overflows at p = {self.phi.p:g}")
        return value


def _mean_field_root(p: float, lam: float, c: float, m: float) -> float | None:
    """The root x of p x = c + lam * log log(e + m e^-x), by Newton's method.

    With c = log(2^e sum A) and m the A-weighted mean amplitude, this is
    log rho(e^x) = 0 with every amplitude replaced by m.  None where the
    iteration leaves the float range, meets a nonpositive slope or does
    not settle.
    """
    x = c / p
    try:
        for _ in range(32):
            t = m * math.exp(-x)
            log_et = math.log(math.e + t)
            slope = p + lam * t / ((math.e + t) * log_et)
            if not slope > 0.0:
                return None
            dx = (p * x - c - lam * math.log(log_et)) / slope
            x -= dx
            if abs(dx) <= 1e-12 * (1.0 + abs(x)):
                return x
    except OverflowError:
        pass
    return None


def _times_power(e: int, k: float, p: float) -> float:
    """2^e * k^-p for k > 0: +inf where it overflows, and through
    logarithms where k^-p alone leaves the normal range."""
    try:
        t = k**-p
        if t >= sys.float_info.min:
            return math.ldexp(t, e)
    except OverflowError:
        pass
    try:
        return math.exp(e * _LOG2 - p * math.log(k))
    except OverflowError:
        return math.inf


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


def luxemburg_gauge(rho, start: tuple[float, float] | None = None) -> float:
    """inf{k > 0 : rho(k) <= 1} for a non-increasing modular rho.

    Finds the root of g(x) = log rho(e^x), derivative-free.  From
    x = log k = 0, or from x0 when `start` = (x0, p) is given, it steps
    outward until the crossing is bracketed (at most `_MAX_DOUBLINGS` = 200
    steps): by the secant extrapolation through the last two samples when
    they give one; else, with a start, along the slope -p of a modular of
    degree p to 0.4 * `_TOL` past the root of that line, which brackets the
    root wherever g falls at least as fast as -p (a `YoungModular` with
    lambda1 >= 0 does), and by the largest step while rho is 0 or inf;
    else by a factor 2.  It then runs Illinois regula falsi on the
    bracket, keeping every iterate at least 0.4 * `_TOL` (in log k) inside
    it so that both ends close, and bisects in log k while an end value
    is 0 or inf.  For a pure power modular g is linear, so the secant is
    exact after two samples.  A start changes which samples are taken,
    not the answer.

    Log k stays within the positive doubles, so 0 means rho(k) <= 1 down
    to the smallest subnormal, and +inf that rho(k) > 1 up to the largest
    double (or that rho is infinite after `_MAX_DOUBLINGS` steps), and 0
    also that rho is 0 after `_MAX_DOUBLINGS` steps down, as for rho
    identically zero.  Running out of steps with rho finite and above 1,
    or positive and at most 1, raises GaugeBracketError.  The returned k
    satisfies rho(k) <= 1, and the final bracket [lo, k] has
    k - lo <= `_TOL` * k, with `_TOL` = 1e-10.
    """
    x0, degree = (0.0, None) if start is None else start
    if start is not None and not (math.isfinite(x0) and 0.0 < degree < math.inf):
        raise ValueError(f"start must be a finite log k and a positive degree, got {start!r}")
    ev = _EvalLog(rho)
    inner = 0.4 * _TOL
    # bracketing: (xa, ga) and (xb, gb) are the last two samples, x = log k
    xa, ga = math.nan, math.nan
    lowest, highest = _LOG_RANGE
    xb = min(max(x0, lowest), highest)
    vb = ev(math.exp(xb))
    gb = _log(vb)
    up = vb > 1.0
    for _ in range(_MAX_DOUBLINGS):
        if xb == (highest if up else lowest):
            # rho stays on one side of 1 to the end of the float range
            return math.inf if up else 0.0
        step = _LOG2
        if math.isfinite(ga) and math.isfinite(gb) and ga != gb:
            slope = (gb - ga) / (xb - xa)
            if slope < 0.0:
                step = min(max(abs(gb / slope), inner), _MAX_STEP)
        elif degree is not None:
            step = min(abs(gb) / degree + inner, _MAX_STEP)
        xa, ga = xb, gb
        xb = min(max(xa + step if up else xa - step, lowest), highest)
        vb = ev(math.exp(xb))
        gb = _log(vb)
        if (vb > 1.0) != up:
            break
    else:
        # rho is still on the side of 1 it started on
        if vb == 0.0:
            return 0.0
        if math.isinf(vb):
            return math.inf
        side = ">" if up else "<="
        raise GaugeBracketError(
            f"modular still {vb} {side} 1 after {_MAX_DOUBLINGS} doublings"
        )
    # Illinois regula falsi on g(lo) > 0 >= g(hi); gl and gh weight the
    # secant, and the weight of an end kept twice in a row is halved
    (xl, gl), (xh, gh) = ((xa, ga), (xb, gb)) if up else ((xb, gb), (xa, ga))
    moved = ""
    for _ in range(200):
        if math.exp(xh) - math.exp(xl) <= _TOL * math.exp(xh):
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
