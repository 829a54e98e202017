"""Young functions t^p * log(e+t)^lambda1 and the Luxemburg gauge.

Every norm in this package is either a plain power-mean or the gauge of a
modular: a map k -> rho(k) that is non-increasing on (0, inf) and tends
to 0 as k grows.  The gauge is inf{k > 0 : rho(k) <= 1}.  `YoungModular`
builds the modulars sum w * Phi(a / k) once per function, over one flat
array of amplitudes rescaled to a largest value of 1.  Since
Phi(a/k) = k^-p * a^p * log(e + a/k)^lambda1, an evaluation reads
w * a^p.  At lambda1 = 0 the build puts w * a^p in place of the
amplitudes and sums it, and an evaluation is O(1); it weights each chunk
by one multiply per run of segments with one row length, so it costs a
fixed handful of numpy calls per chunk, whatever its number of
segments (scalar weights stay floats).  Otherwise it keeps
only the amplitudes, and a full pass is one loop over fixed chunks that
forms w * a^p and the log terms in two scratch buffers (and, at lambda1
other than 1, two chunk-sized temporaries): one float per amplitude (one
newtonian_norm at K = 2, N = 20, lambda1 = 1 peaks at 183 MB, where
keeping w * a^p as well took 309 MB).  Each full pass at x = log k also
records the sum's first two derivatives in x, and a later call within a
radius r(lambda1) of a recorded x (8.7e-6 at lambda1 = 1) is answered by
the second-order expansion there, whose remainder is at most 2^-53 of
the value.
At lambda1 != 0 the build also solves the mean-field equation, rho = 1
with every amplitude replaced by their mean weighted by w * a^p, for a
start k0.  The solver treats rho as a black box (no derivatives): it
finds the root of log rho(e^x) by stepping outward from k0 (from k = 1
at lambda1 = 0), first along the slope -p of the degree and then by
secant extrapolation, and then by Illinois regula falsi on the bracket,
which is exact after two samples for a pure power.  The start saves
evaluations (4 instead of 7 for a large tree modular at lambda1 = 1) and
never moves the answer.  Its later samples lie close to the first: at
K = 2, N = 16 the gauge of a tree function makes one full pass.  The
solver tracks all evaluations and raises if they ever contradict
monotonicity.
"""

from __future__ import annotations

import bisect
import itertools
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
    everywhere.  At lambda1 < 0 it is convex down to a floor of its own,
    -0.564 at p = 1.2, -1.422 at p = 1.5, -2.875 at p = 2 and -5.830 at
    p = 3, and not between that floor and the monotonicity bound (p = 2,
    lambda1 = -3 is not): there the Luxemburg gauge is a quasi-norm, and
    the config accepts it.  Below the bound Phi decreases near t = 5.83,
    and at p = 1 with lambda1 < 0 it is concave near 0.  Both exponents
    must be finite, and so must Phi(1) = log(e + 1)^lambda1, which must
    also be positive (about |lambda1| <= 2.6e3).
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
    is read as rows of len(w) entries with the weights w (a float, or a
    numpy array whose length divides `size`) applied along each row.  The
    array is taken over and divided in place by its largest value
    `scale`.  Calling the object evaluates the modular of a / scale, whose
    gauge is of order 1 however large or small a is; by homogeneity the
    gauge of a is `scale` times that gauge, and `value(k)` is the modular
    of a itself.

    Since Phi(a/k) = k^-p * a^p * log(e + a/k)^lambda1, an evaluation
    reads A = w * a^p / 2^e, with 2^e the power of two at the largest
    weight (so that tiny weights do not fall into subnormals).  A scalar
    weight stays a float, and the weight rows sit in one table, so e
    comes from one max over the floats and the table.  A is formed
    `_CHUNK` elements at a time (`_form`): a power, then the multiplies
    of `_chunk_weights`.  At lambda1 = 0 the build forms A in place of a
    and keeps sum A (one sum over the whole array), and an evaluation is
    2^e * k^-p times sum A, in O(1).  Its weights serve once, so each
    chunk takes one multiply per run of consecutive segments with one
    row length: by the float of a single scalar segment, else by an array
    that one repeat makes from the run's floats or rows.  The build is
    thus a fixed handful of numpy calls per chunk, whatever its number of
    segments.  Otherwise the modular keeps a alone, with one multiply per
    segment piece of a chunk, by a float or by a view of the segment's
    row repeated to chunk length, and a full pass is one loop over the
    chunks, forming A in a reused buffer (`_pass`).  Either way each A is
    the same product w a^p / 2^e, bit for bit.  At
    lambda1 = 1 it takes, besides forming A, two adds, a divide, a square,
    a log and three dot products per chunk in a second buffer; other
    lambda1 add a log, a subtract, a power, a multiply, a divide, a sum
    and a dot product per chunk, in two chunk-sized temporaries (256 KiB).
    It holds one float per amplitude, plus at most a chunk per segment.

    A full pass at x = log k records the point (x, F, F', F'') of
    F = sum A l^lambda1, l = log(e + a/k), the value before 2^e k^-p; the
    derivatives are among the sums of the same loop.  A call at x' takes
    the recorded point nearest to it, h = x' - x, and when
    |h| <= r(lambda1) returns 2^e k'^-p (F + h F' + h^2 F''/2) with no
    pass over the amplitudes; else it makes a full pass, which records its
    own point.  Within the radius r (`_expansion_radius`) the Taylor
    remainder is at most 2^-53 of the value, so an expanded value agrees
    with a full pass to rounding (about 1e-15 relative).

    At lambda1 != 0 the build forms A once, for sum A (summed chunk by
    chunk) and the A-weighted mean m = sum A a / sum A, and solves the
    mean-field equation p x = log(2^e sum A) + lambda1 log log(e + m e^-x),
    which is rho(e^x) = 1 with every amplitude replaced by m, for the `start`
    (x, p) that `luxemburg_gauge` takes.  `start` is None at lambda1 = 0,
    where evaluations are O(1), and where that solve fails.
    """

    def __init__(self, phi: YoungPhi, a: np.ndarray, segments) -> None:
        self.phi = phi
        p, lam = phi.p, phi.lambda1
        # a scalar weight stays a float; the rows go to one table, and a
        # segment with a row keeps its slice there
        sizes, weights, rows, width = [], [], [], 0
        for size, w in segments:
            if not isinstance(w, np.ndarray):
                w = float(w)
            elif w.size > 1:
                if size % w.size:
                    raise ValueError(
                        "a segment's size must be a multiple of its weight row length"
                    )
                rows.append(w)
                w = slice(width, width + w.size)
                width = w.stop
            else:
                w = float(w.item())
            sizes.append(size)
            weights.append(w)
        if sum(sizes) != a.size:
            raise ValueError("segment sizes must add up to the amplitude count")
        self.scale = float(a.max()) if a.size else 0.0
        if self.scale > 0.0:
            a /= self.scale
        # 2^e at the largest weight: one pass over the floats and the table
        maxima = [w for w in weights if isinstance(w, float)]
        if rows:
            table = np.concatenate(rows, axis=None, dtype=float)
            maxima.append(float(table.max()))
        self._exp = e = math.frexp(max(maxima, default=0.0))[1]
        weights = [math.ldexp(w, -e) if isinstance(w, float) else w for w in weights]
        table = np.ldexp(table, -e) if rows else None
        self.start = None
        chunks = [a[i : i + _CHUNK] for i in range(0, a.size, _CHUNK)]
        if lam == 0.0:
            # A = w a^p / 2^e in place of a, summed once
            for chunk, ops in zip(chunks, _chunk_weights(sizes, weights, table, merge=True)):
                _form(chunk, chunk, p, ops)
            self._total = float(a.sum())
            return
        # the log term needs a: A is formed per chunk, in a scratch buffer
        weighted, buf = np.empty(min(a.size, _CHUNK)), np.empty(min(a.size, _CHUNK))
        self._chunks = [
            (chunk, pieces, weighted[: chunk.size], buf[: chunk.size])
            for chunk, pieces in zip(chunks, _chunk_weights(sizes, weights, table, merge=False))
        ]
        # (x, F, F', F'') at x = log k of each full pass, and how far from
        # one in x the expansion there answers a call
        self._points: list[tuple[float, float, float, float]] = []
        self._radius = _expansion_radius(lam)
        self._passes = 0
        self._total, dot = 0.0, 0.0
        for chunk, pieces, A, _ in self._chunks:
            _form(A, chunk, p, pieces)
            self._total += float(np.sum(A))
            dot += float(A @ chunk)
        if self._total > 0.0:
            c = self._exp * _LOG2 + math.log(self._total)
            x0 = _mean_field_root(p, lam, c, dot / self._total)
            if x0 is not None:
                self.start = (x0, p)

    def __call__(self, k: float) -> float:
        if self._total == 0.0:
            return 0.0
        p, lam = self.phi.p, self.phi.lambda1
        factor = _times_power(self._exp, k, p)
        if lam == 0.0 or factor == 0.0:
            return factor * self._total
        x = math.log(k)
        if self._points:
            x0, F, dF, d2F = min(self._points, key=lambda point: abs(x - point[0]))
            h = x - x0
            if abs(h) <= self._radius:
                return factor * (F + h * dF + 0.5 * h * h * d2F)
        return factor * self._pass(k, x)

    def _pass(self, k: float, log_k: float) -> float:
        """F at x = log k, recording (x, F, F', F'') where all are finite.

        With l = log(a + e*k) - log k and s = a / (a + e*k) = -dl/dx, one
        loop over the chunks weights each chunk's A by l^(lambda1-1) into
        A~ (not at lambda1 = 1, where that factor is 1 and sum A~ is the
        build's sum A) and takes
            F = sum A l^lambda1 = sum A~ log(a + e*k) - log k sum A~,
            S1 = sum A~ s,  S3 = sum A~ s^2  and  S2 = sum (A~ / l) s^2,
        S2 not at lambda1 = 1, where its coefficient is 0.  Then
        F' = -lambda1 S1 and F'' = lambda1 (lambda1 - 1) S2 + lambda1
        (S1 - S3).  At lambda1 != 1, l and l^(lambda1-1) take a chunk-sized
        temporary each.  Where e*k overflows (k > 6.6e307) every l rounds
        to 1 and every s to 0, and F = sum A."""
        lam = self.phi.lambda1
        ek = math.e * k
        if ek == math.inf:
            return self._total
        total = self._total if lam == 1.0 else 0.0
        F, s1, s2, s3 = 0.0, 0.0, 0.0, 0.0
        for a, pieces, A, buf in self._chunks:
            _form(A, a, self.phi.p, pieces)
            np.add(a, ek, out=buf)
            if lam != 1.0:
                ell = np.log(buf)
                ell -= log_k
                A *= ell ** (lam - 1.0)
                total += float(np.sum(A))
            np.divide(a, buf, out=buf)
            s1 += float(A @ buf)
            np.square(buf, out=buf)
            s3 += float(A @ buf)
            if lam != 1.0:
                s2 += float(np.divide(A, ell, out=ell) @ buf)
            np.add(a, ek, out=buf)
            np.log(buf, out=buf)
            F += float(A @ buf)
        F -= log_k * total
        point = (log_k, F, -lam * s1, lam * (lam - 1.0) * s2 + lam * (s1 - s3))
        if all(math.isfinite(v) for v in point):
            self._points.append(point)
        self._passes += 1
        return F

    def value(self, k: float) -> float:
        """The modular of the amplitudes as given, at k; a value beyond the
        float range is a ValueError naming p (a call may return inf)."""
        if not k > 0:
            raise ValueError(f"k must be positive, got {k!r}")
        value = self(k / self.scale) if self.scale > 0.0 else 0.0
        if not math.isfinite(value):
            raise ValueError(f"the modular at k = {k!r} overflows at p = {self.phi.p:g}")
        return value


def _chunk_weights(sizes, weights, table, merge):
    """The weights of each `_CHUNK` elements of the flat amplitude array, as
    (lo, hi, w) multiplies in chunk positions.  `weights` holds a float for
    a segment with a scalar weight, else the slice of `table` that holds
    its row.  A piece of one segment is weighted by its float, or by a view
    of its row repeated to chunk length (once per segment) at the row phase
    where the piece starts.  With `merge`, the pieces of consecutive
    segments with one row length in a chunk are one multiply instead, by an
    array that one repeat makes from their floats or rows: a build weights
    each chunk once, while a modular keeps the pieces for its passes."""
    bounds = [0, *itertools.accumulate(sizes)]
    widths = [1 if isinstance(w, float) else w.stop - w.start for w in weights]
    repeated = {}  # segment -> its row repeated to chunk length
    chunks, first = [], 0
    for c0 in range(0, bounds[-1], _CHUNK):
        c1 = min(c0 + _CHUNK, bounds[-1])
        while bounds[first + 1] <= c0:
            first += 1
        ops, k = [], first
        while k < len(sizes) and bounds[k] < c1:
            w, m, j = weights[k], widths[k], k + 1
            while merge and j < len(sizes) and bounds[j] < c1 and widths[j] == m:
                j += 1
            lo, hi = max(bounds[k], c0), min(bounds[j], c1)
            phase = (lo - bounds[k]) % m
            if j > k + 1:
                # the rows each piece touches: each segment's end is a row end
                counts = [size // m for size in sizes[k:j]]
                counts[0] = -(-(bounds[k + 1] - lo) // m)
                counts[-1] = -(-(hi - bounds[j - 1]) // m)
                if m == 1:
                    w = np.array(weights[k:j]).repeat(counts)
                else:
                    stack = table[w.start : weights[j - 1].stop].reshape(-1, m)
                    w = stack.repeat(counts, 0).ravel()[phase : phase + hi - lo]
            elif m > 1:
                if k not in repeated:
                    repeated[k] = table[w][None].repeat(min(sizes[k], _CHUNK) // m + 2, 0).ravel()
                w = repeated[k][phase : phase + hi - lo]
            ops.append((lo - c0, hi - c0, w))
            k = j
        chunks.append(ops)
    return chunks


def _form(out: np.ndarray, a: np.ndarray, p: float, ops) -> None:
    """A = w a^p / 2^e for one chunk of amplitudes a, into `out`, with the
    chunk's (lo, hi, w) multiplies.  At p = 2 np.square gives the bits of
    np.power in a third of the time."""
    if p == 2.0:
        np.square(a, out=out)
    else:
        np.power(a, p, out=out)
    for lo, hi, w in ops:
        out[lo:hi] *= w


def _expansion_radius(lam: float) -> float:
    """The largest |h| <= 1/2 with |h|^3 / 6 * c * (1 - |h|)^(-2 |lam|) <=
    2^-53, c = |lam (lam - 1) (lam - 2)| + 3 |lam (lam - 1)| + |lam|.

    The remainder of the second-order expansion of F = sum A l^lam at x is
    at most |h|^3 / 6 times the largest |F'''| between x and x + h.  Per
    element dl/dx = -s and ds/dx = -s (1 - s), with 0 <= s < 1 and l >= 1,
    so |F'''| <= c F; and l moves by at most |h|, so F between is within a
    factor (1 - |h|)^-|lam| of F at either end.  Within the radius the
    remainder is thus at most 2^-53 of the value answered.  The radius is
    8.7e-6 at lam = 1 and 1.9e-6 at lam = -3."""
    c = abs(lam * (lam - 1.0) * (lam - 2.0)) + 3.0 * abs(lam * (lam - 1.0)) + abs(lam)
    # the fixed point of r = r0 (1 - r)^(2 |lam| / 3), a contraction by
    # about 2 |lam| r / 3 < 1e-5 per step; only |lam| < 1e-15 reaches 1/2
    r0 = (6.0 * 2.0**-53 / c) ** (1.0 / 3.0)
    r = min(r0, 0.5)
    for _ in range(4):
        r = min(r0 * (1.0 - r) ** (2.0 * abs(lam) / 3.0), 0.5)
    return r


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
    satisfies rho(k) <= 1 for the values of rho that the solver sampled,
    and the final bracket [lo, k] has k - lo <= `_TOL` * k, with `_TOL` =
    1e-10.  A `YoungModular` at lambda1 != 0 answers most calls by an
    expansion, within about 2e-15 relative of a fresh full pass, so a
    fresh full pass at k can read 1 plus a few ulp: the bracket is the
    accuracy of k.
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
