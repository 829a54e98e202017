import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treetrace import (
    GaugeBracketError,
    NonMonotoneModularError,
    YoungModular,
    YoungPhi,
    luxemburg_gauge,
)
import treetrace.young as young
from treetrace.young import _CHUNK, _expansion_radius, _mean_field_root


def test_phi_values():
    assert YoungPhi(2.0)(0.0) == 0.0
    assert YoungPhi(2.0)(3.0) == pytest.approx(9.0)
    # log(e + t) = 2 at t = e^2 - e
    t = math.e**2 - math.e
    assert YoungPhi(2.0, 1.0)(t) == pytest.approx(2.0 * t**2, rel=1e-14)
    assert YoungPhi(2.0, 1.0)(t) == pytest.approx(43.632, rel=1e-4)


def test_phi_rejects_negative_argument():
    phi = YoungPhi(2.0)
    with pytest.raises(ValueError):
        phi(-0.1)
    with pytest.raises(ValueError):
        phi(np.array([0.5, -1.0]))


@pytest.mark.parametrize("key", ["p", "lambda1"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_phi_rejects_non_finite_exponents(key, value):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        YoungPhi(**{"p": 2.0, key: value})


@pytest.mark.parametrize("lambda1", [1e308, -1e308, 2610.0, -2740.0])
def test_phi_rejects_lambda1_that_overflows_phi_at_one(lambda1):
    # at 1e308 the gauges overflowed to meaningless values and trace-bound
    # still passed
    with pytest.raises(ValueError, match="lambda1"):
        YoungPhi(2.0, lambda1)


def test_phi_admissibility():
    YoungPhi(1.0, 0.0)
    YoungPhi(1.0, 2.0)
    YoungPhi(3.0, -4.0)
    # log(e + 1)^lambda1 is still in the float range
    YoungPhi(2.0, 2600.0)
    # so is log(e + 1)^-2700, but Phi decreases near t = 5.83 there
    with pytest.raises(ValueError, match="lambda1 = -2700.0 makes Phi decrease"):
        YoungPhi(2.0, -2700.0)
    with pytest.raises(ValueError):
        YoungPhi(1.0, -0.5)
    with pytest.raises(ValueError):
        YoungPhi(0.5)


def log_slope(p, lambda1, t):
    """d log Phi / d log t of t^p log(e + t)^lambda1."""
    return p + lambda1 * t / ((math.e + t) * np.log(math.e + t))


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_phi_rejects_a_lambda1_that_makes_it_decrease(p):
    # t / ((e + t) log(e + t)) peaks at 0.31784 near t = 5.83, so Phi
    # increases exactly when lambda1 >= -p / 0.31784 = -3.1462 p; below
    # that the gauge solver failed with a message that named no key
    t = np.linspace(5.0, 7.0, 200_001)
    lowest = -p / float(np.max(t / ((math.e + t) * np.log(math.e + t))))
    assert lowest == pytest.approx(-3.1461932 * p, rel=1e-7)
    YoungPhi(p, lowest * (1.0 - 1e-9))
    assert np.all(log_slope(p, lowest * (1.0 - 1e-9), t) > 0.0)
    below = lowest * (1.0 + 1e-6)
    assert np.any(log_slope(p, below, t) < 0.0)
    with pytest.raises(ValueError, match=rf"lambda1 = {below!r} makes Phi decrease .* needs lambda1 >= -"):
        YoungPhi(p, below)


def test_phi_strictly_increasing_on_samples():
    for phi in (YoungPhi(1.0, 1.0), YoungPhi(2.0, -1.0), YoungPhi(2.5, 0.5)):
        t = np.logspace(-6, 6, 200)
        v = phi(t)
        assert np.all(np.diff(v) > 0)


def midpoint_convex(phi, t):
    """Midpoint convexity of Phi on consecutive triples of the grid t."""
    vals = phi(t)
    mids = phi(0.5 * (t[:-2] + t[2:]))
    return bool(np.all(mids <= 0.5 * (vals[:-2] + vals[2:]) * (1 + 1e-12)))


def delta2_sup(phi, t):
    """Sampled doubling constant sup Phi(2t) / Phi(t) on the grid t."""
    return float(np.max(phi(2.0 * t) / phi(t)))


def test_diagnostics_pure_power_doubling_is_exact():
    t = np.logspace(-8.0, 8.0, 241)
    assert delta2_sup(YoungPhi(2.0), t) == pytest.approx(4.0, abs=1e-12)
    assert midpoint_convex(YoungPhi(2.0), t)


def test_diagnostics_p1_log_doubling_bounded():
    t = np.logspace(-6, 6, 400)
    assert delta2_sup(YoungPhi(1.0, 1.0), t) <= 4.0
    assert midpoint_convex(YoungPhi(1.0, 1.0), t)


def test_diagnostics_convexity_negative_log_exponent():
    t = np.logspace(-6, 6, 400)
    assert midpoint_convex(YoungPhi(2.0, -1.0), t)
    # admissible, but not convex between its convex ends
    assert not midpoint_convex(YoungPhi(2.0, -3.0), t)


def test_diagnostics_rejects_bad_grid():
    # Young functions take nonnegative arguments only
    with pytest.raises(ValueError, match="nonnegative"):
        YoungPhi(2.0)(np.array([1.0, -0.5, 2.0]))


@pytest.mark.parametrize("c", [0.3, 2.0, 17.0])
def test_constant_rescaling_has_bounded_distortion(c):
    # doubling makes Phi(c*t)/Phi(t) bounded above and below over all t
    t = np.logspace(-8, 8, 500)
    for phi in (YoungPhi(2.0, 1.0), YoungPhi(2.0, -1.0), YoungPhi(1.0, 1.0)):
        ratio = phi(c * t) / phi(t)
        assert np.all(np.isfinite(ratio)) and np.all(ratio > 0)
        assert ratio.max() / ratio.min() < 1e4


# ----------------------------------------------------------------- the gauge


def test_gauge_power_modular():
    for c in (0.2, 3.0, 117.0):
        for p in (1.0, 2.0, 3.5):
            k = luxemburg_gauge(lambda kk: (c / kk) ** p)
            assert k == pytest.approx(c, rel=1e-9)


def test_gauge_zero_modular():
    assert luxemburg_gauge(lambda k: 0.0) == 0.0


def test_gauge_scaled_young_modular():
    phi = YoungPhi(2.0)
    k = luxemburg_gauge(lambda kk: 4.0 * phi(5.0 / kk))
    assert k == pytest.approx(10.0, rel=1e-9)


def test_gauge_exponential_modular():
    k = luxemburg_gauge(lambda kk: math.exp(5.0 - kk))
    assert k == pytest.approx(5.0, rel=1e-9)


def test_gauge_matches_lp_norm():
    rng = np.random.default_rng(5)
    v = rng.uniform(0.1, 2.0, size=64)
    for p in (1.0, 2.0, 4.0):
        lp = float(np.mean(v**p) ** (1.0 / p))
        k = luxemburg_gauge(lambda kk: float(np.mean((v / kk) ** p)))
        assert k == pytest.approx(lp, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0), st.integers(0, 2**31 - 1))
def test_gauge_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 1.0, size=16) + 0.01
    phi = YoungPhi(2.0, 1.0)

    def modular_of(w):
        return lambda k: float(np.mean(phi(np.abs(w) / k)))

    base = luxemburg_gauge(modular_of(v))
    scaled = luxemburg_gauge(modular_of(c * v))
    assert scaled == pytest.approx(c * base, rel=1e-9)


def test_gauge_infinite_when_never_below_one(monkeypatch):
    monkeypatch.setattr(young, "_MAX_DOUBLINGS", 30)
    assert luxemburg_gauge(lambda k: math.inf) == math.inf


def test_gauge_bracket_failure(monkeypatch):
    monkeypatch.setattr(young, "_MAX_DOUBLINGS", 30)
    with pytest.raises(GaugeBracketError):
        luxemburg_gauge(lambda k: 2.0)


def test_gauge_steps_running_out_below_one_raise(monkeypatch):
    # a modular that is 0 at the last sample has gauge 0
    assert luxemburg_gauge(lambda k: 0.0) == 0.0
    assert luxemburg_gauge(lambda k: (1e-5 / k) ** 2) == pytest.approx(1e-5, rel=1e-9)
    # the steps down used to end in 0.0 although the gauge is 1e-5
    monkeypatch.setattr(young, "_MAX_DOUBLINGS", 2)
    with pytest.raises(GaugeBracketError, match="<= 1 after 2 doublings"):
        luxemburg_gauge(lambda k: (1e-5 / k) ** 2)
    monkeypatch.setattr(young, "_MAX_DOUBLINGS", 1)
    with pytest.raises(GaugeBracketError, match="> 1 after 1 doublings"):
        luxemburg_gauge(lambda k: (1e5 / k) ** 2)
    assert luxemburg_gauge(lambda k: 0.0) == 0.0


def test_gauge_reaches_the_ends_of_the_float_range():
    # log k was clamped to +-700: 1e-310 / k gave 0 and 1e305 / k raised
    # GaugeBracketError
    for c in (1e-310, 3e-306, 1e305, 1.5e308):
        assert luxemburg_gauge(lambda k: c / k) == pytest.approx(c, rel=1e-9)
    # beyond the ends: rho(k) > 1 at the largest double, rho(k) <= 1 at the
    # smallest subnormal, each found without running out the 200 steps (the
    # steps up from k = 1, each at most a factor 2^16, reach 1.8e308 in 64)
    calls = []

    def above(k):
        calls.append(k)
        return 1e300 / k * 1e10

    assert luxemburg_gauge(above) == math.inf
    assert len(calls) < 80
    assert luxemburg_gauge(lambda k: 1e-200 / k * 1e-130) == 0.0


def test_gauge_of_a_young_modular_below_e_minus_700():
    # p = 1, lambda1 = 1 and weights of 1e-310: the gauge is 3.9e-306, near
    # e^-703, and was reported as 0
    mod = YoungModular(YoungPhi(1.0, 1.0), np.linspace(0.1, 1.0, 100), [(100, 1e-310)])
    k = luxemburg_gauge(mod)
    assert k == pytest.approx(bisection_gauge(mod, max_doublings=1100), rel=1e-9)
    assert k == pytest.approx(3.8652e-306, rel=1e-4)
    assert mod(k) <= 1.0


def test_gauge_detects_non_monotone_modular():
    def rho(k):
        if k < 1.2:
            return 2.0
        if k < 1.5:
            return 0.5
        return 0.8

    with pytest.raises(NonMonotoneModularError):
        luxemburg_gauge(rho)


def test_gauge_rejects_a_nan_modular():
    with pytest.raises(ValueError, match="modular returned NaN"):
        luxemburg_gauge(lambda k: math.nan)


def test_gauge_detects_a_modular_that_grows_with_k():
    # rho(2) = 4 exceeds rho(1) = 2, the sample below it
    with pytest.raises(NonMonotoneModularError, match=r"rho\(2\.0\) = 4\.0 exceeds rho\(1\.0\)"):
        luxemburg_gauge(lambda k: 2.0 * k)


def test_gauge_bisects_while_an_end_of_the_bracket_is_infinite():
    def rho(k):
        return math.inf if k < 0.9 else (0.85 / k) ** 2

    k = luxemburg_gauge(rho)
    assert k == pytest.approx(0.9, rel=1e-10)
    assert rho(k) <= 1.0


# ------------------------------------------------- the gauge against an oracle


def bisection_gauge(rho, tol=1e-10, max_doublings=200):
    """Reference solver: double or halve from k = 1 until rho crosses 1, then
    bisect to relative width tol and return the upper end of the bracket."""
    if rho(1.0) <= 1.0:
        hi = lo = 1.0
        for _ in range(max_doublings):
            lo *= 0.5
            if rho(lo) > 1.0:
                break
        else:
            return 0.0
    else:
        lo = hi = 1.0
        for _ in range(max_doublings):
            hi *= 2.0
            if rho(hi) <= 1.0:
                break
        else:
            raise GaugeBracketError("no crossing")
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if rho(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=4.0),
    st.sampled_from([-0.5, 0.0, 1.0]),
    st.floats(min_value=-6.0, max_value=6.0),
    st.integers(0, 2**31 - 1),
)
def test_gauge_matches_bisection_oracle(p, lambda1, log_amplitude, seed):
    assume(p > 1.0 or lambda1 >= 0.0)
    phi = YoungPhi(p, lambda1)
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 40))
    a = 10.0 ** (log_amplitude + rng.uniform(-1.0, 0.0, size=size))
    w = rng.uniform(0.01, 1.0, size=size)

    def rho(k):
        return float(np.sum(w * phi(a / k)))

    assert luxemburg_gauge(rho) == pytest.approx(bisection_gauge(rho), rel=1e-9)


def test_gauge_is_exact_for_a_pure_power_after_few_evaluations():
    calls = []

    def rho(k):
        calls.append(k)
        return (123.0 / k) ** 2.5

    k = luxemburg_gauge(rho)
    assert k == pytest.approx(123.0, rel=1e-12)
    assert (123.0 / k) ** 2.5 <= 1.0
    assert len(calls) <= 5


def test_gauge_bracket_closes_to_tol(monkeypatch):
    # the returned k is the upper end of a sampled bracket of width <= tol * k
    samples = {}

    def rho(k):
        samples[k] = (2.0 / k) ** 3 * math.log(math.e + 2.0 / k)
        return samples[k]

    tol = 1e-8
    monkeypatch.setattr(young, "_TOL", tol)
    k = luxemburg_gauge(rho)
    assert samples[k] <= 1.0
    lo = max(kk for kk, v in samples.items() if v > 1.0)
    assert 0.0 < k - lo <= tol * k


def log_modular():
    """p = 2, lambda1 = 1, a = linspace(0.1, 1, 100) and w = 0.01: gauge 0.70276."""
    return YoungModular(YoungPhi(2.0, 1.0), np.linspace(0.1, 1.0, 100), [(100, 0.01)])


@pytest.mark.parametrize("start", [(math.nan, 2.0), (math.inf, 2.0), (0.0, 0.0), (0.0, -2.0)])
def test_gauge_rejects_a_start_without_a_finite_point_and_positive_degree(start):
    assert luxemburg_gauge(log_modular()) == pytest.approx(0.70276, abs=5e-6)
    with pytest.raises(ValueError, match="start must be"):
        luxemburg_gauge(log_modular(), start=start)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=4.0),
    st.sampled_from([-0.5, 0.5, 1.0, 2.5, 40.0]),
    st.floats(min_value=-6.0, max_value=6.0),
    st.integers(0, 2**31 - 1),
)
def test_gauge_from_the_mean_field_start_matches_the_oracle(p, lambda1, log_amplitude, seed):
    # amplitudes over 6 decades below a largest one of 1e-6 to 1e6; the
    # start may change the speed of the solver, never its answer, even
    # when it is e^(+-300) away from the gauge
    assume(p > 1.0 or lambda1 >= 0.0)
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 200))
    a = 10.0 ** (log_amplitude + rng.uniform(-6.0, 0.0, size=size))
    w = rng.uniform(0.01, 1.0, size=size)
    mod = YoungModular(YoungPhi(p, lambda1), a, [(size, w)])
    assert mod.start is not None and mod.start[1] == p
    samples = {}

    def rho(k):
        samples[k] = mod(k)
        return samples[k]

    tol = young._TOL
    k = luxemburg_gauge(rho, start=mod.start)
    assert k == pytest.approx(bisection_gauge(mod), rel=1e-9)
    assert samples[k] <= 1.0
    lo = max(kk for kk, v in samples.items() if v > 1.0)
    assert 0.0 < k - lo <= tol * k
    for far in (-300.0, 300.0):
        k_far = luxemburg_gauge(mod, start=(far, p))
        assert abs(k_far - k) <= tol * max(k, k_far)


def test_gauge_start_is_none_at_lambda1_0_and_where_the_mean_field_solve_fails():
    a = np.linspace(0.1, 1.0, 100)
    assert YoungModular(YoungPhi(2.0), a.copy(), [(100, 0.01)]).start is None
    # p = 1 and weights of 1e-310: the root lies near x = -711, where
    # m e^-x overflows
    assert YoungModular(YoungPhi(1.0, 1.0), a.copy(), [(100, 1e-310)]).start is None
    # a nonpositive slope p + lambda1 t / ((e + t) log(e + t)) stops Newton's
    # method.  YoungPhi rejects every lambda1 that allows one, such as -40
    # at p = 2 (the slope is -9.8 at t = e, reached from x = c / p = -1), so
    # a modular meets it only within rounding of that bound
    assert _mean_field_root(2.0, -40.0, -2.0, 1.0) is None
    assert _mean_field_root(2.0, -6.29, -2.0, 1.0) is not None


# ---------------------------------------------------------- the built modular


def test_young_modular_matches_direct_sum():
    rng = np.random.default_rng(3)
    rows = rng.uniform(0.0, 5.0, size=(7, 3))
    dens = rng.uniform(0.1, 1.0, size=3)
    flat = rng.uniform(0.0, 2.0, size=11)
    for p in (1.0, 1.5, 2.0, 3.0):
        for lambda1 in (0.0, 1.0, -0.5, 2.0):
            if p == 1.0 and lambda1 < 0.0:
                continue  # not admissible
            phi = YoungPhi(p, lambda1)
            for weight in (1.0, 1e-150, 1e-300):
                a = np.concatenate([rows.ravel(), flat])
                segments = [(rows.size, weight * dens), (flat.size, 0.25 * weight)]
                mod = YoungModular(phi, a, segments)
                assert mod.scale == pytest.approx(rows.max())
                for k in (0.3, 1.0, 4.0):
                    direct = float(np.sum(weight * dens * phi(rows / k)))
                    direct += 0.25 * weight * float(np.sum(phi(flat / k)))
                    assert mod.value(k) == pytest.approx(direct, rel=1e-12)
                    assert mod(k) == pytest.approx(mod.value(k * mod.scale), rel=1e-12)
    # more than three chunks: a scalar segment of 5 entries puts the 8-entry
    # rows of the next two segments at row phase 3 at every chunk boundary,
    # each of those segments ends inside a chunk, and a scalar segment ends
    # the array inside its last chunk
    rows8 = [rng.uniform(0.0, 5.0, size=(3 * _CHUNK // 16 + i, 8)) for i in (0, 1)]
    dens8 = [rng.uniform(0.1, 1.0, size=8) for _ in rows8]
    head, tail = rng.uniform(0.0, 2.0, size=5), rng.uniform(0.0, 2.0, size=7)
    sizes = [head.size, rows8[0].size, rows8[1].size, tail.size]
    assert sum(sizes) > 3 * _CHUNK
    assert all((c - 5) % 8 == 3 for c in range(_CHUNK, sum(sizes), _CHUNK))
    for p in (1.5, 2.0, 3.0):
        for lambda1 in (1.0, -0.5, 2.0):
            phi = YoungPhi(p, lambda1)
            for weight in (1.0, 1e-300):
                a = np.concatenate([head, rows8[0].ravel(), rows8[1].ravel(), tail])
                ws = [0.5 * weight, weight * dens8[0], 0.7 * weight * dens8[1], 2.0 * weight]
                mod = YoungModular(phi, a, list(zip(sizes, ws)))
                for k in (0.3, 1.0, 4.0):
                    direct = 0.5 * weight * float(np.sum(phi(head / k)))
                    for r, w in zip(rows8, ws[1:3]):
                        direct += float(np.sum(w * phi(r / k)))
                    direct += 2.0 * weight * float(np.sum(phi(tail / k)))
                    assert mod.value(k) == pytest.approx(direct, rel=1e-12)


def _oracle_chunk_weights(segments, weights):
    """The per-piece chunk weights of the earlier build: a float for a
    one-entry row, else a view of the row repeated to chunk length, one
    (lo, hi, w) piece per segment in each chunk it meets."""
    chunks, start = [], 0
    for (size, _), w in zip(segments, weights):
        row = float(w[0])
        if w.size > 1:
            row = np.repeat(w[None], min(size, _CHUNK) // w.size + 2, 0).ravel()
        pos, end = start, start + size
        while pos < end:
            first = pos - pos % _CHUNK
            if first == pos:
                chunks.append([])
            hi = min(end, first + _CHUNK)
            phase = (pos - start) % w.size
            piece = row if w.size == 1 else row[phase : phase + hi - pos]
            chunks[-1].append((pos - first, hi - first, piece))
            pos = hi
        start = end
    return chunks


def _oracle_build(phi, a, segments):
    """(scale, e, sum A, start, A) of the earlier build, which weighted
    every segment by an array of its own and each chunk piece by piece."""
    p, lam = phi.p, phi.lambda1
    weights = [np.atleast_1d(np.asarray(w, dtype=float)) for _, w in segments]
    scale = float(a.max()) if a.size else 0.0
    if scale > 0.0:
        a /= scale
    e = math.frexp(max((float(w.max()) for w in weights), default=0.0))[1]
    weights = [np.ldexp(w, -e) for w in weights]
    A, weighted = np.empty_like(a), np.empty(min(a.size, _CHUNK))
    total, dot = 0.0, 0.0
    for i, pieces in zip(range(0, a.size, _CHUNK), _oracle_chunk_weights(segments, weights)):
        chunk = a[i : i + _CHUNK]
        out = weighted[: chunk.size]
        if p == 2.0:
            np.square(chunk, out=out)
        else:
            np.power(chunk, p, out=out)
        for lo, hi, w in pieces:
            out[lo:hi] *= w
        A[i : i + _CHUNK] = out
        total += float(np.sum(out))
        dot += float(out @ chunk)
    start = None
    if lam == 0.0:
        total = float(np.sum(A))
    elif total > 0.0:
        x0 = _mean_field_root(p, lam, e * math.log(2.0) + math.log(total), dot / total)
        start = None if x0 is None else (x0, p)
    return scale, e, total, start, A


def _oracle_layouts(rng):
    """(amplitudes, segments): one to seven scalar or 8-entry row segments,
    rows whose chunk ends fall at each of the 8 row phases over more than
    three chunks, 5-entry rows over five chunks, single segments of 1
    element to more than three chunks, and all-zero amplitudes."""
    layouts = []
    for count in range(1, 8):
        scalars = [(int(rng.integers(1, 40)), float(rng.uniform(0.1, 1.0))) for _ in range(count)]
        rows = [(8 * int(rng.integers(1, 12)), rng.uniform(0.1, 1.0, 8)) for _ in range(count)]
        mixed = [scalars[i] if i % 2 else rows[i] for i in range(count)]
        layouts += [scalars, rows, mixed]
    for head in range(8):
        rows = [(8 * (3 * _CHUNK // 16 + i), rng.uniform(0.1, 1.0, 8)) for i in (0, 1)]
        layouts.append([(head, 0.5), *rows, (7, 2.0)])
    # 5-entry rows: _CHUNK is 4 past a multiple of 5, so their phase at a
    # chunk end moves from chunk to chunk
    rows5 = [(5 * (_CHUNK + 7), rng.uniform(0.1, 1.0, 5)), (300, rng.uniform(0.1, 1.0, 300))]
    layouts.append([(3, 0.5), *rows5])
    for size in (1, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5):
        layouts += [[(size, 0.37)], [(size, np.array([0.37]))]]
    layouts.append([(8, rng.uniform(0.1, 1.0, 8)), (_CHUNK, 1e-310), (3, np.array([1e-300]))])
    cases = []
    for segments in layouts:
        size = sum(n for n, _ in segments)
        a = 10.0 ** rng.uniform(-6.0, 0.0, size)
        a[rng.random(size) < 0.01] = 0.0
        cases.append((a, segments))
    cases.append((np.zeros(24), [(16, rng.uniform(0.1, 1.0, 8)), (8, 0.5)]))
    return cases


@pytest.mark.parametrize(
    "p, lambda1",
    [
        (p, lambda1)
        for p in (1.0, 1.5, 2.0, 3.0)
        for lambda1 in (0.0, 1.0, -0.5, 2.0)
        if p > 1.0 or lambda1 >= 0.0
    ],
)
def test_young_modular_build_matches_the_piecewise_oracle_bitwise(p, lambda1):
    # the build weights a chunk by one multiply per run of segments with
    # one row length; the oracle by one multiply per segment piece.  Both
    # give the same bits: scale, e, sum A, the mean-field start and every
    # A = w a^p / 2^e (formed in place at lambda1 = 0, and by each pass's
    # pieces otherwise)
    phi = YoungPhi(p, lambda1)
    for a, segments in _oracle_layouts(np.random.default_rng(11)):
        mod_a, oracle_a = a.copy(), a.copy()
        mod = YoungModular(phi, mod_a, segments)
        scale, e, total, start, A = _oracle_build(phi, oracle_a, segments)
        assert (mod.scale, mod._exp, mod._total, mod.start) == (scale, e, total, start)
        if lambda1 == 0.0:
            formed = mod_a
        else:
            assert mod_a.tobytes() == oracle_a.tobytes()
            formed = np.empty_like(a)
            for i, (chunk, pieces, out, _) in zip(range(0, a.size, _CHUNK), mod._chunks):
                young._form(out, chunk, p, pieces)
                formed[i : i + _CHUNK] = out
        assert formed.tobytes() == A.tobytes()


def test_young_modular_rejects_a_segment_of_partial_rows():
    with pytest.raises(ValueError, match="multiple of its weight row length"):
        YoungModular(YoungPhi(2.0), np.ones(12), [(12, np.ones(8))])


def test_young_modular_rejects_segments_that_do_not_cover_the_amplitudes():
    with pytest.raises(ValueError, match="segment sizes"):
        YoungModular(YoungPhi(2.0), np.ones(5), [(4, 1.0)])


def test_young_modular_of_zero_amplitudes():
    mod = YoungModular(YoungPhi(2.0, 1.0), np.zeros(4), [(4, 1.0)])
    assert mod.scale == 0.0
    assert mod.value(1.0) == 0.0
    assert mod(1e-300) == 0.0
    with pytest.raises(ValueError):
        mod.value(0.0)


@pytest.mark.parametrize("lambda1", [0.0, 1.0])
def test_young_modular_value_beyond_the_float_range_is_an_error(lambda1):
    # the modular of amplitudes 1e200 at k = 1 and p = 2 is 1e400: value
    # returned inf, while the rescaled modular that the gauges call stays
    # in range and a call at a tiny k may still give inf
    mod = YoungModular(YoungPhi(2.0, lambda1), np.full(4, 1e200), [(4, 0.25)])
    with pytest.raises(ValueError, match="the modular at k = 1.0 overflows at p = 2$"):
        mod.value(1.0)
    assert mod.value(1e200) == pytest.approx(math.log(math.e + 1.0) ** lambda1)
    assert mod(1e-300) == math.inf


@pytest.mark.parametrize("lambda1", [0.0, 1.0])
def test_young_modular_value_rejects_nan_and_vanishes_at_infinity(lambda1):
    mod = YoungModular(YoungPhi(2.0, lambda1), np.linspace(0.1, 1.0, 100), [(100, 0.01)])
    with pytest.raises(ValueError, match="k must be positive, got nan"):
        mod.value(math.nan)
    assert mod.value(math.inf) == 0.0


@pytest.mark.parametrize("p, lambda1", [(1.0, 1.0), (1.0, 2.0), (2.0, -0.5)])
def test_young_modular_where_e_k_overflows(p, lambda1):
    # beyond k = 6.6e307 e k overflows, every l = log(e + a/k) rounds to 1
    # and the modular is 2^e k^-p sum A; a pass made a zero amplitude's
    # term 0 * inf, a NaN with a RuntimeWarning at lambda1 > 0, and read 0
    # at lambda1 = -0.5.  The direct sum is taken in logs, since at p = 2
    # it is subnormal
    a, weight, k = np.array([1.0, 0.5, 0.0, 1e-300]), 1e300, 1.7e308
    mod = YoungModular(YoungPhi(p, lambda1), a.copy(), [(a.size, weight)])
    direct = sum(
        math.exp(
            math.log(weight)
            + p * (math.log(x) - math.log(k))
            + lambda1 * math.log(math.log(math.e + x / k))
        )
        for x in a
        if x > 0.0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mod(k) == pytest.approx(direct, rel=1e-12, abs=4 * math.ulp(0.0))


@pytest.mark.parametrize("lambda1", [0.0, 1.0, -0.5])
def test_young_modular_scalar_weight_sums_like_a_one_column_product(lambda1):
    # a scalar weight is a one-column weight vector, and an evaluation is
    # 2^e k^-p sum_i A_i l_i^lambda1 with A = w a^p / 2^e (2^e at the
    # weight) and l = log(a + e k) - log k.  The sum of A is taken at
    # build, over the whole array at lambda1 = 0 and chunk by chunk
    # otherwise.  Otherwise a pass weights each chunk of _CHUNK elements
    # by l^(lambda1 - 1) (not at lambda1 = 1) and takes
    # sum A l^lambda1 = sum A l^(lambda1 - 1) log(a + e k) - log k times
    # sum A l^(lambda1 - 1), each chunk by one dot product and one sum
    phi = YoungPhi(2.0, lambda1)
    rng = np.random.default_rng(5)
    for size in (1, 7, 4096, 65_537):
        a = rng.random(size) * 3.0
        w = 0.37
        mod = YoungModular(phi, a.copy(), [(size, w)])
        column = YoungModular(phi, a.copy(), [(size, np.array([w]))])
        e = math.frexp(w)[1]
        weighted = (a / mod.scale) ** 2 * math.ldexp(w, -e)
        chunks = [slice(i, i + _CHUNK) for i in range(0, size, _CHUNK)]
        if lambda1 == 0.0:
            total = float(np.sum(weighted))
        else:
            total = sum(float(np.sum(weighted[c])) for c in chunks)
        for k in (0.4, 1.0, 2.5):
            expect = total
            if lambda1 != 0.0:
                expect, tilde_total = 0.0, total if lambda1 == 1.0 else 0.0
                for c in chunks:
                    log = np.log(a[c] / mod.scale + math.e * k)
                    tilde = weighted[c]
                    if lambda1 != 1.0:
                        tilde = tilde * (log - math.log(k)) ** (lambda1 - 1.0)
                        tilde_total += float(np.sum(tilde))
                    expect += float(tilde @ log)
                expect -= math.log(k) * tilde_total
            expect *= math.ldexp(k**-2.0, e)
            assert mod(k) == column(k) == expect


@pytest.mark.parametrize("lambda1", [0.0, 1.0])
def test_young_modular_gauge_of_extreme_weights(lambda1):
    # k^-p overflows near the gauge of weights of 1e-310; the modular
    # evaluates 2^e k^-p through logarithms there instead of raising
    phi = YoungPhi(2.0, lambda1)
    a = np.array([1.0, 0.5, 0.25])

    def direct(weight, k):
        t = a / k
        terms = math.log(weight) + 2.0 * np.log(t) + lambda1 * np.log(np.log(math.e + t))
        return float(np.sum(np.exp(terms)))

    for weight in (1e-310, 1e-200, 1e200):
        mod = YoungModular(phi, a.copy(), [(3, weight)])
        k = luxemburg_gauge(mod)
        assert mod(k) == pytest.approx(direct(weight, k), rel=1e-12)
        assert direct(weight, k) <= 1.0 + 1e-12
        assert direct(weight, k * (1.0 - 2e-10)) > 1.0
    mod = YoungModular(phi, a.copy(), [(3, 1e-310)])
    assert mod(1e-300) == pytest.approx(direct(1e-310, 1e-300), rel=1e-12)
    assert mod(1e-320) == math.inf
    assert mod(1e300) == 0.0


# ------------------------------------------- the expansion at a recorded pass


def expansion_amplitudes(rng):
    """Over two chunks of amplitudes in three segments: a scalar weight, a
    4-entry weight row that crosses a chunk end, and a scalar weight; a
    hundredth of them 0 and the rest over six decades."""
    sizes = [1_000, 4 * (_CHUNK // 2 + 1_001), _CHUNK // 3]
    a = 10.0 ** rng.uniform(-6.0, 0.0, size=sum(sizes))
    a[rng.random(a.size) < 0.01] = 0.0
    weights = [0.3, rng.uniform(0.1, 1.0, size=4), 1e-3]
    return a, list(zip(sizes, weights))


ADMISSIBLE = [
    (p, lambda1)
    for p in (1.0, 1.5, 2.0, 3.0)
    for lambda1 in (-2.0, -0.5, 0.5, 1.0, 2.0, 3.0)
    if p > 1.0 or lambda1 >= 0.0
]


@pytest.mark.parametrize("p, lambda1", ADMISSIBLE)
def test_young_modular_expansion_matches_a_full_pass_within_its_radius(p, lambda1):
    # a call within the radius r of a full pass in log k is answered from
    # that pass's (x, F, F', F''), to rounding; one just beyond r makes a
    # full pass of its own.  r in log k is matched up to 1e-8 of it, since
    # log(exp(x + h)) - x is h only to about 1e-16 absolute
    phi = YoungPhi(p, lambda1)
    rng = np.random.default_rng(int(10 * p + lambda1) + 7)
    a, segments = expansion_amplitudes(rng)
    r = _expansion_radius(lambda1)
    for x0 in (math.log(1e-4), 0.0, math.log(30.0)):
        mod = YoungModular(phi, a.copy(), segments)
        assert mod(math.exp(x0)) > 0.0 and mod._passes == 1
        for h in (r, -r, 0.1 * r, -0.1 * r):
            k = math.exp(x0 + h * (1.0 - 1e-8))
            full = YoungModular(phi, a.copy(), segments)(k)
            assert mod(k) == pytest.approx(full, rel=4e-15, abs=0.0)
        assert mod._passes == 1
        beyond = math.exp(x0 + r * (1.0 + 1e-8))
        mod(beyond)
        assert mod._passes == 2
        # the nearest of the two recorded points answers
        mod(math.exp(x0 + 2.0 * r))
        assert mod._passes == 2


def test_expansion_radius_solves_the_remainder_bound():
    # |h|^3 / 6 c (1 - |h|)^(-2 |lambda1|) is 2^-53 at r, up to rounding
    def bound(lambda1, h):
        c = abs(lambda1 * (lambda1 - 1) * (lambda1 - 2))
        c += 3 * abs(lambda1 * (lambda1 - 1)) + abs(lambda1)
        return h**3 / 6 * c * (1 - h) ** (-2 * abs(lambda1))

    assert _expansion_radius(1.0) == pytest.approx(8.7334e-6, rel=1e-4)
    assert _expansion_radius(-3.0) == pytest.approx(1.8879e-6, rel=1e-4)
    for lambda1 in (-2.0, -0.5, 0.5, 1.0, 2.0, 3.0, 1e-12, 2600.0):
        r = _expansion_radius(lambda1)
        assert bound(lambda1, r * (1.0 - 1e-12)) <= 2.0**-53 < bound(lambda1, r * (1.0 + 1e-12))
    # near lambda1 = 0 the radius would approach 1; it stops at 1/2
    for lambda1 in (1e-16, -1e-20, 5e-324):
        assert _expansion_radius(lambda1) == 0.5
        assert bound(lambda1, 0.5) <= 2.0**-53
