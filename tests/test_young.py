import math

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
    phi_diagnostics,
    phi_eval,
)


def test_phi_values():
    assert phi_eval(YoungPhi(2.0), 0.0) == 0.0
    assert phi_eval(YoungPhi(2.0), 3.0) == pytest.approx(9.0)
    # log(e + t) = 2 at t = e^2 - e
    t = math.e**2 - math.e
    assert phi_eval(YoungPhi(2.0, 1.0), t) == pytest.approx(2.0 * t**2, rel=1e-14)
    assert phi_eval(YoungPhi(2.0, 1.0), t) == pytest.approx(43.632, rel=1e-4)


def test_phi_rejects_negative_argument():
    phi = YoungPhi(2.0)
    with pytest.raises(ValueError):
        phi_eval(phi, -0.1)
    with pytest.raises(ValueError):
        phi_eval(phi, np.array([0.5, -1.0]))


def test_phi_admissibility():
    YoungPhi(1.0, 0.0)
    YoungPhi(1.0, 2.0)
    YoungPhi(3.0, -4.0)
    with pytest.raises(ValueError):
        YoungPhi(1.0, -0.5)
    with pytest.raises(ValueError):
        YoungPhi(0.5)


def test_phi_strictly_increasing_on_samples():
    for phi in (YoungPhi(1.0, 1.0), YoungPhi(2.0, -1.0), YoungPhi(2.5, 0.5)):
        t = np.logspace(-6, 6, 200)
        v = phi_eval(phi, t)
        assert np.all(np.diff(v) > 0)


def test_diagnostics_pure_power_doubling_is_exact():
    rep = phi_diagnostics(YoungPhi(2.0))
    assert rep.delta2_sup == pytest.approx(4.0, abs=1e-12)
    assert rep.convexity_ok


def test_diagnostics_p1_log_doubling_bounded():
    rep = phi_diagnostics(YoungPhi(1.0, 1.0), np.logspace(-6, 6, 400))
    assert rep.delta2_sup <= 4.0
    assert rep.convexity_ok


def test_diagnostics_convexity_negative_log_exponent():
    rep = phi_diagnostics(YoungPhi(2.0, -1.0), np.logspace(-6, 6, 400))
    assert rep.convexity_ok


@pytest.mark.parametrize("lambda1", [-1.0, 1.0])
def test_diagnostics_sandwich_found(lambda1):
    rep = phi_diagnostics(YoungPhi(2.0, lambda1), delta=0.5)
    assert rep.sandwich_ok
    assert rep.sandwich_scale >= 1.0
    # spot-check the exhibited pair on a fresh grid tail
    phi = YoungPhi(2.0, lambda1)
    t = np.logspace(math.log10(rep.sandwich_start), 8, 100)
    k = rep.sandwich_scale
    assert np.all(t ** max(2.0 - 0.5, 1.0) <= phi_eval(phi, k * t) * (1 + 1e-9))
    assert np.all(phi_eval(phi, t) <= (k * t) ** 2.5 * (1 + 1e-9))


def test_diagnostics_rejects_bad_grid():
    with pytest.raises(ValueError):
        phi_diagnostics(YoungPhi(2.0), np.array([1.0, 0.5, 2.0]))


@pytest.mark.parametrize("c", [0.3, 2.0, 17.0])
def test_constant_rescaling_has_bounded_distortion(c):
    # doubling makes Phi(c*t)/Phi(t) bounded above and below over all t
    t = np.logspace(-8, 8, 500)
    for phi in (YoungPhi(2.0, 1.0), YoungPhi(2.0, -1.0), YoungPhi(1.0, 1.0)):
        ratio = phi_eval(phi, c * t) / phi_eval(phi, t)
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
    k = luxemburg_gauge(lambda kk: 4.0 * phi_eval(phi, 5.0 / kk))
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
        return lambda k: float(np.mean(phi_eval(phi, np.abs(w) / k)))

    base = luxemburg_gauge(modular_of(v))
    scaled = luxemburg_gauge(modular_of(c * v))
    assert scaled == pytest.approx(c * base, rel=1e-9)


def test_gauge_infinite_when_never_below_one():
    assert luxemburg_gauge(lambda k: math.inf, max_doublings=30) == math.inf


def test_gauge_bracket_failure():
    with pytest.raises(GaugeBracketError):
        luxemburg_gauge(lambda k: 2.0, max_doublings=30)


def test_gauge_detects_non_monotone_modular():
    def rho(k):
        if k < 1.2:
            return 2.0
        if k < 1.5:
            return 0.5
        return 0.8

    with pytest.raises(NonMonotoneModularError):
        luxemburg_gauge(rho)


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
        return float(np.sum(w * phi_eval(phi, a / k)))

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


def test_gauge_bracket_closes_to_tol():
    # the returned k is the upper end of a sampled bracket of width <= tol * k
    samples = {}

    def rho(k):
        samples[k] = (2.0 / k) ** 3 * math.log(math.e + 2.0 / k)
        return samples[k]

    tol = 1e-8
    k = luxemburg_gauge(rho, tol)
    assert samples[k] <= 1.0
    lo = max(kk for kk, v in samples.items() if v > 1.0)
    assert 0.0 < k - lo <= tol * k


# ---------------------------------------------------------- the built modular


def test_young_modular_matches_direct_sum():
    rng = np.random.default_rng(3)
    rows = rng.uniform(0.0, 5.0, size=(7, 3))
    dens = rng.uniform(0.1, 1.0, size=3)
    flat = rng.uniform(0.0, 2.0, size=11)
    for phi in (YoungPhi(2.0), YoungPhi(1.5, -0.5), YoungPhi(3.0, 1.0)):
        mod = YoungModular(phi, [(rows.copy(), dens), (flat.copy(), 0.25)])
        assert mod.scale == pytest.approx(rows.max())
        for k in (0.3, 1.0, 4.0):
            direct = float(np.sum(dens * phi_eval(phi, rows / k)))
            direct += 0.25 * float(np.sum(phi_eval(phi, flat / k)))
            assert mod.value(k) == pytest.approx(direct, rel=1e-12)
            assert mod(k) == pytest.approx(mod.value(k * mod.scale), rel=1e-12)


def test_young_modular_of_zero_amplitudes():
    mod = YoungModular(YoungPhi(2.0, 1.0), [(np.zeros(4), 1.0)])
    assert mod.scale == 0.0
    assert mod.value(1.0) == 0.0
    with pytest.raises(ValueError):
        mod.value(0.0)
