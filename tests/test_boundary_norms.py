import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetrace import (
    BoundaryFunction,
    EnergyParams,
    YoungPhi,
    double_integral_energy,
    double_integral_energy_mc,
    double_integral_is_exact,
    dyadic_energy,
    dyadic_orlicz_modular,
    generate,
    lp_norm,
    orlicz_besov_norm,
    orlicz_norm,
    split_distances,
)
from treetrace.address import cell_leaves, check_digits, digits_index, level_slice

LN2 = math.log(2.0)


def eparams(theta=0.5, p=2.0, lam=0.0, lambda2=0.0, epsilon=LN2):
    return EnergyParams(theta=theta, p=p, epsilon=epsilon, lam=lam, lambda2=lambda2)


def random_f(K, depth, seed, family="iid-uniform", theta=0.5):
    if family == "clustered":
        # values within 1e-3 of 1: every difference loses three digits
        rng = np.random.default_rng(seed)
        return BoundaryFunction(K, depth, 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, K**depth))
    return generate(family, K=K, depth=depth, seed=seed, epsilon=LN2, theta=theta)


# --------------------------------------------------------------- plain oracles


def naive_cell_average(f, digits):
    """Collect leaves below the cell one by one."""
    leaves = []
    for i in range(f.n_leaves):
        addr = []
        j = i
        for _ in range(f.depth):
            j, d = divmod(j, f.K)
            addr.append(d)
        addr.reverse()
        if tuple(addr[: len(digits)]) == tuple(digits):
            leaves.append(f.values[i])
    return sum(leaves) / len(leaves)


def naive_dyadic_energy(f, params):
    total = 0.0
    for n in range(1, f.depth + 1):
        inner = 0.0
        for i in range(f.K**n):
            digits = []
            j = i
            for _ in range(n):
                j, d = divmod(j, f.K)
                digits.append(d)
            digits.reverse()
            diff = naive_cell_average(f, digits) - naive_cell_average(f, digits[:-1])
            inner += f.K**-n * abs(diff) ** params.p
        total += math.exp(params.epsilon * n * params.theta * params.p) * n**params.lam * inner
    return total


def naive_double_integral(f, params):
    total = 0.0
    L = f.n_leaves
    for a in range(L):
        for b in range(L):
            if a == b:
                continue
            k = 0
            ja, jb = a, b
            da, db = [], []
            for _ in range(f.depth):
                ja, x = divmod(ja, f.K)
                jb, y = divmod(jb, f.K)
                da.append(x)
                db.append(y)
            da.reverse()
            db.reverse()
            while k < f.depth and da[k] == db[k]:
                k += 1
            d = 2.0 / params.epsilon * math.exp(-params.epsilon * k)
            total += (
                L**-2
                * abs(f.values[a] - f.values[b]) ** params.p
                / (d ** (params.theta * params.p) * f.K**-k)
            )
    return total


# ------------------------------------------------------------------- averages


def level_average(f, digits):
    """The entry of `level_averages()` for the cell with the given address."""
    digits = check_digits(f.K, digits, f.depth)
    return f.level_averages()[level_slice(f.K, len(digits))][digits_index(f.K, digits)]


def test_cell_average_constant():
    f = BoundaryFunction(2, 3, np.full(8, 2.5))
    for digits in ((), (0,), (1, 1), (0, 1, 0)):
        assert level_average(f, digits) == pytest.approx(2.5)


def test_cell_average_hand_case():
    f = BoundaryFunction(2, 2, [1.0, 0.0, 0.0, 0.0])
    assert level_average(f, (0,)) == pytest.approx(0.5)
    assert level_average(f, ()) == pytest.approx(0.25)
    assert level_average(f, (0, 0)) == 1.0


def test_cell_average_matches_naive_oracle():
    f = random_f(3, 3, seed=2)
    for digits in ((), (1,), (2, 0), (0, 1, 2)):
        naive = naive_cell_average(f, digits)
        assert level_average(f, digits) == pytest.approx(naive, rel=1e-13)
        block = f.values[cell_leaves(f.K, f.depth, digits)]
        assert block.mean() == pytest.approx(naive, rel=1e-13)


def test_cell_average_parent_is_mean_of_children():
    f = random_f(2, 4, seed=3)
    for digits in ((), (0,), (1, 0), (0, 1, 1)):
        kids = [level_average(f, tuple(digits) + (d,)) for d in range(2)]
        assert level_average(f, digits) == pytest.approx(sum(kids) / 2.0, rel=1e-13)


def test_cell_average_rejects_deep_cell():
    f = BoundaryFunction(2, 2, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        level_average(f, (0, 0, 0))
    with pytest.raises(ValueError):
        cell_leaves(f.K, f.depth, (0, 0, 0))


# ---------------------------------------------------------------------- norms


def test_lp_norm_values():
    f = BoundaryFunction(2, 1, [1.0, 0.0])
    assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert lp_norm(BoundaryFunction(2, 2, [-3.0] * 4), 1.0) == pytest.approx(3.0)


def test_orlicz_norm_agrees_with_lp_for_pure_power():
    f = random_f(2, 4, seed=4)
    for p in (1.0, 2.0):
        assert orlicz_norm(f, YoungPhi(p)) == pytest.approx(lp_norm(f, p), rel=1e-9)
    f1 = BoundaryFunction(2, 1, [1.0, 0.0])
    assert orlicz_norm(f1, YoungPhi(2.0)) == pytest.approx(0.7071067811865476, abs=1e-9)


# -------------------------------------------------------------- dyadic energy


def test_dyadic_energy_hand_value():
    f = BoundaryFunction(2, 2, [1.0, 0.0, 0.0, 0.0])
    assert dyadic_energy(f, eparams()) == pytest.approx(0.625, abs=1e-12)


def test_dyadic_energy_zero_iff_constant():
    f = BoundaryFunction(2, 3, np.full(8, 0.7))
    assert dyadic_energy(f, eparams()) == 0.0
    g = random_f(2, 3, seed=5)
    assert dyadic_energy(g, eparams()) > 0


def test_dyadic_energy_matches_naive_oracle():
    ep = eparams(theta=0.3, p=1.5, lam=0.8)
    for K, depth, seed in ((2, 3, 1), (3, 2, 2)):
        f = random_f(K, depth, seed)
        assert dyadic_energy(f, ep) == pytest.approx(naive_dyadic_energy(f, ep), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.01, max_value=50.0), st.integers(0, 10**6))
def test_dyadic_energy_p_homogeneous(c, seed):
    ep = eparams()
    f = random_f(2, 4, seed)
    scaled = BoundaryFunction(2, 4, c * f.values)
    assert dyadic_energy(scaled, ep) == pytest.approx(
        c**ep.p * dyadic_energy(f, ep), rel=1e-12
    )


# ------------------------------------------------------------- orlicz modular


def test_modular_reduces_to_energy_for_pure_power():
    ep = eparams(theta=0.4, p=2.0, lam=0.9, lambda2=0.9)
    phi = YoungPhi(2.0, 0.0)
    for seed in range(10):
        f = random_f(2, 5, seed)
        assert dyadic_orlicz_modular(f, ep, phi) == pytest.approx(
            dyadic_energy(f, ep), rel=1e-12
        )


def test_modular_hand_value_single_level():
    # depth 1, values (1, 0): jumps +-1/2, scale factor e^eps = 2,
    # level weight e^(eps*(theta-1)*p) = 1/2, so the value is Phi(1)/2
    f = BoundaryFunction(2, 1, [1.0, 0.0])
    ep = eparams(theta=0.5, p=2.0, lambda2=0.0)
    phi = YoungPhi(2.0, 1.0)
    expected = 0.5 * math.log(math.e + 1.0)
    assert dyadic_orlicz_modular(f, ep, phi) == pytest.approx(expected, rel=1e-12)


def test_modular_zero_for_constant():
    f = BoundaryFunction(2, 3, np.full(8, 1.3))
    assert dyadic_orlicz_modular(f, eparams(), YoungPhi(2.0, 1.0)) == 0.0


def test_modular_rejects_mismatched_exponent():
    f = random_f(2, 3, seed=0)
    with pytest.raises(ValueError):
        dyadic_orlicz_modular(f, eparams(p=2.0), YoungPhi(1.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_energy_params_reject_non_finite_epsilon(bad):
    with pytest.raises(ValueError, match="epsilon must be finite"):
        eparams(epsilon=bad)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        eparams(epsilon=-1.0)


@pytest.mark.parametrize("key", ["p", "lam", "lambda2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_energy_params_reject_non_finite_exponents(key, bad):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        eparams(**{key: bad})


def test_dyadic_energy_level_weight_overflow_names_lam():
    # n^lam at n = 2 used to end in an OverflowError from float(n) ** lam
    f = random_f(2, 3, seed=0)
    with pytest.raises(ValueError, match="level-2 weight overflows at lam = 1e[+]308"):
        dyadic_energy(f, eparams(lam=1e308))


def test_dyadic_energy_level_weight_overflow_names_p():
    # e^(eps n theta p) at n = 11, p = 100 overflowed, and the error blamed
    # lam = 0.0
    f = random_f(2, 12, seed=0)
    with pytest.raises(ValueError, match=r"level-11 weight e\^\(eps n theta p\) overflows at p = 100$"):
        dyadic_energy(f, eparams(theta=0.99, p=100.0))


def test_dyadic_energy_level_weight_product_overflow_is_an_error():
    # e^(eps n theta p) = 1.1e298 and n^lam = 2.6e10 are finite at n = 11,
    # but their product is not: dyadic_energy returned inf
    f = random_f(2, 11, seed=0)
    with pytest.raises(ValueError, match="level-11 weight overflows at p = 180 and lam = 10.0"):
        dyadic_energy(f, eparams(theta=0.5, p=180.0, lam=10.0))


def test_orlicz_energy_level_weight_overflow_names_lambda2():
    # n^lambda2 at n = 2 ended in an OverflowError from float(n) ** lam2,
    # which named no key
    f = random_f(2, 3, seed=0)
    with pytest.raises(ValueError, match="level-2 weight overflows at lambda2 = 1e[+]308"):
        dyadic_orlicz_modular(f, eparams(lambda2=1e308), YoungPhi(2.0))
    with pytest.raises(ValueError, match="lambda2"):
        orlicz_besov_norm(f, eparams(lambda2=1e308), YoungPhi(2.0))


# ------------------------------------------------------------ besov gauge norm


def test_besov_norm_constant_function():
    f = BoundaryFunction(2, 3, np.full(8, 2.0))
    phi = YoungPhi(2.0, 1.0)
    assert orlicz_besov_norm(f, eparams(), phi) == pytest.approx(
        orlicz_norm(f, phi), rel=1e-12
    )


def test_besov_norm_pure_power_decomposition():
    ep = eparams(lam=0.0, lambda2=0.0)
    phi = YoungPhi(2.0)
    for seed in range(5):
        f = random_f(2, 5, seed)
        expected = orlicz_norm(f, phi) + dyadic_energy(f, ep) ** 0.5
        assert orlicz_besov_norm(f, ep, phi) == pytest.approx(expected, rel=1e-9)


def test_besov_norm_homogeneous():
    ep = eparams(lambda2=0.5)
    phi = YoungPhi(2.0, 1.0)
    f = random_f(2, 4, seed=9)
    base = orlicz_besov_norm(f, ep, phi)
    for c in (0.05, 7.0):
        scaled = BoundaryFunction(2, 4, c * f.values)
        assert orlicz_besov_norm(scaled, ep, phi) == pytest.approx(c * base, rel=1e-9)


# ------------------------------------------------------- double-integral form


def test_double_integral_hand_value():
    f = BoundaryFunction(2, 1, [1.0, 0.0])
    val = double_integral_energy(f, eparams())
    assert val == pytest.approx(LN2 / 4.0, abs=1e-12)


def test_double_integral_constant_is_zero():
    f = BoundaryFunction(2, 3, np.full(8, 4.2))
    assert double_integral_energy(f, eparams()) == 0.0


def test_double_integral_matches_naive_pair_loop():
    ep = eparams(theta=0.35, p=1.7)
    for K, depth, seed in ((2, 4, 3), (3, 2, 4)):
        f = random_f(K, depth, seed)
        assert double_integral_energy(f, ep) == pytest.approx(
            naive_double_integral(f, ep), rel=1e-12
        )


def test_double_integral_budget_rejection():
    # p = 1.7 has no closed form, so the enumeration budget still applies
    f = random_f(2, 8, seed=0)
    with pytest.raises(ValueError, match="pair"):
        double_integral_energy(f, eparams(theta=0.35, p=1.7), pair_budget=16384)


def test_double_integral_is_exact_predicate():
    assert double_integral_is_exact(2, 20, 1.0, 16384)
    assert double_integral_is_exact(2, 20, 2.0, 16384)
    assert double_integral_is_exact(3, 12, 6.0, 16384)
    assert double_integral_is_exact(2, 20, 100.0, 16384)
    assert double_integral_is_exact(2, 20, 99.0, 16384)
    assert not double_integral_is_exact(2, 20, 101.0, 16384)
    assert not double_integral_is_exact(2, 20, 102.0, 16384)
    assert double_integral_is_exact(2, 7, 1.7, 16384)
    assert not double_integral_is_exact(2, 8, 1.7, 16384)
    assert double_integral_is_exact(2, 8, 3.0, 16384)
    assert not double_integral_is_exact(2, 8, 2.5, 16384)
    assert double_integral_is_exact(2, 8, 2.5, 1 << 16)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
@pytest.mark.parametrize("family", ["iid-uniform", "lacunary", "cell-indicator", "clustered"])
def test_double_integral_closed_forms_match_naive_pair_loop(p, family):
    ep = eparams(p=p)
    for K, depth in ((2, 1), (2, 3), (2, 6), (3, 2), (3, 4)):
        f = random_f(K, depth, seed=K + depth, family=family)
        assert double_integral_energy(f, ep, pair_budget=0) == pytest.approx(
            naive_double_integral(f, ep), rel=1e-12
        )


@pytest.mark.parametrize("p", [8.0, 30.0, 31.0, 99.0, 100.0])
def test_double_integral_closed_form_keeps_its_digits_at_large_p(p):
    # shifting each block by its midrange keeps the alternating power-sum
    # terms from cancelling
    ep = eparams(p=p)
    for family in ("iid-uniform", "lacunary", "clustered"):
        f = random_f(2, 5, seed=2, family=family)
        assert double_integral_energy(f, ep, pair_budget=0) == pytest.approx(
            naive_double_integral(f, ep), rel=1e-12
        )


def test_double_integral_keeps_its_digits_below_the_normal_range():
    # p = 100 on values within 1e-3 of 1: the block pair sums fall below
    # 2.2e-308 and lost digits (1.9e-12 relative) until each level was
    # scaled by a power of two; the oracle sums every pair exactly, with
    # the same float level weights
    K, N, p = 2, 3, 100
    x = 1.0 + 1e-3 * np.random.default_rng(5).uniform(-1.0, 1.0, K**N)
    ep = eparams(p=float(p))
    d = split_distances(ep.epsilon, N)
    want = Fraction(0)
    for a in range(K**N):
        for b in range(K**N):
            if a != b:
                k = next(j for j in range(N) if a // K ** (N - 1 - j) != b // K ** (N - 1 - j))
                weight = float(K) ** (k - 2 * N) / d[k] ** (ep.theta * p)
                want += Fraction(weight) * (Fraction(x[a]) - Fraction(x[b])) ** p
    got = double_integral_energy(BoundaryFunction(K, N, x), ep)
    assert abs(Fraction(got) - want) <= Fraction(1e-14) * want


def test_double_integral_overflow_is_an_error():
    # (2e4)^100 leaves the float range: the sum was NaN
    f = BoundaryFunction(2, 3, 1e4 * np.random.default_rng(5).uniform(-1.0, 1.0, 8))
    with pytest.raises(ValueError, match="the double sum overflows at p = 100"):
        double_integral_energy(f, eparams(p=100.0))


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
def test_double_integral_closed_forms_of_constants_are_zero(K, p):
    for c in (4.2, -1e-3, 1e200):
        f = BoundaryFunction(K, 4, np.full(K**4, c))
        assert double_integral_energy(f, eparams(p=p), pair_budget=0) == 0.0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_double_integral_at_depth_20_in_linear_memory(p):
    K, depth = 2, 20
    f = random_f(K, depth, seed=1)
    if p != 2.0:
        # values 0 and 1, for which |x_a - x_b|^p = (x_a - x_b)^2
        f = BoundaryFunction(K, depth, np.floor(2.0 * f.values))
    ep = eparams(p=p)
    tracemalloc.start()
    try:
        value = double_integral_energy(f, ep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few arrays of K^depth floats, nothing of order K^(2*depth)
    assert peak < 16 * 8 * K**depth
    # oracle: per block, sum_ab (x_a - x_b)^2 = 2m sum x^2 - 2 (sum x)^2
    level_sums = []
    for n in range(depth + 1):
        blocks = f.values.reshape(K**n, -1)
        m = blocks.shape[1]
        level_sums.append(
            float(np.sum(2.0 * m * (blocks**2).sum(axis=1) - 2.0 * blocks.sum(axis=1) ** 2))
        )
    want = 0.0
    for n in range(depth):
        d = 2.0 / ep.epsilon * math.exp(-ep.epsilon * n)
        want += K ** (n - 2 * depth) / d ** (ep.theta * ep.p) * (level_sums[n] - level_sums[n + 1])
    assert value == pytest.approx(want, rel=1e-12)


def test_double_integral_monte_carlo_agrees_beyond_the_enumeration():
    ep = eparams()
    f = random_f(2, 10, seed=4)
    exact = double_integral_energy(f, ep)
    est = double_integral_energy_mc(f, ep, n_samples=200_000, seed=10)
    assert abs(est.value - exact) <= 4.0 * est.stderr


def test_double_integral_monte_carlo_agrees():
    ep = eparams()
    f = random_f(2, 5, seed=11)
    exact = double_integral_energy(f, ep, pair_budget=1 << 20)
    est = double_integral_energy_mc(f, ep, n_samples=100_000, seed=1)
    assert est.stderr > 0
    assert abs(est.value - exact) <= 3.0 * est.stderr
    # deterministic given the seed
    again = double_integral_energy_mc(f, ep, n_samples=100_000, seed=1)
    assert again.value == est.value


def test_double_vs_dyadic_interval_stable_under_refinement():
    # ratio interval estimated on shallow sweeps still holds, doubled, at
    # twice the resolution
    ep = eparams()
    families = ("iid-uniform", "cell-indicator", "lacunary")

    def ratios(depth, budget):
        out = []
        for family in families:
            for seed in range(30):
                f = random_f(2, depth, seed, family=family)
                out.append(
                    double_integral_energy(f, ep, pair_budget=budget)
                    / dyadic_energy(f, ep)
                )
        return np.asarray(out)

    shallow = ratios(4, 1 << 16)
    deep = ratios(8, 1 << 16)
    c1, c2 = shallow.min(), shallow.max()
    assert np.all(deep >= c1 / 2.0)
    assert np.all(deep <= c2 * 2.0)


@pytest.mark.parametrize("lambda1", [-1.0, 1.0])
def test_orlicz_norm_sits_between_nearby_power_norms(lambda1):
    # sampled embedding: the p-delta norm is controlled by the gauge norm,
    # which is controlled by the p+delta norm, uniformly over samples
    phi = YoungPhi(2.0, lambda1)
    delta = 0.5
    low_over_gauge, gauge_over_high = [], []
    for family in ("iid-uniform", "lacunary", "cell-indicator"):
        for seed in range(20):
            f = random_f(2, 5, seed, family=family)
            gauge = orlicz_norm(f, phi)
            low_over_gauge.append(lp_norm(f, 2.0 - delta) / gauge)
            gauge_over_high.append(gauge / lp_norm(f, 2.0 + delta))
    for ratios in (low_over_gauge, gauge_over_high):
        arr = np.asarray(ratios)
        assert np.all(np.isfinite(arr)) and np.all(arr > 0)
        assert arr.max() <= 100.0


# -------------------------------------------------------------- serialization


def test_boundary_function_csv_roundtrip(tmp_path):
    f = random_f(3, 3, seed=6)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    g = BoundaryFunction.from_csv(path)
    assert g.K == f.K and g.depth == f.depth
    assert np.array_equal(g.values, f.values)
    f.to_csv(tmp_path / "f2.csv")
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "f2.csv").read_bytes()


def test_boundary_function_validation():
    with pytest.raises(ValueError):
        BoundaryFunction(2, 2, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        BoundaryFunction(2, 2, [1.0, 2.0, 3.0, math.nan])


@pytest.mark.parametrize("c", [1e-300, 1e-70, 1e70, 1e300])
def test_orlicz_norm_of_constant_far_from_one(c):
    # the gauge of a constant is the constant under t^p, and homogeneous
    # under t^p log(e+t); neither may underflow, overflow or lose the bracket
    f = BoundaryFunction(2, 3, np.full(8, c))
    for p in (1.0, 2.0, 3.0):
        assert orlicz_norm(f, YoungPhi(p)) == pytest.approx(c, rel=1e-9)
    phi = YoungPhi(2.0, 1.0)
    unit = orlicz_norm(BoundaryFunction(2, 3, np.ones(8)), phi)
    assert orlicz_norm(f, phi) == pytest.approx(c * unit, rel=1e-9)
