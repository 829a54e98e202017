"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; plain `pytest` still enforces every assertion.
"""

import math

import numpy as np

from treetrace import (
    BoundaryFunction,
    EnergyParams,
    HajlaszInstance,
    TreeParams,
    YoungPhi,
    ahlfors_ratio,
    double_integral_energy,
    doubling_ratios,
    dyadic_energy,
    dyadic_orlicz_modular,
    edge_measure,
    extend,
    generate,
    hajlasz_feasible,
    hajlasz_minimize,
    hajlasz_oracle,
    luxemburg_gauge,
    orlicz_norm,
    phi_eval,
    sample_ball_centers,
    trace,
)
from treetrace.harness import (
    BOUNDARY_FAMILIES,
    ExperimentConfig,
    fit_two_sided,
    tail_constant,
    verify_extension_bound,
    verify_trace_bound,
)

LN2 = math.log(2.0)


def _criterion(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _mixed_family_seeds(n):
    """n (family, seed) pairs cycling through the boundary families."""
    return [(BOUNDARY_FAMILIES[i % 3], i // 3) for i in range(n)]


def test_criterion_01_roundtrip():
    worst = 0.0
    for family in BOUNDARY_FAMILIES:
        for K in (2, 3):
            for depth in range(2, 9):
                theta = 0.5
                for seed in range(100):
                    u = generate(family, K=K, depth=depth, seed=seed,
                                 epsilon=LN2, theta=theta)
                    v = trace(extend(u))
                    worst = max(worst, float(np.max(np.abs(v.values - u.values))))
    _criterion(1, "trace-extend roundtrip", worst <= 1e-12, f"max error {worst:.3g}")


def test_criterion_02_hand_oracle_values():
    ep = EnergyParams(theta=0.5, p=2.0, epsilon=LN2)
    f22 = BoundaryFunction(2, 2, [1.0, 0.0, 0.0, 0.0])
    ok_energy = abs(dyadic_energy(f22, ep) - 0.625) <= 1e-12

    f21 = BoundaryFunction(2, 1, [1.0, 0.0])
    ok_double = abs(double_integral_energy(f21, ep) - LN2 / 4.0) <= 1e-12

    F = extend(f22)
    # level order: the root, then levels 1 and 2
    ok_ext = np.array_equal(F.values, [0.25, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0])

    inst = HajlaszInstance(f21, 0.5, 1.0, LN2)
    analytic = 0.5 * math.sqrt(LN2 / 2.0)
    ok_lp = abs(hajlasz_minimize(inst).value - analytic) <= 1e-4

    ok = ok_energy and ok_double and ok_ext and ok_lp
    _criterion(
        2,
        "hand-oracle values",
        ok,
        f"energy={ok_energy} double={ok_double} extension={ok_ext} lp={ok_lp}",
    )


def test_criterion_03_pure_power_degeneracy():
    ep = EnergyParams(theta=0.5, p=2.0, epsilon=LN2, lam=0.8, lambda2=0.8)
    phi = YoungPhi(2.0, 0.0)
    worst = 0.0
    for family, seed in _mixed_family_seeds(100):
        f = generate(family, K=2, depth=5, seed=seed, epsilon=LN2, theta=0.5)
        energy = dyadic_energy(f, ep)
        modular = dyadic_orlicz_modular(f, ep, phi)
        worst = max(worst, abs(modular - energy) / energy)
    _criterion(3, "pure-power degeneracy", worst <= 1e-12, f"max rel diff {worst:.3g}")


def test_criterion_04_edge_quadrature():
    worst = 0.0
    for beta in (2 * LN2, 1.3):
        p = TreeParams(2, LN2, beta, 0.0, 12)
        for n in range(11):
            closed = (math.exp(-beta * n) - math.exp(-beta * (n + 1))) / beta
            worst = max(worst, abs(edge_measure(p, n) - closed) / closed)
    _criterion(4, "edge quadrature vs closed form", worst <= 1e-12, f"max rel {worst:.3g}")


def test_criterion_05_ahlfors_constancy():
    worst = 0.0
    for K, epsilon, beta in ((2, LN2, 2 * LN2), (3, 1.0, 2.0)):
        p = TreeParams(K, epsilon, beta, 0.0, 8)
        ratios = []
        for level in range(9):
            for idx in range(K**level):
                digits = []
                j = idx
                for _ in range(level):
                    j, d = divmod(j, K)
                    digits.append(d)
                ratios.append(ahlfors_ratio(p, tuple(reversed(digits))))
        worst = max(worst, max(ratios) / min(ratios) - 1.0)
    _criterion(5, "Ahlfors ratio constancy", worst <= 1e-12, f"max spread {worst:.3g}")


def test_criterion_06_doubling_stability():
    ok = True
    details = []
    for lam in (0.0, 1.0):
        p4 = TreeParams(2, LN2, 2 * LN2, lam, 4)
        p6 = TreeParams(2, LN2, 2 * LN2, lam, 6)
        centers, radii = sample_ball_centers(p4, 1000, seed=42)
        r4 = doubling_ratios(p4, centers, radii)
        r6 = doubling_ratios(p6, centers, radii)
        finite = bool(np.all(np.isfinite(r4)) and np.all(np.isfinite(r6)))
        sup4, sup6 = float(r4.max()), float(r6.max())
        stable = sup6 <= 1.5 * sup4 and sup4 <= 1.5 * sup6
        ok = ok and finite and stable
        details.append(f"lam={lam}: sup {sup4:.3f} vs {sup6:.3f}")
    _criterion(6, "doubling stability", ok, "; ".join(details))


def test_criterion_07_double_vs_dyadic_stability():
    ep = EnergyParams(theta=0.5, p=2.0, epsilon=LN2)
    rows = []
    for depth in (4, 5, 6, 7):
        for family, seed in _mixed_family_seeds(100):
            f = generate(family, K=2, depth=depth, seed=seed, epsilon=LN2, theta=0.5)
            rows.append((depth, double_integral_energy(f, ep) / dyadic_energy(f, ep)))
    depths = np.array([d for d, _ in rows], dtype=float)
    ratios = np.array([r for _, r in rows])
    slope = float(np.polyfit(depths, np.log(ratios), 1)[0])
    spread = float(ratios.max() / ratios.min())
    ok = abs(slope) <= 0.1 and spread <= 100.0 and np.all(np.isfinite(ratios))
    _criterion(
        7,
        "double-integral vs multiscale energy",
        ok,
        f"slope {slope:+.4f}, spread {spread:.3g} over {len(rows)} samples",
    )


def test_criterion_08_trace_and_extension_bounds():
    # the four Young functions, each with the matched smoothness exponent
    configs = [
        ("t^2", dict(p=2.0, lambda1=0.0, beta=2 * LN2)),
        ("t^2 log(e+t)", dict(p=2.0, lambda1=1.0, beta=2 * LN2)),
        ("t^2 / log(e+t)", dict(p=2.0, lambda1=-1.0, beta=2 * LN2)),
        ("t log(e+t)", dict(p=1.0, lambda1=1.0, beta=1.5 * LN2)),
    ]
    ok = True
    details = []
    for label, kw in configs:
        cfg = ExperimentConfig(seeds=tuple(range(6)), depths=(4, 5, 6, 7), **kw)
        rt = verify_trace_bound(cfg)
        re = verify_extension_bound(cfg)
        ok = ok and rt.passed and re.passed
        details.append(f"{label}: trace={rt.passed} ext={re.passed}")
    _criterion(8, "trace/extension bound stability", ok, "; ".join(details))


def test_criterion_09_two_sided_fit():
    theta, p = 0.5, 2.0
    ok = True
    details = []
    for lambda1 in (-1.0, 1.0):
        ep = EnergyParams(theta=theta, p=p, epsilon=LN2, lam=lambda1, lambda2=0.0)
        phi = YoungPhi(p, lambda1)
        lam_for_tail = lambda1 if lambda1 > 0 else 0.0
        c_prime = tail_constant(LN2, theta, p, lam_for_tail)

        def pairs_at(depth):
            out = []
            for family, seed in _mixed_family_seeds(40):
                f = generate(family, K=2, depth=depth, seed=seed,
                             epsilon=LN2, theta=theta)
                out.append((dyadic_energy(f, ep), dyadic_orlicz_modular(f, ep, phi)))
            return out

        fit = fit_two_sided(pairs_at(4), lambda1, c_prime)
        base_ok = all(fit.check(e, m, widen=1.0) for e, m in pairs_at(4))
        deep_ok = all(
            fit.check(e, m, widen=2.0)
            for depth in (5, 6, 7)
            for e, m in pairs_at(depth)
        )
        ok = ok and base_ok and deep_ok
        details.append(f"lambda1={lambda1}: C={fit.C:.3g} base={base_ok} deep={deep_ok}")
    _criterion(9, "two-sided energy fit", ok, "; ".join(details))


def test_criterion_10_hajlasz_solver_vs_oracle():
    res = 16
    ok = True
    worst_gap = 0.0
    for p in (1.0, 2.0):
        for depth in (1, 2):
            for seed in range(20):
                f = generate("iid-uniform", K=2, depth=depth, seed=seed)
                inst = HajlaszInstance(f, 0.5, p, LN2)
                sol = hajlasz_minimize(inst)
                feasible = hajlasz_feasible(inst, sol.g)
                oracle = hajlasz_oracle(inst, res)
                h = inst.g_max / res
                step_bound = len(inst.scales) * (
                    (inst.g_max + h) ** p - inst.g_max**p
                )
                upper = sol.value <= oracle + 1e-6 * (1.0 + oracle)
                lower = sol.value >= oracle - 2.0 * step_bound
                worst_gap = max(worst_gap, abs(sol.value - oracle))
                ok = ok and feasible and upper and lower
    _criterion(10, "gradient solver vs grid oracle", ok, f"max |gap| {worst_gap:.3g}")


def test_criterion_11_gauge_correctness():
    ok = True
    worst = 0.0
    # analytic crossings
    for c in (0.25, 3.0, 50.0):
        for p in (1.0, 2.0, 3.0):
            k = luxemburg_gauge(lambda kk: (c / kk) ** p)
            worst = max(worst, abs((c / k) ** p - 1.0))
    phi = YoungPhi(2.0)
    k = luxemburg_gauge(lambda kk: 4.0 * phi_eval(phi, 5.0 / kk))
    worst = max(worst, abs(4.0 * phi_eval(phi, 5.0 / k) - 1.0))
    k = luxemburg_gauge(lambda kk: math.exp(5.0 - kk))
    worst = max(worst, abs(math.exp(5.0 - k) - 1.0))
    ok = ok and worst <= 1e-9
    # gauge homogeneity on random inputs
    worst_hom = 0.0
    phi = YoungPhi(2.0, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = BoundaryFunction(2, 4, rng.uniform(0.01, 1.0, size=16))
        c = float(rng.uniform(0.1, 10.0))
        base = orlicz_norm(f, phi)
        scaled = orlicz_norm(BoundaryFunction(2, 4, c * f.values), phi)
        worst_hom = max(worst_hom, abs(scaled - c * base) / (c * base))
    ok = ok and worst_hom <= 1e-9
    _criterion(
        11,
        "Luxemburg gauge correctness",
        ok,
        f"max |rho-1| {worst:.3g}, max homogeneity defect {worst_hom:.3g}",
    )
