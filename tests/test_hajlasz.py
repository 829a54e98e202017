import math

import numpy as np
import pytest

from treetrace import (
    BoundaryFunction,
    ConvergenceError,
    EnergyParams,
    HajlaszInstance,
    SolverConfig,
    dyadic_energy,
    generate,
    hajlasz_energy,
    hajlasz_feasible,
    hajlasz_minimize,
    hajlasz_oracle,
    scale_for_distance,
)
from treetrace.hajlasz import _solve_scale_dual, _solve_scale_ipm
from treetrace.harness import fit_log_slope

LN2 = math.log(2.0)


def two_leaf_instance(p=1.0):
    return HajlaszInstance(BoundaryFunction(2, 1, [1.0, 0.0]), 0.5, p, LN2)


def random_instance(seed, depth=2, p=2.0, K=2):
    f = generate("iid-uniform", K=K, depth=depth, seed=seed)
    return HajlaszInstance(f, 0.5, p, LN2)


# ------------------------------------------------------------------- scaling


def test_scale_for_distance_annulus_contract():
    for d in (2.885, 1.4427, 0.51, 0.5, 0.25, 1.0, 3.9, 1e-5):
        k = scale_for_distance(d)
        assert 2.0 ** (-k - 1) <= d < 2.0**-k
    with pytest.raises(ValueError):
        scale_for_distance(0.0)


def test_instance_scales_cover_every_pair():
    inst = random_instance(0, depth=4)
    # every split level maps to exactly one scale
    assert len(inst.scale_of_level) == 4
    assert set(inst.constraints) <= set(inst.scales)
    n_pairs = sum(len(c[0]) for c in inst.constraints.values())
    assert n_pairs <= 16 * 15 // 2


def test_instance_rejects_bad_exponents():
    f = BoundaryFunction(2, 1, [1.0, 0.0])
    with pytest.raises(ValueError):
        HajlaszInstance(f, 0.0, 1.0, LN2)
    with pytest.raises(ValueError):
        HajlaszInstance(f, 0.5, 0.5, LN2)


# ---------------------------------------------------------------- feasibility


def test_feasible_constant_function_zero_gradients():
    f = BoundaryFunction(2, 2, np.full(4, 3.0))
    inst = HajlaszInstance(f, 0.5, 2.0, LN2)
    g = {k: np.zeros(4) for k in inst.scales}
    assert hajlasz_feasible(inst, g)


def test_feasible_single_constraint_equality():
    inst = two_leaf_instance()
    d = 2.0 / LN2
    k = inst.scales[0]
    g = {k: np.full(2, 0.5 * d**-0.5)}
    assert hajlasz_feasible(inst, g)
    assert not hajlasz_feasible(inst, {k: np.zeros(2)})


def test_feasible_rejects_negative_gradient():
    inst = two_leaf_instance()
    with pytest.raises(ValueError):
        hajlasz_feasible(inst, {inst.scales[0]: np.array([-0.1, 1.0])})


# --------------------------------------------------------------------- solver


def test_energy_constant_function_is_zero():
    f = BoundaryFunction(2, 2, np.full(4, 1.0))
    inst = HajlaszInstance(f, 0.5, 2.0, LN2)
    assert hajlasz_energy(inst) == 0.0


def test_energy_lp_analytic_value():
    # single constraint g_a + g_b >= d^(-1/2); mean objective minimized at
    # any split, value d^(-1/2) / 2
    inst = two_leaf_instance(p=1.0)
    expected = 0.5 * math.sqrt(LN2 / 2.0)
    assert expected == pytest.approx(0.29435250562886867, abs=1e-12)
    assert hajlasz_energy(inst) == pytest.approx(expected, abs=1e-9)


def test_energy_p2_analytic_value():
    # symmetric optimum g = c/2 each: objective 2 * (1/2) * (c/2)^2 = c^2/4
    inst = two_leaf_instance(p=2.0)
    c = math.sqrt(LN2 / 2.0)
    assert hajlasz_energy(inst) == pytest.approx(c**2 / 4.0, rel=1e-6)


def test_solution_feasible_and_symmetric():
    inst = random_instance(3)
    sol = hajlasz_minimize(inst)
    assert sol.converged
    assert hajlasz_feasible(inst, sol.g)
    # permuting the two root subtrees leaves the optimum unchanged
    f = inst.f
    swapped = BoundaryFunction(2, 2, np.concatenate([f.values[2:], f.values[:2]]))
    inst2 = HajlaszInstance(swapped, 0.5, 2.0, LN2)
    assert hajlasz_energy(inst2) == pytest.approx(hajlasz_energy(inst), rel=1e-6)


def test_solver_reports_nonconvergence():
    inst = random_instance(1)
    with pytest.raises(ConvergenceError):
        hajlasz_minimize(inst, SolverConfig(max_iters=120, rel_tol=0.0))


# --------------------------------------------------------------------- oracle


def test_oracle_analytic_instance():
    inst = two_leaf_instance(p=1.0)
    res = 64
    val = hajlasz_oracle(inst, res)
    spacing = inst.g_max / res
    assert abs(val - 0.29435250562886867) <= spacing


def test_oracle_monotone_refinement():
    inst = random_instance(5, depth=1)
    v1 = hajlasz_oracle(inst, 8)
    v2 = hajlasz_oracle(inst, 16)
    v3 = hajlasz_oracle(inst, 32)
    assert v2 <= v1 + 1e-15
    assert v3 <= v2 + 1e-15


def test_oracle_constant_function():
    f = BoundaryFunction(2, 1, np.ones(2))
    inst = HajlaszInstance(f, 0.5, 1.0, LN2)
    assert hajlasz_oracle(inst, 4) == 0.0


def test_oracle_rejects_large_instances():
    with pytest.raises(ValueError):
        hajlasz_oracle(random_instance(0, depth=4), 4)


def _objective_step_bound(inst, resolution):
    """Upper bound for the objective increase when every coordinate of the
    true minimizer is rounded up to the next grid point."""
    h = inst.g_max / resolution
    return len(inst.scales) * ((inst.g_max + h) ** inst.p - inst.g_max**inst.p)


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("depth", [1, 2])
def test_solver_within_oracle_bracket(p, depth):
    res = 16
    for seed in range(6):
        inst = random_instance(seed, depth=depth, p=p)
        energy = hajlasz_energy(inst)
        oracle = hajlasz_oracle(inst, res)
        # the oracle is an upper bound; rounding the minimizer up to the
        # grid costs at most the step bound
        assert energy <= oracle + 1e-6 * (1.0 + oracle)
        assert energy >= oracle - 2.0 * _objective_step_bound(inst, res)


def test_p3_two_leaves_closed_form():
    # one pair: the optimum splits the bound evenly, g = bound / 2
    inst = random_instance(0, depth=1, p=3.0)
    (k, (_, _, bound)), = inst.constraints.items()
    sol = hajlasz_minimize(inst)
    assert sol.converged
    np.testing.assert_allclose(sol.g[k], np.full(2, bound[0] / 2.0), rtol=1e-8)
    assert sol.value == pytest.approx(0.5 * 2.0 * (bound[0] / 2.0) ** 3, rel=1e-8)


def test_p12_instance_that_dual_ascent_could_not_certify():
    inst = random_instance(1, depth=2, p=1.2)
    sol = hajlasz_minimize(inst)
    assert sol.converged and hajlasz_feasible(inst, sol.g)
    oracle = hajlasz_oracle(inst, 16)
    assert oracle - 2.0 * _objective_step_bound(inst, 16) <= sol.value
    assert sol.value <= oracle + 1e-6 * (1.0 + oracle)


@pytest.mark.parametrize("p, seed, depth", [(1.001, 2, 5), (1.001, 1, 8), (6.0, 2, 5)])
def test_interior_point_converges_at_extreme_exponents(p, seed, depth):
    # near p = 1 the dual bound and the Lagrangian minimizer overflow far
    # from the optimum; the bound must read -inf there and the minimizer
    # be skipped, not warn or stop the solver
    inst = random_instance(seed, depth=depth, p=p)
    sol = hajlasz_minimize(inst)
    assert sol.converged and hajlasz_feasible(inst, sol.g)


def test_interior_point_is_homogeneous():
    inst = random_instance(4, depth=4, p=1.5)
    scaled = HajlaszInstance(
        BoundaryFunction(2, 4, 1e-80 * inst.f.values), 0.5, 1.5, LN2
    )
    a, b = hajlasz_minimize(inst), hajlasz_minimize(scaled)
    for k in a.g:
        np.testing.assert_allclose(b.g[k], 1e-80 * a.g[k], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("K, depth", [(2, 1), (2, 3), (2, 6), (3, 3)])
def test_interior_point_matches_dual_ascent_at_p2(K, depth):
    # both methods certify rel_tol, so their values differ by at most twice it
    cfg = SolverConfig()
    for seed in range(3):
        inst = random_instance(seed, depth=depth, p=2.0, K=K)
        nu, n = inst.leaf_measure, inst.f.n_leaves
        for k, (ia, ib, bound) in inst.constraints.items():
            block = K ** (depth - inst.coarsest_level[k])
            g_ip, rep = _solve_scale_ipm(nu, 2.0, ia, ib, bound, n, block, cfg)
            g_da, _ = _solve_scale_dual(nu, 2.0, ia, ib, bound, n, cfg)
            v_ip, v_da = nu * np.sum(g_ip**2), nu * np.sum(g_da**2)
            assert rep.method == "interior-point" and rep.converged
            assert abs(v_ip - v_da) <= 2.0 * cfg.rel_tol * max(v_ip, v_da)


def test_coarsest_level_bounds_every_pair():
    inst = random_instance(0, depth=4, K=3)
    N = inst.f.depth
    for k, (ia, ib, _) in inst.constraints.items():
        block = 3 ** (N - inst.coarsest_level[k])
        assert np.array_equal(ia // block, ib // block)
        if inst.coarsest_level[k] > 0:
            assert inst.scale_of_level[inst.coarsest_level[k] - 1] != k


@pytest.mark.parametrize(
    "p, method", [(1.0, "lp"), (2.0, "dual-ascent"), (1.5, "interior-point")]
)
def test_solution_reports_each_block(p, method):
    inst = random_instance(0, depth=3, p=p)
    sol = hajlasz_minimize(inst)
    assert set(sol.blocks) == set(inst.constraints)
    assert sol.method == method
    assert all(b.method == method and b.converged for b in sol.blocks.values())
    assert sol.iterations == sum(b.iterations for b in sol.blocks.values()) > 0
    assert all(b.rel_gap <= SolverConfig().rel_tol for b in sol.blocks.values())
    assert sol.converged


# -------------------------------------------------------------- comparability


def test_hajlasz_tracks_dyadic_energy_over_depths():
    ratios, depths = [], []
    for depth in (3, 4, 5):
        ep = EnergyParams(theta=0.5, p=2.0, epsilon=LN2)
        for seed in range(5):
            f = generate("iid-uniform", K=2, depth=depth, seed=seed)
            inst = HajlaszInstance(f, 0.5, 2.0, LN2)
            ratios.append(hajlasz_energy(inst) / dyadic_energy(f, ep))
            depths.append(depth)
    ratios = np.asarray(ratios)
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
    assert ratios.max() / ratios.min() < 100.0
    assert abs(fit_log_slope(depths, ratios)) < 0.15
