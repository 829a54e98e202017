import hashlib
import math
import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

import treetrace.hajlasz as hajlasz
from treetrace import (
    BlockReport,
    BoundaryFunction,
    ConvergenceError,
    EnergyParams,
    HajlaszInstance,
    dyadic_energy,
    generate,
    hajlasz_feasible,
    hajlasz_minimize,
    hajlasz_minimize_all,
    hajlasz_oracle,
    scale_for_distance,
)
from treetrace.hajlasz import _Block, _blocks, _dual_point, _repair, _solve_scale_ipm
from treetrace.harness import ExperimentConfig, fit_log_slope, generate_for

LN2 = math.log(2.0)


def two_leaf_instance(p=1.0):
    return HajlaszInstance(BoundaryFunction(2, 1, [1.0, 0.0]), 0.5, p, LN2)


def random_instance(seed, depth=2, p=2.0, K=2):
    f = generate("iid-uniform", K=K, depth=depth, seed=seed)
    return HajlaszInstance(f, 0.5, p, LN2)


def _pairs(inst):
    """Each constrained scale's kept pairs (ia, ib) and their bounds, back in
    the raw unit, as its block builds them."""
    return {blk.k: (blk.ia, blk.ib, np.ldexp(blk.bound, blk.e)) for blk in _blocks(inst)}


def _reference_pairs(inst):
    """The leaf pairs a < b of nonzero bound |f_a - f_b| / d_j^theta by the
    scale of their split level j, the deepest level with a vertex above
    both, as (a, b, bound) sorted by (a, b): from the definition, pair by
    pair."""
    K, N, x = inst.f.K, inst.f.depth, inst.f.values
    pairs = {}
    for a in range(inst.f.n_leaves):
        for b in range(a + 1, inst.f.n_leaves):
            j = max(j for j in range(N) if a // K ** (N - j) == b // K ** (N - j))
            bound = abs(x[a] - x[b]) / float(inst.split_distances[j]) ** inst.theta
            if bound > 0:
                pairs.setdefault(inst.scale_of_level[j], []).append((a, b, bound))
    return {k: tuple(map(np.array, zip(*rows))) for k, rows in pairs.items()}


def _box_edge(inst):
    """The grid oracle's search-box edge, max |f_a - f_b| * max d^(-theta)."""
    spread = float(inst.f.values.max() - inst.f.values.min())
    return spread * float(inst.split_distances.min()) ** -inst.theta


# ------------------------------------------------------------------- scaling


def test_scale_for_distance_annulus_contract():
    # every power of two of the double range and its two neighbours: 2^1023
    # and up raised OverflowError from 2.0**-k
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    near = [math.nextafter(x, to) for x in powers for to in (0.0, math.inf)]
    extra = [2.885, 1.4427, 0.51, 0.25, 3.9, 1e-5, sys.float_info.max]
    for d in powers + [x for x in near if 0.0 < x < math.inf] + extra:
        k = scale_for_distance(d)
        assert math.ldexp(1.0, -k - 1) <= d, d
        # 2^1024 is beyond the double range: k = -1024 says only d >= 2^1023
        assert k == -1024 or d < math.ldexp(1.0, -k), d
    assert scale_for_distance(math.ldexp(1.0, 1023)) == -1024
    assert scale_for_distance(sys.float_info.max) == -1024
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="distance must be finite and positive"):
            scale_for_distance(bad)


def test_instance_scales_cover_every_pair():
    # every split level maps to exactly one scale, and the blocks' kept
    # pairs are the leaf pairs of nonzero bound, each once, at the scale of
    # its split level and with its bound
    kept = []
    for K, depth, family, epsilon in [
        (2, 4, "iid-uniform", LN2), (3, 3, "cell-indicator", 0.3), (2, 5, "lacunary", 0.3)
    ]:
        f = generate(family, K=K, depth=depth, seed=0, epsilon=epsilon, theta=0.5)
        inst = HajlaszInstance(f, 0.5, 2.0, epsilon)
        assert len(inst.scale_of_level) == depth
        reference, blocks = _reference_pairs(inst), _pairs(inst)
        assert list(blocks) == sorted(reference) and set(blocks) <= set(inst.scales)
        for k, (ia, ib, bound) in blocks.items():
            order = np.lexsort((ib, ia))
            for got, want in zip((ia[order], ib[order], bound[order]), reference[k]):
                assert np.array_equal(got, want), k
        kept.append(sum(ia.size for ia, _, _ in blocks.values()) / hajlasz.leaf_pairs(K, depth))
    # all pairs of the iid-uniform function, some of the others
    assert kept[0] == 1.0 and max(kept[1:]) < 1.0


def test_an_instance_holds_no_pairs():
    # it held every scale's kept pairs as index triples, 3.0 MB here
    f = generate("iid-uniform", K=2, depth=9, seed=0)
    tracemalloc.start()
    try:
        inst = HajlaszInstance(f, 0.5, 2.0, LN2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.scales and held < peak < 64 * 2**10


def test_instance_rejects_bad_exponents():
    f = BoundaryFunction(2, 1, [1.0, 0.0])
    with pytest.raises(ValueError):
        HajlaszInstance(f, 0.0, 1.0, LN2)
    with pytest.raises(ValueError):
        HajlaszInstance(f, 0.5, 0.5, LN2)


@pytest.mark.parametrize(
    "p, epsilon, bad",
    # p = nan or inf solved, then raised "its Newton system is not finite
    # after 0 steps"; epsilon = inf warned in split_distances, then named an
    # underflow; epsilon = nan said "distance must be finite and positive"
    [(math.nan, LN2, "p"), (math.inf, LN2, "p"), (2.0, math.nan, "epsilon"),
     (2.0, math.inf, "epsilon")],
)
def test_instance_rejects_non_finite_exponents(p, epsilon, bad):
    f = generate("iid-uniform", K=2, depth=3, seed=0)
    value, least = {"p": (p, "at least 1"), "epsilon": (epsilon, "positive")}[bad]
    with pytest.raises(ValueError, match=f"^{bad} must be finite and {least}, got {value!r}$"):
        HajlaszInstance(f, 0.5, p, epsilon)


def test_instance_names_the_split_distance_below_the_float_range():
    # at epsilon = 100 the level-8 distance underflows to 0; the instance
    # said "distance must be finite and positive, got 0.0"
    HajlaszInstance(generate("iid-uniform", K=2, depth=8, seed=0), 0.5, 2.0, 100.0)
    f = generate("iid-uniform", K=2, depth=9, seed=0)
    message = "the level-8 split distance (2/eps) e^(-eps n) underflows at epsilon = 100"
    with pytest.raises(ValueError, match=re.escape(message)):
        HajlaszInstance(f, 0.5, 2.0, 100.0)


def test_leaf_pairs_counts_unordered_pairs_and_the_cap_admits_its_depths():
    assert hajlasz.leaf_pairs(2, 4) == 16 * 15 // 2 == 120
    assert hajlasz.leaf_pairs(3, 1) == 3
    # the deepest depth the default cap admits at K = 2, 3, 5 and 8
    for K, depth in [(2, 10), (3, 6), (5, 4), (8, 3)]:
        assert hajlasz.leaf_pairs(K, depth) <= hajlasz.PAIR_CAP < hajlasz.leaf_pairs(K, depth + 1)


def test_instance_over_the_pair_cap_is_refused_before_it_allocates(monkeypatch):
    # the cap is read at call time; K = 2, depth 4 has 120 pairs
    monkeypatch.setattr(hajlasz, "PAIR_CAP", 100)
    HajlaszInstance(generate("iid-uniform", K=2, depth=3, seed=0), 0.5, 2.0, LN2)
    f = generate("iid-uniform", K=2, depth=4, seed=0)
    message = "the Hajlasz program at K = 2, depth 4 has 120 leaf pairs, above the cap of 100"
    with pytest.raises(ValueError, match=message):
        HajlaszInstance(f, 0.5, 2.0, LN2)


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
    # a constrained scale missing from g violates its constraints
    assert not hajlasz_feasible(inst, {k + 1: g[k]})


def test_feasible_rejects_negative_gradient():
    inst = two_leaf_instance()
    with pytest.raises(ValueError):
        hajlasz_feasible(inst, {inst.scales[0]: np.array([-0.1, 1.0])})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_feasible_rejects_non_finite_gradient(bad):
    # an all-NaN system was feasible: every comparison with NaN is False
    inst = random_instance(0, depth=3)
    for k in inst.scales:
        g = {j: np.full(8, bad if j == k else 1e3) for j in inst.scales}
        with pytest.raises(ValueError, match="gradient arrays must be finite"):
            hajlasz_feasible(inst, g)


# --------------------------------------------------------------------- solver


def test_energy_constant_function_is_zero():
    f = BoundaryFunction(2, 2, np.full(4, 1.0))
    inst = HajlaszInstance(f, 0.5, 2.0, LN2)
    assert hajlasz_minimize(inst).value == 0.0


def test_energy_lp_analytic_value():
    # single constraint g_a + g_b >= d^(-1/2); mean objective minimized at
    # any split, value d^(-1/2) / 2
    inst = two_leaf_instance(p=1.0)
    expected = 0.5 * math.sqrt(LN2 / 2.0)
    assert expected == pytest.approx(0.29435250562886867, abs=1e-12)
    assert hajlasz_minimize(inst).value == pytest.approx(expected, abs=1e-9)


def test_energy_p2_analytic_value():
    # symmetric optimum g = c/2 each: objective 2 * (1/2) * (c/2)^2 = c^2/4
    inst = two_leaf_instance(p=2.0)
    c = math.sqrt(LN2 / 2.0)
    assert hajlasz_minimize(inst).value == pytest.approx(c**2 / 4.0, rel=1e-6)


def _scaled(c):
    """The iid-uniform seed 0 function at K = 2, depth 3, times c."""
    return BoundaryFunction(2, 3, c * generate("iid-uniform", K=2, depth=3, seed=0).values)


def test_dual_ascent_certifies_near_the_bottom_of_the_normal_range():
    # on the raw bounds the dual ascent reported gaps up to 6.1e-7 here,
    # and its value was 1.7e-7 off 2^-1000 times the unscaled one
    sol, at_one = (
        hajlasz_minimize(HajlaszInstance(_scaled(c), 0.5, 2.0, LN2)) for c in (2.0**-500, 1.0)
    )
    assert all(b.rel_gap <= hajlasz._REL_TOL for b in sol.blocks.values())
    assert sol.blocks == at_one.blocks
    assert sol.value == math.ldexp(at_one.value, -1000)


@pytest.mark.parametrize(
    "f, p, way",
    [
        # the start value of the raw dual ascent underflowed to 0, and its
        # first gap check divided by it
        (BoundaryFunction(2, 1, [1e-170, 0.0]), 2.0, "underflows"),
        # these returned a subnormal 6.3e-322 with gaps of 2-3%, 0.0, and
        # inf with an overflow warning
        (_scaled(1e-160), 2.0, "underflows"),
        (_scaled(2.0**-400), 3.0, "underflows"),
        (_scaled(2.0**400), 3.0, "overflows"),
    ],
    ids=["1e-170-at-depth-1", "1e-160", "2^-400-at-p3", "2^400-at-p3"],
)
def test_a_value_outside_the_normal_range_is_refused(f, p, way):
    message = rf"the Hajlasz value {way} at p = {p:g} of \(K=2, depth {f.depth}\)$"
    with pytest.raises(ValueError, match=message):
        hajlasz_minimize(HajlaszInstance(f, 0.5, p, LN2))


def test_solution_feasible_and_symmetric():
    inst = random_instance(3)
    sol = hajlasz_minimize(inst)
    assert hajlasz_feasible(inst, sol.g)
    # permuting the two root subtrees leaves the optimum unchanged
    f = inst.f
    swapped = BoundaryFunction(2, 2, np.concatenate([f.values[2:], f.values[:2]]))
    inst2 = HajlaszInstance(swapped, 0.5, 2.0, LN2)
    assert hajlasz_minimize(inst2).value == pytest.approx(hajlasz_minimize(inst).value, rel=1e-6)


def test_solver_reports_nonconvergence(monkeypatch):
    inst = random_instance(1)
    monkeypatch.setattr(hajlasz, "_MAX_ITERS", 120)
    monkeypatch.setattr(hajlasz, "_REL_TOL", 0.0)
    with pytest.raises(ConvergenceError):
        hajlasz_minimize(inst)


# --------------------------------------------------------------------- oracle


def test_oracle_analytic_instance():
    inst = two_leaf_instance(p=1.0)
    res = 64
    val = hajlasz_oracle(inst, res)
    spacing = _box_edge(inst) / res
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


def _one_chunk_oracle(inst, resolution):
    """The grid search over each scale's whole grid at once, built by
    meshgrid: the oracle's points in the oracle's order."""
    h = _box_edge(inst) / resolution
    total = 0.0
    for blk in _blocks(inst):
        la, lb, bound = *blk.local, np.ldexp(blk.bound, blk.e)
        axes = [np.arange(resolution + 1)] * blk.active.size
        G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes)) * h
        feas = np.all(G[:, la] + G[:, lb] >= bound[None, :] - 1e-12, axis=1)
        total += float((inst.f.leaf_measure * np.sum(G[feas] ** inst.p, axis=1)).min())
    return total


@pytest.mark.parametrize("K, depth, resolution", [(2, 2, 16), (3, 1, 32)])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_oracle_value_is_that_of_one_chunk(K, depth, resolution, p):
    # 17^4 and 33^3 points: the oracle takes each grid in several chunks
    for seed in range(3):
        inst = random_instance(seed, depth=depth, p=p, K=K)
        assert (resolution + 1) ** inst.f.n_leaves > hajlasz._ORACLE_CHUNK
        assert hajlasz_oracle(inst, resolution) == _one_chunk_oracle(inst, resolution)


def test_oracle_memory_does_not_grow_with_the_grid():
    # 5^8 points per scale; in chunks of 10^6 points it peaked at 170 MB
    inst = random_instance(0, depth=3)
    tracemalloc.start()
    try:
        hajlasz_oracle(inst, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def _objective_step_bound(inst, resolution):
    """Upper bound for the objective increase when every coordinate of the
    true minimizer is rounded up to the next grid point."""
    g_max = _box_edge(inst)
    h = g_max / resolution
    return len(inst.scales) * ((g_max + h) ** inst.p - g_max**inst.p)


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("depth", [1, 2])
def test_solver_within_oracle_bracket(p, depth):
    res = 16
    for seed in range(6):
        inst = random_instance(seed, depth=depth, p=p)
        energy = hajlasz_minimize(inst).value
        oracle = hajlasz_oracle(inst, res)
        # the oracle is an upper bound; rounding the minimizer up to the
        # grid costs at most the step bound
        assert energy <= oracle + 1e-6 * (1.0 + oracle)
        assert energy >= oracle - 2.0 * _objective_step_bound(inst, res)


def test_p3_two_leaves_closed_form():
    # one pair: the optimum splits the bound evenly, g = bound / 2
    inst = random_instance(0, depth=1, p=3.0)
    (k, (_, _, bound)), = _pairs(inst).items()
    sol = hajlasz_minimize(inst)
    np.testing.assert_allclose(sol.g[k], np.full(2, bound[0] / 2.0), rtol=1e-8)
    assert sol.value == pytest.approx(0.5 * 2.0 * (bound[0] / 2.0) ** 3, rel=1e-8)


def test_p12_instance_that_dual_ascent_could_not_certify():
    inst = random_instance(1, depth=2, p=1.2)
    sol = hajlasz_minimize(inst)
    assert hajlasz_feasible(inst, sol.g)
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
    assert hajlasz_feasible(inst, sol.g)


@pytest.mark.parametrize("p", [1.5, 3.0, 6.0, 8.0])
def test_interior_point_two_leaves_closed_form(p):
    # one pair: the optimum splits the bound evenly, value 2 nu (bound/2)^p;
    # at p >= 6 the constraint slack left by the Newton iterates used to
    # put the value 1.1e-9 above it
    for seed in range(4):
        inst = random_instance(seed, depth=1, p=p)
        (k, (ia, ib, bound)), = _pairs(inst).items()
        sol = hajlasz_minimize(inst)
        closed = 2.0 * inst.f.leaf_measure * (bound[0] / 2.0) ** p
        assert sol.method == "interior-point"
        assert np.all(sol.g[k][ia] + sol.g[k][ib] >= bound)
        assert abs(sol.value - closed) <= 1e-12 * closed


def test_interior_point_is_homogeneous():
    inst = random_instance(4, depth=4, p=1.5)
    scaled = HajlaszInstance(
        BoundaryFunction(2, 4, 1e-80 * inst.f.values), 0.5, 1.5, LN2
    )
    a, b = hajlasz_minimize(inst), hajlasz_minimize(scaled)
    for k in a.g:
        np.testing.assert_allclose(b.g[k], 1e-80 * a.g[k], rtol=1e-12, atol=0.0)


def _assert_within_gap(a, b, what):
    """Two values that each certify _REL_TOL agree within twice it."""
    assert abs(a - b) <= 2.0 * hajlasz._REL_TOL * max(a, b), what


def _assert_matches_ipm(inst, g):
    """The p = 2 gradient arrays g give, block by block, the value of the
    interior-point method within twice _REL_TOL: both certify _REL_TOL."""
    nu = inst.f.leaf_measure
    for blk in _blocks(inst):
        g_ip, rep = _solve_scale_ipm(blk)
        g_ip = np.ldexp(g_ip, blk.e)
        assert rep.rel_gap <= hajlasz._REL_TOL
        _assert_within_gap(nu * np.sum(g_ip**2), nu * np.sum(g[blk.k] ** 2), blk.k)


@pytest.mark.parametrize("K, depth", [(2, 1), (2, 3), (2, 6), (3, 3)])
def test_interior_point_matches_dual_ascent_at_p2(K, depth):
    for seed in range(3):
        inst = random_instance(seed, depth=depth, p=2.0, K=K)
        _assert_matches_ipm(inst, hajlasz_minimize(inst).g)


@pytest.mark.parametrize(
    "p, scale, failure",
    [
        # an overflowing mu / s: all 100,000 steps ran before the error
        (32.0, -2, "Newton system is not finite"),
        # numpy's LinAlgError, which the CLI printed as "Singular matrix"
        (64.0, -1, "Newton matrix is singular"),
    ],
)
def test_interior_point_stops_at_its_first_failed_newton_step(p, scale, failure):
    f = generate("iid-uniform", K=2, depth=3, seed=0)
    with pytest.raises(ConvergenceError) as info:
        hajlasz_minimize(HajlaszInstance(f, 0.5, p, LN2))
    match = re.fullmatch(
        f"interior-point method at p = {p:g} did not certify the optimum of instance 0"
        rf" \(K=2, depth 3\) scale {scale}: its {failure} after (\d+) steps",
        str(info.value),
    )
    assert match and int(match[1]) < 2000


def test_interior_point_iteration_cap_names_the_block_and_its_gap(monkeypatch):
    monkeypatch.setattr(hajlasz, "_MAX_ITERS", 3)
    with pytest.raises(ConvergenceError) as info:
        hajlasz_minimize(random_instance(0, depth=3, p=3.0))
    assert str(info.value) == (
        "interior-point method at p = 3 did not certify the optimum of instance 0"
        " (K=2, depth 3) scale -2: relative gap 0.465 after 3 iterations"
    )


def test_coarsest_level_bounds_every_pair():
    inst = random_instance(0, depth=4, K=3)
    N = inst.f.depth
    for blk in _blocks(inst):
        assert blk.levels == [j for j in range(N) if inst.scale_of_level[j] == blk.k]
        assert blk.size == 3 ** (N - blk.levels[0])
        assert np.array_equal(blk.ia // blk.size, blk.ib // blk.size)
        if blk.levels[0] > 0:
            assert inst.scale_of_level[blk.levels[0] - 1] != blk.k


@pytest.mark.parametrize("p, depth", [(2.0, 8), (1.5, 6)])
def test_a_solve_bounds_each_split_level_once(monkeypatch, p, depth):
    # the instance enumerated the pairs of every level, then a dense dual
    # block computed the bounds of its levels again
    inst, calls = random_instance(0, depth=depth, p=p), []
    split_bounds = hajlasz._split_bounds

    def counted(*args, **kwargs):
        calls.append(args[1])
        return split_bounds(*args, **kwargs)

    monkeypatch.setattr(hajlasz, "_split_bounds", counted)
    hajlasz_minimize(inst)
    assert sorted(calls) == list(range(depth))


@pytest.mark.parametrize(
    "p, method", [(1.0, "interior-point"), (2.0, "dual-ascent"), (1.5, "interior-point")]
)
def test_solution_reports_each_block(p, method):
    inst = random_instance(0, depth=3, p=p)
    sol = hajlasz_minimize(inst)
    assert list(sol.blocks) == list(_pairs(inst)) != []
    assert sol.method == method
    assert sol.iterations == sum(b.iterations for b in sol.blocks.values()) > 0
    assert all(b.rel_gap <= hajlasz._REL_TOL for b in sol.blocks.values())


# ---------------------------------------- p = 2 against its per-block form


def _per_block_dual_ascent(nu, p, ia, ib, bound, n_leaves):
    """Reference p = 2 solver: accelerated projected dual ascent on one
    scale block, each leaf's multiplier mass summed over its first-index
    pairs and its second-index pairs apart, then added.

    Maintains the best repaired primal point (seeded with the symmetric
    feasible start g = max(bound)/2) and the dual lower bound; returns when
    their relative gap drops below hajlasz._REL_TOL.  The step is the
    inverse Lipschitz constant of the dual's gradient, fixed for the block;
    if a gap check finds the dual value lower than before (the accelerated
    ascent is not monotone), the momentum is reset.
    """
    # its own map of the active leaves, those in some pair
    active = np.unique(np.concatenate([ia, ib]))
    la, lb = np.searchsorted(active, ia), np.searchsorted(active, ib)
    n, m = active.size, ia.size
    q_exp = 1.0 / (p - 1.0)

    def primal_from(s):
        return (s / (p * nu)) ** q_exp

    def multiplier_mass(mu_vec):
        return np.bincount(la, mu_vec, n) + np.bincount(lb, mu_vec, n)

    deg = multiplier_mass(np.ones(m))
    sigma = (p * nu) / float((deg[la] + deg[lb]).max())

    best = nu * float(np.sum(np.full(n, bound.max() / 2.0) ** p))
    best_g = np.full(n, bound.max() / 2.0)
    last_dual = -math.inf
    mu = np.zeros(m)
    mu_prev = mu.copy()
    tk = 1.0
    for t in range(hajlasz._MAX_ITERS):
        tk1 = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        y = np.maximum(mu + ((tk - 1.0) / tk1) * (mu - mu_prev), 0.0)
        tk = tk1
        g = primal_from(multiplier_mass(y))
        mu_prev = mu
        mu = np.maximum(0.0, y + sigma * (bound - (g[la] + g[lb])))
        if (t + 1) % hajlasz._CHECK_EVERY == 0:
            g, dual = _dual_point(nu, p, multiplier_mass(mu), mu, bound)
            gf = g.copy()
            _repair(gf, la, lb, bound)
            primal = nu * float(np.sum(gf**p))
            if primal < best:
                best = primal
                best_g = gf.copy()
            if best - dual <= hajlasz._REL_TOL * max(best, 1e-300):
                out = np.zeros(n_leaves)
                out[active] = best_g
                return out, BlockReport(t + 1, (best - dual) / best)
            if dual < last_dual:
                mu_prev = mu.copy()
                tk = 1.0
            last_dual = dual
    raise ConvergenceError("dual ascent did not certify the optimum")


def _assert_matches_per_block(inst, sol=None):
    """hajlasz_minimize at p = 2 (or the given solution of inst) gives the
    solution of solving each block on its own: bit for bit (gradient array
    and block report) for a block in the index form, and within the
    certified gap for one in the dense form, which adds up its multiplier
    masses in another order."""
    nu, n = inst.f.leaf_measure, inst.f.n_leaves
    g = {k: np.zeros(n) for k in inst.scales}
    blocks = {}
    for k, (ia, ib, bound) in _pairs(inst).items():
        g[k], blocks[k] = _per_block_dual_ascent(nu, inst.p, ia, ib, bound, n)
        _repair(g[k], ia, ib, bound)
    value = sum(nu * float(np.sum(arr**inst.p)) for arr in g.values())

    if sol is None:
        sol = hajlasz_minimize(inst)
    assert sol.method == "dual-ascent"
    assert list(sol.g) == list(g)
    assert set(sol.blocks) == set(blocks)
    assert sol.iterations == sum(b.iterations for b in sol.blocks.values())
    dense = [b.k for b in _blocks(inst, kind=hajlasz._DualBlock) if b.level_shapes is not None]
    for k in g:
        if k in dense:
            assert sol.blocks[k].rel_gap <= hajlasz._REL_TOL
            _assert_within_gap(nu * np.sum(sol.g[k] ** 2), nu * np.sum(g[k] ** 2), k)
        else:
            assert np.array_equal(sol.g[k], g[k]), k
            assert sol.blocks.get(k) == blocks.get(k), k
    assert hajlasz_feasible(inst, sol.g)
    if dense:
        _assert_within_gap(sol.value, value, "value")
    else:
        assert sol.value == value


# Every block in the dense form, the default choice of form, and every
# block in the index form: (smallest run, smallest kept share).
FORMS = [(1, 0.0), (hajlasz._DENSE_MIN_RUN, hajlasz._DENSE_MIN_KEPT), (2**62, 0.0)]


def _use_form(mp, form):
    mp.setattr(hajlasz, "_DENSE_MIN_RUN", form[0])
    mp.setattr(hajlasz, "_DENSE_MIN_KEPT", form[1])


@pytest.mark.parametrize("K, depth", [(2, 6), (3, 4)])
def test_dense_masses_match_the_index_form(K, depth):
    # at epsilon = 0.3 several split levels share one scale, so a block
    # spans several levels; random multipliers on its kept pairs
    rng = np.random.default_rng(K)
    f = generate("iid-uniform", K=K, depth=depth, seed=7, epsilon=0.3, theta=0.5)
    inst = HajlaszInstance(f, 0.5, 2.0, 0.3)
    n, spans = f.n_leaves, 0
    with pytest.MonkeyPatch.context() as mp:
        for k, (ia, ib, bound) in _pairs(inst).items():
            _use_form(mp, FORMS[0])
            dense = hajlasz._DualLayout([hajlasz._DualBlock(inst, k)])
            _use_form(mp, FORMS[2])
            index = hajlasz._DualLayout([hajlasz._DualBlock(inst, k)])
            assert index.blocks[0].level_shapes is None
            spans += len(dense.blocks[0].level_shapes) > 1
            w = rng.uniform(size=ia.size)
            dense.mu[dense.blocks[0].kept], index.mu[:] = w, w
            s_dense, s_index = dense.mu_mass(), index.mu_mass()
            np.testing.assert_allclose(s_dense, s_index, rtol=1e-13, atol=0.0)
            # and the pair sums g[a] + g[b] of the kept pairs, exactly
            dense.g[:] = rng.uniform(size=n)
            dense.pair_sums(dense.views[0])
            assert np.array_equal(dense.mu[dense.blocks[0].kept], dense.g[ia] + dense.g[ib])
    assert spans


# The pinned bits are those of numpy 2; the numpy floor may sum in another
# order, as the golden files' byte check allows.
_PINNED_BITS = pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="bits pinned on numpy 2"
)


def _fingerprint(sol):
    """A solution to the bit: its value, each block's iterations and
    relative gap, and a digest of its g arrays."""
    blocks = {k: (b.iterations, b.rel_gap.hex()) for k, b in sol.blocks.items()}
    digest = hashlib.sha256(b"".join(g.tobytes() for g in sol.g.values())).hexdigest()[:16]
    return sol.value.hex(), blocks, digest


@_PINNED_BITS
@pytest.mark.parametrize(
    "K, depth, family, epsilon, seed, dense, expected",
    [
        # four single-level dense blocks, then index blocks
        (2, 8, "iid-uniform", LN2, 0, [(1, True)] * 4, (
            "0x1.282e6cc140975p+2",
            {-2: (200, "0x1.ca7a0fdba5244p-37"), -1: (150, "0x1.01f9b5e1b3d18p-27"),
             0: (150, "0x1.a76b9fbcd27ccp-33"), 1: (150, "0x1.a8f40f3cda5f0p-28"),
             2: (300, "0x1.aa5682d17cbdap-28"), 3: (300, "0x1.116e7935a54c1p-28"),
             4: (100, "0x1.4c79db1400ca7p-28"), 5: (50, "0x0.0p+0")},
            "77a15d55777bf43f",
        )),
        # a two-level dense block with zero-bound pairs
        (2, 8, "lacunary", 0.3, 0, [(2, False)], (
            "0x1.b35af5fc3110fp-3",
            {-3: (100, "0x1.f4f4c6b2042e7p-34"), -2: (1200, "0x1.e905a6a7d8edcp-28"),
             -1: (450, "0x1.41c9710aa8cc0p-28"), 0: (50, "-0x1.e5007c9c0254bp-50")},
            "6c5592ad43e7d0a9",
        )),
        # a two-level dense block of three sibling pairs per vertex
        (3, 5, "iid-uniform", 0.3, 0, [(2, True)], (
            "0x1.c9f581c11466cp-5",
            {-3: (1350, "0x1.a3c15878f33f0p-28"), -2: (1200, "0x1.76f75550af27ep-29")},
            "86a14f38487fda33",
        )),
        # index blocks only
        (2, 6, "cell-indicator", LN2, 1, [], (
            "0x1.27be27f25daf3p-3",
            {-2: (50, "0x1.7cdf1a054df12p-49"), -1: (50, "-0x1.71547652b82ffp-51")},
            "cf316ec3b8a5a1d5",
        )),
    ],
)
def test_dual_ascent_solutions_are_pinned_bit_for_bit(K, depth, family, epsilon, seed, dense,
                                                      expected):
    # each case takes one path of the step: (levels, every pair kept) of
    # each dense block
    f = generate(family, K=K, depth=depth, seed=seed, epsilon=epsilon, theta=0.5)
    inst = HajlaszInstance(f, 0.5, 2.0, epsilon)
    blocks = list(_blocks(inst, kind=hajlasz._DualBlock))
    assert [
        (len(b.level_shapes), bool(b.pair_bound.all())) for b in blocks if b.level_shapes
    ] == dense
    assert _fingerprint(hajlasz_minimize(inst)) == expected


@_PINNED_BITS
def test_default_sweep_solutions_are_pinned_bit_for_bit():
    # the p = 2 programs of `verify equivalence` at the default config,
    # depths 4-6 and seeds 0-7, in one batch
    cfg = ExperimentConfig()
    sols = hajlasz_minimize_all(
        HajlaszInstance(generate_for(cfg, "iid-uniform", depth, seed), 0.5, 2.0, LN2)
        for depth in (4, 5, 6)
        for seed in cfg.seeds
    )
    fingerprints = repr([_fingerprint(sol) for sol in sols]).encode()
    assert sols[0].value.hex() == "0x1.b2c6a1b26e685p-3"
    assert hashlib.sha256(fingerprints).hexdigest()[:16] == "27cd430ff0a9a9d4"


@st.composite
def _instances(draw, p):
    K = draw(st.sampled_from([2, 3]))
    depth = draw(st.integers(1, 6 if K == 2 else 4))
    family = draw(st.sampled_from(["iid-uniform", "lacunary", "cell-indicator"]))
    # at 0.3 several split levels share one scale
    epsilon = draw(st.sampled_from([LN2, 0.3]))
    seed = draw(st.integers(0, 1000))
    f = generate(family, K=K, depth=depth, seed=seed, epsilon=epsilon, theta=0.5)
    return HajlaszInstance(f, 0.5, p, epsilon)


@pytest.mark.parametrize("form", FORMS)
@settings(max_examples=50, deadline=None)
@given(inst=_instances(2.0))
def test_dual_ascent_matches_per_block_oracle(form, inst):
    with pytest.MonkeyPatch.context() as mp:
        _use_form(mp, form)
        _assert_matches_per_block(inst)


@pytest.mark.parametrize(
    "K, depth, epsilon, family, seed",
    [
        (2, 8, LN2, "iid-uniform", 0),
        # one block with every pair kept (dense), then blocks with few kept
        (2, 8, LN2, "cell-indicator", 4),
        (2, 8, LN2, "cell-indicator", 1),
        (2, 7, 0.3, "lacunary", 1),
        (3, 5, LN2, "cell-indicator", 2),
        (3, 5, 0.3, "iid-uniform", 3),
        # halving the step whenever the dual value fell stalled these two
        # short of the certified gap for 100,000 steps
        (3, 4, 0.3, "iid-uniform", 22),
        (2, 8, 0.3, "lacunary", 3),
    ],
)
def test_dual_ascent_matches_per_block_oracle_deep(K, depth, epsilon, family, seed):
    f = generate(family, K=K, depth=depth, seed=seed, epsilon=epsilon, theta=0.5)
    inst = HajlaszInstance(f, 0.5, 2.0, epsilon)
    sol = hajlasz_minimize(inst)
    _assert_matches_per_block(inst, sol)
    _assert_matches_ipm(inst, sol.g)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("K, depth, epsilon", [(2, 5, LN2), (2, 5, 0.3), (3, 3, 0.3)])
def test_dual_ascent_matches_per_block_oracle_other_steps(form, K, depth, epsilon):
    # gap checks every 30 steps instead of 50, in the solver and the oracle
    f = generate("iid-uniform", K=K, depth=depth, seed=4, epsilon=epsilon, theta=0.5)
    with pytest.MonkeyPatch.context() as mp:
        _use_form(mp, form)
        mp.setattr(hajlasz, "_CHECK_EVERY", 30)
        _assert_matches_per_block(HajlaszInstance(f, 0.5, 2.0, epsilon))


# ------------------------------------- batches of instances in one loop


def _assert_same_solution(a, b):
    assert (a.method, a.iterations) == (b.method, b.iterations)
    assert list(a.g) == list(b.g)
    for k in a.g:
        assert np.array_equal(a.g[k], b.g[k]), k
    assert a.blocks == b.blocks
    assert a.value == b.value


def _assert_batch_matches_alone(insts):
    """Solution i of hajlasz_minimize_all(insts) is, bit for bit, that of
    hajlasz_minimize(insts[i]) and, at p = 2, of the per-block oracle."""
    sols = hajlasz_minimize_all(insts)
    assert len(sols) == len(insts)
    for inst, sol in zip(insts, sols):
        _assert_same_solution(sol, hajlasz_minimize(inst))
        if inst.p == 2.0:
            _assert_matches_per_block(inst, sol)
    return sols


def _mixed_instances():
    """Mixed depths, K, epsilon and families, a constant function (no
    constraints) and p = 1.5, 1 and 3 instances in one list."""
    insts = [
        HajlaszInstance(
            generate(family, K=K, depth=depth, seed=seed, epsilon=eps, theta=0.5), 0.5, 2.0, eps
        )
        for K, depth, eps, family, seed in [
            (2, 4, LN2, "iid-uniform", 0),
            (2, 6, 0.3, "lacunary", 1),
            (3, 3, LN2, "cell-indicator", 2),
            (2, 5, LN2, "cell-indicator", 3),
            (3, 3, 0.3, "iid-uniform", 4),
            (2, 7, LN2, "iid-uniform", 5),
        ]
    ]
    insts.insert(2, HajlaszInstance(BoundaryFunction(2, 3, np.full(8, 0.25)), 0.5, 2.0, LN2))
    insts.insert(4, random_instance(3, depth=3, p=1.5))
    insts.insert(6, random_instance(6, depth=3, p=1.0))
    insts.append(random_instance(7, depth=4, p=3.0, K=3))
    return insts


@pytest.mark.parametrize("form", FORMS)
def test_batch_matches_each_instance_alone(form):
    with pytest.MonkeyPatch.context() as mp:
        _use_form(mp, form)
        sols = _assert_batch_matches_alone(_mixed_instances())
    assert sols[2].value == 0.0 and sols[2].blocks == {}
    assert [sols[at].method for at in (4, 6, 9)] == ["interior-point"] * 3


def _record_batches(mp, solve=True):
    """Record the instance positions of each batch that hajlasz_minimize_all
    solves, at every p, in order.  Without `solve`, every p = 2 block gets
    the zero array repaired, in its block's unit (as `_solve_dual_blocks` hands back a
    feasible array) and no dual-ascent loop runs."""
    batches = []
    solve_batch = hajlasz._solve_batch

    def record(batch):
        batches.append([at for at, _ in batch])
        return solve_batch(batch)

    def feasible_zeros(blocks):
        return [(blk.solution(np.zeros(blk.active.size)), BlockReport(0, 0.0)) for blk in blocks]

    mp.setattr(hajlasz, "_solve_batch", record)
    if not solve:
        mp.setattr(hajlasz, "_solve_dual_blocks", feasible_zeros)
    return batches


@pytest.mark.parametrize("batch_pairs", [1, 100, 2**13])
def test_batch_split_does_not_change_results(batch_pairs):
    insts = _mixed_instances()
    whole = hajlasz_minimize_all(insts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hajlasz, "_BATCH_PAIRS", batch_pairs)
        batches = _record_batches(mp)
        for a, b in zip(hajlasz_minimize_all(iter(insts)), whole):
            _assert_same_solution(a, b)
        assert len(batches) > 1


def test_batches_keep_input_order_within_the_pair_bound(monkeypatch):
    # K = 2: 2016 pairs at depth 6, 8128 at 7 and 32640 at 8
    insts = [random_instance(s, depth=d) for d in (6, 7, 8) for s in range(8)]
    insts.insert(3, random_instance(0, depth=2, p=1.5))
    batches = _record_batches(monkeypatch, solve=False)
    sols = hajlasz_minimize_all(insts)
    assert len(sols) == 25 and sols[3].method == "interior-point"
    assert all(hajlasz_feasible(inst, sol.g) for inst, sol in zip(insts, sols))
    assert [at for batch in batches for at in batch] == list(range(25))
    # the p = 1.5 instance's 6 pairs + 8 x 2016 + 2 x 8128, 4 x 8128,
    # 2 x 8128, then one each
    assert [len(b) for b in batches] == [11, 4, 2] + [1] * 8
    for batch in batches:
        pairs = sum(insts[at].f.n_leaves * (insts[at].f.n_leaves - 1) // 2 for at in batch)
        assert pairs <= hajlasz._BATCH_PAIRS or len(batch) == 1


@st.composite
def _instance_lists(draw):
    return [draw(_instances(2.0)) for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=25, deadline=None)
@given(insts=_instance_lists())
def test_batch_matches_each_instance_alone_random(insts):
    _assert_batch_matches_alone(insts)


def test_batch_convergence_error_names_each_uncertified_block(monkeypatch):
    insts = [
        random_instance(1),
        HajlaszInstance(BoundaryFunction(2, 2, np.zeros(4)), 0.5, 2.0, LN2),
        random_instance(2, depth=2, K=3),
    ]
    # no gap check within 30 steps: every block is left uncertified
    monkeypatch.setattr(hajlasz, "_MAX_ITERS", 30)
    with pytest.raises(ConvergenceError) as info:
        hajlasz_minimize_all(insts)
    message = str(info.value)
    assert "within 30 iterations" in message
    named = [(0, insts[0]), (2, insts[2])]
    for at, inst in named:
        for k in _pairs(inst):
            assert f"instance {at} (K={inst.f.K}, depth 2) scale {k}: no gap check" in message
    assert message.count("scale") == sum(len(_pairs(inst)) for _, inst in named)
    assert "instance 1 " not in message
    assert {at for at, _, _ in info.value.blocks} == {0, 2}
    # after gap checks each block names its last relative gap
    monkeypatch.setattr(hajlasz, "_MAX_ITERS", 120)
    monkeypatch.setattr(hajlasz, "_REL_TOL", 0.0)
    with pytest.raises(ConvergenceError) as info:
        hajlasz_minimize_all(insts[:1])
    named = r"instance 0 \(K=2, depth 2\) scale -?\d+: relative gap (\S+?)(?:;|$)"
    gaps = re.findall(named, str(info.value))
    assert gaps and all(float(gap) > 0.0 for gap in gaps)


def test_each_batch_is_released_before_the_next_is_taken(monkeypatch):
    # 28 pairs at depth 3 and 120 at depth 4 against a bound of 100, at
    # every p: the batches are [0, 1, 2], [3], [4, 5, 6] and [7]
    monkeypatch.setattr(hajlasz, "_BATCH_PAIRS", 100)
    specs = [(3, 2.0), (3, 1.5), (3, 2.0), (4, 2.0), (3, 3.0), (3, 1.5), (3, 2.0), (4, 1.0)]
    batches = _record_batches(monkeypatch)
    refs, alive_at_build = [], []

    def tracked(inst):
        refs.append(weakref.ref(inst))
        return inst

    def instances():
        for seed, (depth, p) in enumerate(specs):
            alive_at_build.append({at for at, ref in enumerate(refs) if ref() is not None})
            yield tracked(random_instance(seed, depth=depth, p=p))

    sols = hajlasz_minimize_all(instances())
    assert batches == [[0, 1, 2], [3], [4, 5, 6], [7]]
    batch_of = {at: set(batch) for batch in batches for at in batch}
    for at in range(1, len(specs)):
        # only the open batch, that of the instance taken last, may still
        # be alive
        assert alive_at_build[at] <= {j for j in batch_of[at - 1] if j < at}, at
    # the first instance of a batch arrives while the batch before is alive
    assert alive_at_build[3] == {0, 1, 2} and alive_at_build[4] == {3}
    assert not any(ref() for ref in refs)
    for seed, ((depth, p), sol) in enumerate(zip(specs, sols)):
        _assert_same_solution(sol, hajlasz_minimize(random_instance(seed, depth=depth, p=p)))


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_instances_other_than_p2_alone_split_at_the_pair_bound(monkeypatch, p):
    # four depth-3 instances of 28 pairs each against a bound of 60
    monkeypatch.setattr(hajlasz, "_BATCH_PAIRS", 60)
    insts = [random_instance(seed, depth=3, p=p) for seed in range(4)]
    batches = _record_batches(monkeypatch)
    sols = hajlasz_minimize_all(insts)
    assert batches == [[0, 1], [2, 3]]
    for inst, sol in zip(insts, sols):
        assert sol.method == "interior-point"
        _assert_same_solution(sol, hajlasz_minimize(inst))


def test_a_failing_block_other_than_p2_raises_when_its_batch_is_solved():
    # the p = 64 block of the second instance hits a singular Newton
    # matrix after the first instance's dual ascent has certified
    f = generate("iid-uniform", K=2, depth=3, seed=0)
    insts = [random_instance(0, depth=3), HajlaszInstance(f, 0.5, 64.0, LN2)]
    with pytest.MonkeyPatch.context() as mp:
        batches = _record_batches(mp)
        with pytest.raises(ConvergenceError) as info:
            hajlasz_minimize_all(insts)
    assert batches == [[0, 1]]
    assert [(at, block) for at, block, _ in info.value.blocks] == [(1, "(K=2, depth 3) scale -1")]
    assert "Newton matrix is singular" in str(info.value)


@pytest.mark.parametrize("K", [2, 3])
def test_active_leaves_match_the_unique_reference(K):
    # a share of the leaves at random values, the others at 0: the pairs of
    # two zero leaves have a zero bound and are dropped
    rng = np.random.default_rng(K)
    partial = 0
    for depth in (1, 2, 3):
        n = K**depth
        for share in (0.05, 0.2, 0.5, 1.0):
            values = np.where(rng.random(n) < share, rng.uniform(size=n), 0.0)
            inst = HajlaszInstance(BoundaryFunction(K, depth, values), 0.5, 2.0, LN2)
            pairs = _reference_pairs(inst)
            for blk in _blocks(inst):
                ends = np.concatenate(pairs[blk.k][:2])
                reference = np.unique(ends)
                active, (la, lb) = blk.active, blk.local
                assert active.dtype == reference.dtype and np.array_equal(active, reference)
                assert np.array_equal(np.arange(n)[blk.active_sel], reference)
                assert np.array_equal(blk.deg, np.bincount(ends, minlength=n))
                assert np.array_equal(active[la], blk.ia) and np.array_equal(active[lb], blk.ib)
                if active.size == n:
                    assert la is blk.ia and lb is blk.ib
                partial += active.size < n
    assert partial >= 3


# ---------------------------------------- p = 1 against a linear program


def _lp_block(inst, k):
    """Reference p = 1 solver: the scale-k block of inst as a linear
    program over its active leaves, min nu * sum g subject to
    g[a] + g[b] >= bound and g >= 0, solved by HiGHS.  Returns the
    repaired minimizer."""
    blk, nu, n_leaves = _Block(inst, k), inst.f.leaf_measure, inst.f.n_leaves
    ia, ib, bound = blk.ia, blk.ib, np.ldexp(blk.bound, blk.e)
    active, (la, lb) = blk.active, blk.local
    rows = np.repeat(np.arange(ia.size), 2)
    cols = np.stack([la, lb], axis=1).ravel()
    data = np.full(2 * ia.size, -1.0)
    A = sparse.csr_matrix((data, (rows, cols)), shape=(ia.size, active.size))
    res = linprog(
        c=np.full(active.size, nu), A_ub=A, b_ub=-bound, bounds=(0, None), method="highs"
    )
    assert res.status == 0, res.message
    g = np.zeros(n_leaves)
    g[active] = np.clip(res.x, 0.0, None)
    _repair(g, ia, ib, bound)
    return g


def _assert_matches_lp(inst):
    """The interior-point method at p = 1 is feasible and within 1e-8
    relative of the linear program, block by block and in total."""
    nu = inst.f.leaf_measure
    sol = hajlasz_minimize(inst)
    assert sol.method == "interior-point"
    assert hajlasz_feasible(inst, sol.g)
    total = 0.0
    for k in _pairs(inst):
        lp = nu * float(np.sum(_lp_block(inst, k)))
        assert abs(nu * float(np.sum(sol.g[k])) - lp) <= 1e-8 * lp, k
        total += lp
    assert abs(sol.value - total) <= 1e-8 * total


@settings(max_examples=50, deadline=None)
@given(inst=_instances(1.0))
def test_interior_point_matches_lp_oracle_at_p1(inst):
    _assert_matches_lp(inst)


@pytest.mark.parametrize(
    "K, depth, epsilon, family, seed",
    [
        (2, 8, LN2, "iid-uniform", 0),
        (2, 8, 0.3, "iid-uniform", 1),
        (2, 8, 0.3, "lacunary", 2),
        (3, 5, LN2, "iid-uniform", 0),
        (3, 5, 0.3, "cell-indicator", 3),
    ],
)
def test_interior_point_matches_lp_oracle_at_p1_deep(K, depth, epsilon, family, seed):
    f = generate(family, K=K, depth=depth, seed=seed, epsilon=epsilon, theta=0.5)
    _assert_matches_lp(HajlaszInstance(f, 0.5, 1.0, epsilon))


def test_p1_newton_matrix_without_curvature_is_solved():
    # p = 1 has no curvature term in the Newton matrix; without the fixed
    # diagonal term this instance raised LinAlgError (singular matrix)
    inst = random_instance(1, depth=3, p=1.0)
    _assert_matches_lp(inst)


def test_p1_dual_bound_scales_multipliers_into_the_domain():
    # at p = 1 the Lagrangian is bounded below only where s <= nu, so the
    # multipliers are scaled by min(1, nu / max s)
    bound = np.array([1.0, 2.0])
    mu = np.array([3.0, 1.0])
    g, q = _dual_point(0.5, 1.0, np.array([4.0, 1.0]), mu, bound)
    assert q == pytest.approx(0.125 * 5.0)
    assert np.array_equal(g, np.zeros(2))
    assert _dual_point(0.5, 1.0, np.array([0.25, 0.5]), mu, bound)[1] == 5.0


# -------------------------------------------------------------- comparability


def test_hajlasz_tracks_dyadic_energy_over_depths():
    ratios, depths = [], []
    for depth in (3, 4, 5):
        ep = EnergyParams(theta=0.5, p=2.0, epsilon=LN2)
        for seed in range(5):
            f = generate("iid-uniform", K=2, depth=depth, seed=seed)
            inst = HajlaszInstance(f, 0.5, 2.0, LN2)
            ratios.append(hajlasz_minimize(inst).value / dyadic_energy(f, ep))
            depths.append(depth)
    ratios = np.asarray(ratios)
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
    assert ratios.max() / ratios.min() < 100.0
    assert abs(fit_log_slope(depths, ratios)) < 0.15
