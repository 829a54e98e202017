import dataclasses
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from treetrace import (
    EdgePoint,
    TreeParams,
    ahlfors_ratio,
    ball_measure,
    doubling_ratios,
    edge_length,
    edge_measure,
    min_shift_constant,
    sample_ball_centers,
    split_distances,
)
from treetrace.address import check_digits, index_digits
from treetrace.tree import QUAD_ORDER, _arc_below, _gauss_rule, edge_quadrature

LN2 = math.log(2.0)


def std_params(depth=8, K=2, epsilon=LN2, beta=2 * LN2, lambda2=0.0):
    return TreeParams(K, epsilon, beta, lambda2, depth)


def truncated_mass(params):
    """Mass of the truncated tree: K^(n+1) edges of mass edge_measure(n) per level."""
    return sum(params.K ** (n + 1) * edge_measure(params, n) for n in range(params.depth))


# ---------------------------------------------------------------- parameters


def test_params_derived_quantities():
    p = std_params()
    assert p.hausdorff_dim == pytest.approx(1.0, abs=1e-15)
    assert p.diameter == pytest.approx(2.0 / LN2)


def test_params_minimal_shift_value():
    # max{2*|1|/(2 - ln 3), 2*ln 4} = 2*ln 4
    p = TreeParams(3, 1.0, 2.0, 1.0, 4)
    expected = max(2.0 / (2.0 - math.log(3.0)), 2.0 * math.log(4.0))
    assert expected == pytest.approx(2.772588722239781, abs=1e-12)
    assert p.C_const == pytest.approx(expected, abs=1e-12)


def test_params_rejections():
    with pytest.raises(ValueError, match="beta must exceed log K"):
        TreeParams(2, LN2, LN2, 0.0, 4)
    with pytest.raises(ValueError, match="^K must be an integer at least 2, got 1$"):
        TreeParams(1, LN2, 2 * LN2, 0.0, 4)
    with pytest.raises(ValueError, match="^epsilon must be finite and positive, got 0.0$"):
        TreeParams(2, 0.0, 2 * LN2, 0.0, 4)
    with pytest.raises(ValueError, match="^depth must be an integer at least 1, got 0$"):
        TreeParams(2, LN2, 2 * LN2, 0.0, 0)
    # the quadrature order and the shift are not parameters
    with pytest.raises(TypeError, match="quad_order"):
        TreeParams(2, LN2, 2 * LN2, 0.0, 4, quad_order=8)
    with pytest.raises(TypeError, match="C_const"):
        TreeParams(2, LN2, 2 * LN2, 0.0, 4, C_const=4.0)
    with pytest.raises(TypeError):
        TreeParams(2, LN2, 2 * LN2, 0.0, 4, 8)
    init = [f.name for f in dataclasses.fields(TreeParams) if f.init]
    assert init == ["K", "epsilon", "beta", "lambda2", "depth"]


@pytest.mark.parametrize("lambda2", [300.0, -300.0, 1e308, -1e308])
def test_params_reject_a_density_factor_out_of_float_range(lambda2):
    # at 300 the minimal shift is C = 866 and (t + C)^300 overflowed in
    # the edge masses and the tree modular (newtonian_norm = inf); at 1e308
    # the shift itself was inf
    with pytest.raises(ValueError, match="lambda2"):
        TreeParams(2, LN2, 2 * LN2, lambda2, 4)
    # C = 2 * 100 / log 2 = 288.5 and (4 + C)^100 = 1.5e246 stay in range
    p = TreeParams(2, LN2, 2 * LN2, 100.0, 4)
    assert 0.0 < edge_measure(p, 3) < math.inf


@pytest.mark.parametrize("name", ["epsilon", "beta", "lambda2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_values(name, bad):
    # NaN passes every comparison in the range checks, so it needs its own
    args = dict(K=2, epsilon=LN2, beta=2 * LN2, lambda2=0.0, depth=4)
    args[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        TreeParams(**args)


def test_params_refuse_a_k_that_is_not_an_integer():
    # K = 2.5 was taken, with log K and K^n of a tree that is not one
    with pytest.raises(ValueError, match="^K must be an integer at least 2, got 2.5$"):
        TreeParams(2.5, LN2, 2 * LN2, 0.0, 4)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
def test_split_distances_and_the_minimal_shift_refuse_an_epsilon_outside_its_domain(epsilon):
    # epsilon = 0 divided by zero in both, and at -1 the level-0 distance
    # was said to underflow
    message = f"^epsilon must be finite and positive, got {epsilon!r}$"
    with pytest.raises(ValueError, match=message):
        split_distances(epsilon, 3)
    with pytest.raises(ValueError, match=message):
        min_shift_constant(2, epsilon, 2 * LN2, 0.0)


def test_params_none_shift_is_the_minimal_one():
    # the shift is derived, and equal parameters are equal trees
    cmin = min_shift_constant(2, LN2, 2 * LN2, 1.0)
    assert TreeParams(2, LN2, 2 * LN2, 1.0, 4).C_const == cmin
    assert TreeParams(2, LN2, 2 * LN2, 1.0, 4) == TreeParams(2, LN2, 2 * LN2, 1.0, 4)


# ---------------------------------------------------------------- edge length


def test_edge_length_against_quadrature_oracle():
    p = std_params()
    oracle, err = integrate.quad(lambda t: 2.0**-t, 0.0, 1.0)
    assert err < 1e-12
    assert edge_length(p, 0) == pytest.approx(oracle, rel=1e-12)
    assert edge_length(p, 0) == pytest.approx(0.7213475204444817, abs=1e-15)


def test_gauss_rule_is_numpys_leggauss():
    # held as literals, so that no run imports numpy.polynomial: bit for bit
    # numpy 2's leggauss, and within an ulp of the rule at the numpy floor
    x, w = _gauss_rule()
    gx, gw = np.polynomial.legendre.leggauss(QUAD_ORDER)
    np.testing.assert_array_max_ulp(x, gx, 1)
    np.testing.assert_array_max_ulp(w, gw, 1)
    if int(np.__version__.split(".")[0]) >= 2:
        assert x.tobytes() == gx.tobytes() and w.tobytes() == gw.tobytes()
    assert not (x.flags.writeable or w.flags.writeable)


def test_gauss_node_offsets_are_precise_deep_in_the_tree():
    # the arclength of each node below its parent vertex at level 30,
    # against e^(-eps n) (1 - e^(-eps t)) / eps to 50 digits; written as a
    # difference of arclengths from the root it was 9.3e-6 off
    p, n = std_params(depth=31), 30
    _, offsets, _ = edge_quadrature(p, n)
    gx, _ = np.polynomial.legendre.leggauss(QUAD_ORDER)
    with localcontext() as ctx:
        ctx.prec = 50
        eps = Decimal(p.epsilon)
        for a, t in zip(offsets, 0.5 * (gx + 1.0)):
            want = (-eps * n).exp() * (1 - (-eps * Decimal(float(t))).exp()) / eps
            assert abs(Decimal(float(a)) - want) <= Decimal("1e-14") * want


def test_edge_length_geometric_decay():
    p = std_params()
    assert edge_length(p, 1) == pytest.approx(0.5 * edge_length(p, 0), rel=1e-15)
    for n in range(p.depth - 1):
        assert edge_length(p, n + 1) < edge_length(p, n)


def test_edge_length_out_of_range():
    p = std_params(depth=4)
    with pytest.raises(ValueError):
        edge_length(p, 4)
    with pytest.raises(ValueError):
        edge_length(p, -1)


def test_ray_length_and_diameter():
    # one-edge lengths sum to 1/epsilon along an infinite ray
    p = std_params()
    total = sum(edge_length(p, n) for n in range(p.depth))
    tail = math.exp(-p.epsilon * p.depth) / p.epsilon
    assert total + tail == pytest.approx(1.0 / p.epsilon, rel=1e-14)
    assert p.diameter == pytest.approx(2.0 / p.epsilon)


# ----------------------------------------------- boundary distance and mass


def _split_level(K, depth, a, b):
    """Length of the common address prefix of two distinct leaves."""
    da, db = index_digits(K, depth, a), index_digits(K, depth, b)
    return next(k for k in range(depth) if da[k] != db[k])


def test_split_distances_values():
    p = std_params()
    d = split_distances(p.epsilon, p.depth)
    # leaves 00 and 01 split at level 1, leaves 00 and 10 at level 0
    assert d[_split_level(2, 2, 0b00, 0b01)] == pytest.approx(1.0 / LN2, rel=1e-12)
    assert d[_split_level(2, 2, 0b00, 0b10)] == pytest.approx(p.diameter, rel=1e-12)
    # twice the length of a ray below the split vertex
    ray = 1.0 / p.epsilon
    for k in range(p.depth):
        assert d[k] == pytest.approx(2.0 * (ray - _arc_below(p.epsilon, 0, k)), rel=1e-12)


def test_split_distances_ultrametric_triple():
    d = split_distances(LN2, 2)
    a, b, c = 0b00, 0b01, 0b10
    dab, dac, dbc = (d[_split_level(2, 2, x, y)] for x, y in ((a, b), (a, c), (b, c)))
    assert dab < dac
    assert dac == pytest.approx(dbc)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_split_distances_ultrametric_inequality(K, i, j, k):
    depth = 3
    i, j, k = (x % K**depth for x in (i, j, k))
    if len({i, j, k}) < 3:
        return
    d = split_distances(LN2, depth)
    dab = d[_split_level(K, depth, i, j)]
    dbc = d[_split_level(K, depth, j, k)]
    dac = d[_split_level(K, depth, i, k)]
    assert dac <= max(dab, dbc) + 1e-12


def test_ahlfors_ratio_binary_tree_value():
    p = std_params()
    expected = LN2 / 2.0  # (epsilon/2)^Q with Q = 1
    for n in range(9):
        assert ahlfors_ratio(p, n) == pytest.approx(expected, rel=1e-12)


def test_ahlfors_ratio_constant_across_cells_and_levels():
    # every level-n cell has mass K^-n and the level-n split distance as its
    # diameter, so the ratio takes only the level
    p = TreeParams(3, 1.0, 2.0, 0.0, 8)
    vals = [ahlfors_ratio(p, n) for n in range(9)]
    assert max(vals) / min(vals) == pytest.approx(1.0, abs=1e-12)


def test_ahlfors_ratio_checks_the_address():
    p = std_params(depth=3)
    for n in (-1, 4):
        with pytest.raises(ValueError, match=f"level {n} out of range 0..3"):
            ahlfors_ratio(p, n)


# ------------------------------------------------------------ vertex distance
# The geodesic between two vertices runs through their common ancestor at
# the level k of their common address prefix, so its length is a sum of
# arclength differences; check_digits validates the addresses.


def _vertex_distance(p, x, y):
    x, y = check_digits(p.K, x, p.depth), check_digits(p.K, y, p.depth)
    k = next((i for i, (a, b) in enumerate(zip(x, y)) if a != b), min(len(x), len(y)))
    at_x, at_y, at_k = _arc_below(p.epsilon, 0, np.array([len(x), len(y), k]))
    return float((at_x - at_k) + (at_y - at_k))


def test_vertex_distance_basic_values():
    p = std_params()
    assert _vertex_distance(p, (), ()) == 0.0
    assert _vertex_distance(p, (), (0,)) == pytest.approx(0.7213475204444817, rel=1e-12)
    assert _vertex_distance(p, (0,), (1,)) == pytest.approx(1.4426950408889634, rel=1e-12)
    # two level-N vertices that split at level k, each continued by a ray
    # of length 1/epsilon - arclength(N), are split_distances[k] apart
    d = split_distances(p.epsilon, p.depth)
    tails = 2.0 * (1.0 / p.epsilon - _arc_below(p.epsilon, 0, p.depth))
    for k in range(p.depth):
        x = (0,) * p.depth
        y = (0,) * k + (1,) + (0,) * (p.depth - k - 1)
        assert _vertex_distance(p, x, y) + tails == pytest.approx(d[k], rel=1e-12)


def test_vertex_distance_symmetry_and_identity():
    p = std_params(depth=5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        n1, n2 = rng.integers(0, 6, size=2)
        x = tuple(rng.integers(0, 2, size=n1))
        y = tuple(rng.integers(0, 2, size=n2))
        assert _vertex_distance(p, x, y) == pytest.approx(_vertex_distance(p, y, x), abs=1e-15)
        assert _vertex_distance(p, x, x) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    digits=st.lists(st.integers(0, 1), min_size=2, max_size=6),
    cut1=st.integers(0, 6),
    cut2=st.integers(0, 6),
)
def test_vertex_distance_additive_along_chain(digits, cut1, cut2):
    # x <= y <= z on one ray: d(x,z) = d(x,y) + d(y,z)
    p = std_params(depth=6)
    a, b = sorted((min(cut1, len(digits)), min(cut2, len(digits))))
    z = tuple(digits)
    x, y = z[:a], z[:b]
    d_xz = _vertex_distance(p, x, z)
    d_sum = _vertex_distance(p, x, y) + _vertex_distance(p, y, z)
    assert d_xz == pytest.approx(d_sum, abs=1e-12)


def test_vertex_distance_triangle_inequality():
    p = std_params(depth=5, K=3)
    rng = np.random.default_rng(1)
    for _ in range(100):
        pts = [tuple(rng.integers(0, 3, size=rng.integers(0, 6))) for _ in range(3)]
        x, y, z = pts
        assert _vertex_distance(p, x, z) <= (
            _vertex_distance(p, x, y) + _vertex_distance(p, y, z) + 1e-12
        )


def test_vertex_distance_rejects_bad_addresses():
    p = std_params(depth=3)
    with pytest.raises(ValueError, match="digit 2 out of range"):
        check_digits(p.K, (0, 2), p.depth)
    with pytest.raises(ValueError, match="longer than depth 3"):
        check_digits(p.K, (0,) * 4, p.depth)


# ---------------------------------------------------------------- edge measure


def test_edge_measure_closed_form_at_lambda_zero():
    p = std_params(depth=12)
    beta = p.beta
    for n in range(11):
        closed = (math.exp(-beta * n) - math.exp(-beta * (n + 1))) / beta
        assert edge_measure(p, n) == pytest.approx(closed, rel=1e-12)
    assert edge_measure(p, 0) == pytest.approx(0.75 / (2 * LN2), rel=1e-12)


def test_edge_measure_exponential_shift_at_lambda_zero():
    p = std_params()
    assert edge_measure(p, 1) == pytest.approx(
        math.exp(-p.beta) * edge_measure(p, 0), rel=1e-12
    )


def test_edge_mass_weighted_against_adaptive_quadrature():
    # epsilon = 1.5 and beta = 2 take the minimal shift 2 log 4 / 1.5 = 1.848
    beta, lam = 2.0, 1.0
    p = TreeParams(2, 1.5, beta, lam, 1)
    c = p.C_const
    assert c == pytest.approx(1.8483924814931874, rel=1e-15)
    oracle, err = integrate.quad(lambda t: math.exp(-beta * t) * (t + c) ** lam, 0.0, 1.0)
    assert err < 1e-12
    assert edge_measure(p, 0) == pytest.approx(oracle, rel=1e-10)


def test_edge_mass_matches_tenfold_order():
    # the order-8 rule against an order-80 one on the same edge; beta = 2
    # takes the shift 4 at every lambda2 here
    gx, gw = np.polynomial.legendre.leggauss(10 * QUAD_ORDER)
    tau = 3.0 + 0.5 * (gx + 1.0)
    for lam in (-1.5, 0.7, 2.0):
        p = TreeParams(2, LN2, 2.0, lam, 4)
        assert p.C_const == 4.0
        hi = 0.5 * float(np.sum(gw * np.exp(-2.0 * tau) * (tau + 4.0) ** lam))
        assert edge_measure(p, 3) == pytest.approx(hi, rel=1e-12)


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("lambda2", [-1.0, 0.0, 1.0])
def test_edge_measure_is_the_sum_of_the_edge_rule_weights(K, lambda2):
    # every level whose mass factor e^(-beta (n + 1)) is at least 1e-290,
    # where no product of the density is subnormal: one definition of the
    # edge mass, and the same bits as the rule's own sum 0.5 * sum(w * density)
    beta = math.log(K) + LN2
    last = int(290 * math.log(10.0) / beta) - 1
    p = TreeParams(K, LN2, beta, lambda2, last + 1)
    gx, gw = np.polynomial.legendre.leggauss(QUAD_ORDER)
    for n in range(last + 1):
        assert math.exp(-beta * (n + 1)) >= 1e-290
        mass = edge_measure(p, n)
        assert mass == float(np.sum(edge_quadrature(p, n)[2]))
        tau = 0.5 * (gx + 1.0) + n
        dens = gw * np.exp(-beta * tau) * (tau + p.C_const) ** lambda2
        assert mass == float(0.5 * np.sum(dens))


def test_edge_measure_negative_level_rejected():
    p = std_params()
    with pytest.raises(ValueError):
        edge_measure(p, -1)


# ---------------------------------------------------------------- total mass


def test_edge_masses_sum_to_the_geometric_total_mass():
    # sum over n of K^(n+1) * m0 * e^(-beta*n), ratio K e^(-beta) = 1/2;
    # 60 levels leave out 2^-60 of it
    p = std_params(depth=60)
    m0 = 0.75 / (2 * LN2)
    oracle = 2.0 * m0 / (1.0 - 0.5)
    assert oracle == pytest.approx(2.1640425613334453, abs=1e-12)
    assert truncated_mass(p) == pytest.approx(oracle, rel=1e-12)


# ------------------------------------------------------------- ball measure


def _digits_of(index, K, length):
    out = []
    for _ in range(length):
        index, d = divmod(index, K)
        out.append(d)
    return tuple(reversed(out))


def _level_distances(params, center):
    """Distances from `center` to every vertex, one array per level.

    Returns (per-level distance arrays, ancestor chain of the center edge's
    child endpoint, the center's arclength below the top vertex of its
    edge, the edge lengths per level).  Every distance is a walk from the
    center, a sum of edge lengths and the center's offset, so it keeps its
    relative precision at any depth.
    """
    K, N, eps = params.K, params.depth, params.epsilon
    nx, cx = center.level, center.child_index
    length = -np.expm1(-eps) * np.exp(-eps * np.arange(N)) / eps
    sx = -math.expm1(-eps * center.offset) * math.exp(-eps * nx) / eps
    # anc[j] = flat index of the level-j ancestor of the child endpoint
    anc = [cx // K ** (nx + 1 - j) for j in range(nx + 2)]
    # up[j]: the distance from the center up to its level-j ancestor
    up = [0.0] * (nx + 1)
    up[nx] = sx
    for j in range(nx - 1, -1, -1):
        up[j] = up[j + 1] + length[j]

    dist = [np.array([up[0]])]
    for j in range(1, N + 1):
        d = np.repeat(dist[j - 1], K) + length[j - 1]
        if j <= nx:
            d[anc[j]] = up[j]
        elif j == nx + 1:
            d[anc[j]] = length[nx] - sx
        dist.append(d)
    return dist, anc, sx, length


def _per_edge_ball_measure(params, center, radius):
    """Reference ball mass: one clipped interval and one quadrature per
    edge, over all K^N edges, level by level.  Each interval is taken in
    arclength below the top vertex of its edge."""
    K, N, eps = params.K, params.depth, params.epsilon
    beta, c_shift, lam = params.beta, params.C_const, params.lambda2
    dist, anc, sx, length = _level_distances(params, center)
    gx, gw = np.polynomial.legendre.leggauss(QUAD_ORDER)

    total = 0.0
    for j in range(N):
        # edges from level j to j+1, indexed by the child vertex
        lo = np.zeros(K ** (j + 1))
        hi = radius - np.repeat(dist[j], K)
        if j + 1 <= center.level:
            # the chain edge above the center is entered from its lower end
            i = anc[j + 1]
            hi[i] = length[j]
            lo[i] = length[j] - (radius - dist[j + 1][i])
        elif j == center.level:
            i = center.child_index
            lo[i] = sx - radius
            hi[i] = sx + radius
        np.clip(lo, 0.0, length[j], out=lo)
        np.clip(hi, 0.0, length[j], out=hi)
        mask = hi > lo
        if not mask.any():
            continue
        # an arclength a below a level-j vertex sits at level j + t with
        # e^(-eps t) = 1 - eps e^(eps j) a
        scale = eps * math.exp(eps * j)
        tlo = -np.log1p(-scale * lo[mask]) / eps
        thi = -np.log1p(-scale * hi[mask]) / eps
        mid = j + 0.5 * (tlo + thi)
        half = 0.5 * (thi - tlo)
        tau = mid[:, None] + half[:, None] * gx[None, :]
        dens = np.exp(-beta * tau) * (tau + c_shift) ** lam
        total += float(np.sum(half[:, None] * gw[None, :] * dens))
    return total


def _brute_ball(params, center, radius, lam, slices=3000):
    """Midpoint-Riemann ball mass, with distances via the two-endpoint minimum."""
    K, N, eps = params.K, params.depth, params.epsilon

    def A(tau):
        return (1.0 - np.exp(-eps * tau)) / eps

    cdig = _digits_of(center.child_index, K, center.level + 1)
    tau_x = center.level + center.offset

    def dist_to_vertex(vdig):
        k = 0
        for a, b in zip(cdig, vdig):
            if a != b:
                break
            k += 1
        if k == len(cdig) and len(vdig) >= len(cdig):
            return A(len(vdig)) - A(tau_x)
        if k == len(vdig):
            return A(tau_x) - A(len(vdig))
        return A(tau_x) + A(len(vdig)) - 2.0 * A(k)

    total = 0.0
    for n in range(N):
        for child in range(K ** (n + 1)):
            vdig = _digits_of(child, K, n + 1)
            tau = n + (np.arange(slices) + 0.5) / slices
            if n == center.level and child == center.child_index:
                d = np.abs(A(tau) - A(tau_x))
            else:
                d_par = dist_to_vertex(vdig[:-1]) + (A(tau) - A(n))
                d_chi = dist_to_vertex(vdig) + (A(n + 1) - A(tau))
                d = np.minimum(d_par, d_chi)
            dens = np.exp(-params.beta * tau) * (tau + params.C_const) ** lam
            total += float(np.sum(dens[d <= radius])) / slices
    return total


@pytest.mark.parametrize(
    "center,radius",
    [
        (EdgePoint(0, 1, 0.37), 0.3),
        (EdgePoint(1, 2, 0.55), 0.9),
        (EdgePoint(2, 5, 0.11), 1.7),
    ],
)
def test_ball_measure_against_riemann_oracle(center, radius):
    p = std_params(depth=3, lambda2=1.0)
    exact = ball_measure(p, center, radius)
    brute = _brute_ball(p, center, radius, p.lambda2)
    assert exact == pytest.approx(brute, rel=5e-3)


def test_ball_measure_full_radius_is_total_mass():
    p = std_params(depth=4)
    c = EdgePoint(1, 2, 0.4)
    assert ball_measure(p, c, p.diameter) == pytest.approx(truncated_mass(p), rel=1e-12)


def test_ball_measure_monotone_in_radius():
    p = std_params(depth=4)
    c = EdgePoint(2, 3, 0.8)
    radii = np.linspace(0.05, 2.5, 20)
    vals = [ball_measure(p, c, r) for r in radii]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[0] > 0


def test_ball_measure_rejects_bad_input():
    p = std_params(depth=3)
    with pytest.raises(ValueError):
        ball_measure(p, EdgePoint(3, 0, 0.5), 1.0)
    with pytest.raises(ValueError):
        ball_measure(p, EdgePoint(0, 2, 0.5), 1.0)
    with pytest.raises(ValueError):
        ball_measure(p, EdgePoint(0, 0, 0.5), -1.0)


def test_doubling_ratios_finite_and_stable_under_deeper_truncation():
    p4 = std_params(depth=4)
    p6 = std_params(depth=6)
    centers, radii = sample_ball_centers(p4, 300, seed=7)
    r4 = doubling_ratios(p4, centers, radii)
    r6 = doubling_ratios(p6, centers, radii)
    assert np.all(np.isfinite(r4)) and np.all(np.isfinite(r6))
    assert np.all(r4 >= 1.0 - 1e-12)
    sup4, sup6 = r4.max(), r6.max()
    assert sup6 <= 1.5 * sup4 and sup4 <= 1.5 * sup6


@st.composite
def _balls(draw):
    K = draw(st.sampled_from((2, 3, 4)))
    depth = draw(st.integers(1, 6))
    lam = draw(st.sampled_from((-0.5, 0.0, 1.0)))
    p = TreeParams(K, LN2, 2.0 * math.log(K) + 0.3, lam, depth)
    level = draw(st.integers(0, depth - 1))
    index = draw(st.integers(0, K ** (level + 1) - 1))
    offset = draw(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))
    radius = p.diameter * 10.0 ** draw(st.floats(-3.0, math.log10(2.0)))
    return p, EdgePoint(level, index, offset), radius


@settings(max_examples=300, deadline=None)
@given(ball=_balls())
def test_ball_measure_matches_per_edge_oracle(ball):
    p, center, radius = ball
    oracle = _per_edge_ball_measure(p, center, radius)
    assert oracle > 0
    assert ball_measure(p, center, radius) == pytest.approx(oracle, rel=1e-13, abs=0)


def test_ball_measure_independent_of_child_index():
    for K, depth in ((2, 5), (3, 4)):
        p = TreeParams(K, LN2, 2.0 * math.log(K) + 0.3, 1.0, depth)
        for level in range(depth):
            for radius in (0.05, 0.6, 1.9):
                masses = [
                    ball_measure(p, EdgePoint(level, i, 0.3), radius)
                    for i in range(K ** (level + 1))
                ]
                oracle = _per_edge_ball_measure(p, EdgePoint(level, 0, 0.3), radius)
                assert masses == pytest.approx([oracle] * len(masses), rel=1e-13, abs=0)


def test_ball_measure_nan_radius_rejected_and_inf_is_total_mass():
    p = std_params(depth=3)
    with pytest.raises(ValueError, match="radius must be positive"):
        ball_measure(p, EdgePoint(1, 2, 0.5), math.nan)
    centers = [EdgePoint(1, 2, 0.5), EdgePoint(0, 1, 0.2)]
    with pytest.raises(ValueError, match="radius must be positive"):
        doubling_ratios(p, centers, [0.5, math.nan])
    with pytest.raises(ValueError, match="radius must be positive"):
        doubling_ratios(p, centers, [0.5, 0.0])
    with pytest.raises(ValueError, match="one radius per center"):
        doubling_ratios(p, centers, [0.5])
    assert ball_measure(p, EdgePoint(1, 2, 0.5), math.inf) == pytest.approx(
        truncated_mass(p), rel=1e-12
    )
    assert np.array_equal(doubling_ratios(p, centers, [math.inf] * 2), [1.0, 1.0])


def test_doubling_ratios_memory_is_quadratic_in_the_depth():
    # each chunk of balls takes its class counts from its own center levels:
    # at depth 150 the (N, N + 2, N) table of every center level alone took
    # 27 MB, and the call peaked at 91 MB
    p = std_params(depth=150)
    centers, radii = sample_ball_centers(p, 20, 0)
    tracemalloc.start()
    try:
        ratios = doubling_ratios(p, centers, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(ratios)) and np.all(ratios >= 1.0)
    assert peak < 12e6


@pytest.mark.parametrize("shift", [10, 20, 30, 40])
def test_ball_measure_is_self_similar_deep_in_the_tree(shift):
    # at lambda2 = 0 the subtree below a level-L vertex is the whole tree
    # with distances scaled by e^(-eps L) and masses by e^(-beta L)
    eps = LN2
    beta = 2.0 * LN2
    top = ball_measure(TreeParams(2, eps, beta, 0.0, 20), EdgePoint(6, 5, 0.5), 0.1)
    deep = ball_measure(
        TreeParams(2, eps, beta, 0.0, 20 + shift),
        EdgePoint(6 + shift, 5, 0.5),
        0.1 * math.exp(-eps * shift),
    )
    assert deep * math.exp(beta * shift) == pytest.approx(top, rel=1e-9)


@pytest.mark.parametrize("level", [530, 540])
def test_ball_mass_below_the_float_range_is_an_error(level):
    # the mass density e^(-beta t) underflows near t = 745 / beta: the ball
    # of radius 0.1 e^(-eps L) at the middle of a level-L edge had a
    # subnormal mass 1.1e-320 at L = 530 and 0 at L = 540, where its
    # doubling ratio was nan
    p = std_params(depth=560)
    r = 0.1 * math.exp(-LN2 * level)
    said = (
        f"the mass of the ball around a point on a level-{level} edge underflows"
        f" at radius = {r!r}"
    )
    center = EdgePoint(level, 0, 0.5)
    with pytest.raises(ValueError) as info:
        ball_measure(p, center, r)
    assert str(info.value) == said
    with pytest.raises(ValueError) as info:
        doubling_ratios(p, [center], [r])
    assert str(info.value) == said
    # 30 levels up the same ball still has a normal mass
    assert ball_measure(p, EdgePoint(500, 0, 0.5), 0.1 * math.exp(-LN2 * 500)) > 1e-303


def test_sample_ball_centers_past_the_int64_child_index():
    # K^(level + 1) passes int64 at level 39 for K = 3: every index is valid
    p = TreeParams(3, LN2, 2.0 * math.log(3) + 0.3, 0.0, 60)
    centers, radii = sample_ball_centers(p, 200, seed=1)
    assert max(c.level for c in centers) >= 40
    for c in centers:
        assert 0 <= c.child_index < 3 ** (c.level + 1)
    assert np.all(np.isfinite(doubling_ratios(p, centers, radii)))


def test_ball_measure_deep_tree():
    # K^N = 2^20 edges per level at the bottom: too many for a per-edge walk
    p = std_params(depth=20, lambda2=1.0)
    centers, _ = sample_ball_centers(p, 36, seed=3)
    centers += [EdgePoint(0, 0, 0.0), EdgePoint(19, 2**20 - 1, 1.0)]
    radii = p.diameter * np.array([1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0])
    total = truncated_mass(p)
    for c in centers:
        masses = [ball_measure(p, c, r) for r in radii]
        assert 0 < masses[0] and all(a <= b for a, b in zip(masses, masses[1:]))
        assert masses[0] < masses[2] < masses[-1]
        assert masses[-1] == pytest.approx(total, rel=1e-12)
    r = [float(x) for x in np.resize(radii[:-1], len(centers))]
    ratios = doubling_ratios(p, centers, r)
    assert np.all(np.isfinite(ratios)) and np.all(ratios >= 1.0)


@pytest.mark.parametrize("epsilon, beta", [(36.7, 50.0), (37.0, 50.0), (40.0, 50.0), (50.0, 60.0)])
def test_ball_masses_at_large_epsilon_sum_the_edge_masses(epsilon, beta):
    # past epsilon = 36.7, 1 - e^(-epsilon) rounds to 1, so an interval end
    # clipped to an edge's length was put at level offset -log1p(-1) = inf:
    # the total mass at epsilon = 40 was NaN, not the edge-mass sum 0.0389
    p = TreeParams(2, epsilon, beta, 0.0, 4)
    total = truncated_mass(p)
    for c in (EdgePoint(0, 0, 0.5), EdgePoint(1, 2, 0.25), EdgePoint(3, 15, 0.9)):
        assert ball_measure(p, c, math.inf) == pytest.approx(total, rel=1e-15, abs=0)
        assert ball_measure(p, c, p.diameter) == pytest.approx(total, rel=1e-15, abs=0)
    centers, radii = sample_ball_centers(p, 200, seed=0)
    ratios = doubling_ratios(p, centers, radii)
    assert np.all(np.isfinite(ratios)) and np.all(ratios >= 1.0 - 1e-12)


@pytest.mark.parametrize("epsilon", [0.005, 0.0057])
def test_ahlfors_ratio_below_the_float_range_names_epsilon_and_q(epsilon):
    # (2/epsilon)^Q with Q = log K / epsilon overflows once
    # Q log(2/epsilon) > 709.8; it raised a bare OverflowError
    p = TreeParams(2, epsilon, 1.0, 0.0, 7)
    q = LN2 / epsilon
    with pytest.raises(ValueError) as info:
        ahlfors_ratio(p, 0)
    assert str(info.value) == (
        f"the level-0 ratio K^(-n) / diameter^Q (Q = log K / epsilon = {q:.6g})"
        f" underflows at epsilon = {epsilon!r}"
    )
