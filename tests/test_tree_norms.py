import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from treetrace import (
    TreeFunction,
    TreeParams,
    YoungPhi,
    edge_length,
    edge_measure,
    luxemburg_gauge,
    gradient_lphi_modular,
    newtonian_norm,
    tree_lphi_modular,
    upper_gradient_edges,
)
import treetrace.tree_norms as tree_norms
from treetrace.tree import QUAD_ORDER, edge_quadrature
from treetrace.address import level_slice
from treetrace.young import _CHUNK
from treetrace.harness import generate

LN2 = math.log(2.0)


def std_params(depth, K=2, lambda2=0.0):
    return TreeParams(K, LN2, 2 * LN2, lambda2, depth)


def truncated_mass(params):
    """Mass of the truncated tree: K^(n+1) edges of mass edge_measure(n) per level."""
    return sum(params.K ** (n + 1) * edge_measure(params, n) for n in range(params.depth))


def scaled(F, c):
    return TreeFunction(F.K, F.depth, c * F.values)


def constant_tree(K, depth, c):
    return TreeFunction(K, depth, np.full(level_slice(K, depth).stop, c))


def unit_indicator_extension():
    """Cell averages of the indicator of one depth-2 cell on the binary tree."""
    return TreeFunction(2, 2, [0.25, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0])


# ------------------------------------------------------------- edge gradients


def test_gradients_zero_for_constant():
    p = std_params(3)
    grads = upper_gradient_edges(constant_tree(2, 3, 5.0), p)
    assert grads.shape == (7, 2) and np.all(grads == 0.0)


def test_gradient_difference_quotient_value():
    p = std_params(2)
    F = unit_indicator_extension()
    grads = upper_gradient_edges(F, p)
    # row 0 holds the root's edges: |1/2 - 1/4| / edge_length(0) = ln2 / 2
    assert grads[0][0] == pytest.approx(LN2 / 2.0, rel=1e-12)
    assert grads[0][0] == pytest.approx(0.25 / 0.7213475204444817, rel=1e-12)


def test_gradient_scaling():
    p = std_params(3)
    F = generate("random-vertex", K=2, depth=3, seed=0)
    G = scaled(F, -4.0)
    gf, gg = upper_gradient_edges(F, p), upper_gradient_edges(G, p)
    assert np.allclose(gg, 4.0 * gf, rtol=1e-14)


def test_upper_gradient_inequality_random_pairs():
    # |F(z) - F(y)| <= sum of gradient * length along the connecting geodesic
    p = std_params(5)
    F = generate("random-vertex", K=2, depth=5, seed=1)
    grads = upper_gradient_edges(F, p)
    # the level n -> n + 1 edges, indexed by the child within its level
    grads = [grads[level_slice(2, n)].reshape(-1) for n in range(5)]
    lengths = [(1 - math.exp(-LN2)) / LN2 * math.exp(-LN2 * n) for n in range(5)]
    rng = np.random.default_rng(2)
    for _ in range(1000):
        nz, ny = rng.integers(0, 6, size=2)
        z = tuple(rng.integers(0, 2, size=nz))
        y = tuple(rng.integers(0, 2, size=ny))
        k = 0
        for a, b in zip(z, y):
            if a != b:
                break
            k += 1
        path = 0.0
        for addr in (z, y):
            idx = 0
            for lev, d in enumerate(addr, start=1):
                idx = idx * 2 + d
                if lev > k:
                    path += grads[lev - 1][idx] * lengths[lev - 1]

        def value_at(addr):
            idx = 0
            for d in addr:
                idx = idx * 2 + d
            return F.values[level_slice(2, len(addr))][idx]

        assert abs(value_at(z) - value_at(y)) <= path + 1e-9


# ------------------------------------------------------------- tree modulars


def test_tree_modular_constant_function():
    p = std_params(4, lambda2=1.0)
    c = 1.7
    F = constant_tree(2, 4, c)
    expected = c**2 * truncated_mass(p)
    assert tree_lphi_modular(F, p, YoungPhi(2.0)) == pytest.approx(expected, rel=1e-12)


def test_tree_modular_zero_function():
    p = std_params(3)
    assert tree_lphi_modular(constant_tree(2, 3, 0.0), p, YoungPhi(2.0, 1.0)) == 0.0


def test_tree_modular_against_adaptive_quadrature():
    p = std_params(2, lambda2=1.0)
    F = generate("random-vertex", K=2, depth=2, seed=3)
    phi = YoungPhi(2.0, 1.0)
    eps, beta, c_shift = p.epsilon, p.beta, p.C_const

    def arc(t):
        return (1.0 - math.exp(-eps * t)) / eps

    total = 0.0
    for n in range(2):
        for child in range(2 ** (n + 1)):
            fp = F.values[level_slice(2, n)][child // 2]
            fc = F.values[level_slice(2, n + 1)][child]
            slope = (fc - fp) / (arc(n + 1) - arc(n))

            def integrand(t):
                val = abs(fp + slope * (arc(t) - arc(n)))
                return (
                    val**2
                    * math.log(math.e + val)
                    * math.exp(-beta * t)
                    * (t + c_shift)
                )

            part, err = integrate.quad(integrand, n, n + 1, epsabs=1e-13, epsrel=1e-12)
            total += part
    assert tree_lphi_modular(F, p, phi) == pytest.approx(total, rel=1e-10)


@pytest.mark.parametrize("K, depth", [(2, 6), (3, 4), (9, 2), (4, 3)])
def test_tree_modular_amplitudes_match_the_per_level_oracle_bitwise(monkeypatch, K, depth):
    # the slopes are kept in the amplitude array itself; at K >= QUAD_ORDER
    # the nodes of every level overlap its slopes
    params = TreeParams(K, LN2, math.log(K) + 1.0, 0.5, depth)
    F = TreeFunction(K, depth, np.random.default_rng(K).normal(size=level_slice(K, depth).stop))
    monkeypatch.setattr(tree_norms, "YoungModular", lambda phi, a, segments: (a, segments))
    a, segments = tree_norms._function_modular(F, params, YoungPhi(2.0))
    gx, gw = np.polynomial.legendre.leggauss(QUAD_ORDER)
    parts = []
    for n in range(depth):
        parents = F.values[level_slice(K, n)]
        children = F.values[level_slice(K, n + 1)].reshape(-1, K)
        t = 0.5 * (gx + 1.0)
        tau = n + t
        # the arclength of each node below the parent vertex
        eps = params.epsilon
        a_off = np.exp(-eps * n) * -np.expm1(-eps * t) / eps
        slopes = (children - parents[:, None]) / edge_length(params, n)
        parts.append(np.abs(slopes[:, :, None] * a_off + parents[:, None, None]).reshape(-1))
        weights = 0.5 * gw * np.exp(-params.beta * tau) * (tau + params.C_const) ** 0.5
        assert segments[n][0] == parts[-1].size
        assert np.array_equal(segments[n][1], weights)
    assert np.array_equal(a, np.concatenate(parts))


def test_tree_modular_matches_tenfold_quadrature_order():
    # the order-8 rule against an order-80 one on every edge
    p = std_params(3, lambda2=-1.0)
    F = generate("random-vertex", K=2, depth=3, seed=4)
    phi = YoungPhi(2.0, 1.0)
    gx, gw = np.polynomial.legendre.leggauss(10 * QUAD_ORDER)
    t = 0.5 * (gx + 1.0)
    hi = 0.0
    for n in range(3):
        parents = F.values[level_slice(2, n)]
        children = F.values[level_slice(2, n + 1)].reshape(-1, 2)
        slopes = (children - parents[:, None]) / edge_length(p, n)
        offsets = np.exp(-p.epsilon * n) * -np.expm1(-p.epsilon * t) / p.epsilon
        vals = np.abs(slopes[:, :, None] * offsets + parents[:, None, None])
        tau = n + t
        weights = 0.5 * gw * np.exp(-p.beta * tau) * (tau + p.C_const) ** -1.0
        hi += float(np.sum(phi(vals) * weights))
    assert tree_lphi_modular(F, p, phi) == pytest.approx(hi, rel=1e-10)


def test_gradient_modular_hand_sum():
    # extension of a depth-2 cell indicator: six edges, gradients
    # (ln2/2, ln2/2, 2ln2, 2ln2, 0, 0); quadratic sum is 15*ln2/16
    p = std_params(2)
    F = unit_indicator_extension()
    val = gradient_lphi_modular(F, p, YoungPhi(2.0))
    assert val == pytest.approx(15.0 * LN2 / 16.0, rel=1e-12)


def test_gradient_modular_is_exact_sum():
    p = std_params(4, lambda2=0.8)
    F = generate("random-vertex", K=2, depth=4, seed=5)
    phi = YoungPhi(2.0, -1.0)
    grads = upper_gradient_edges(F, p)
    levels = [grads[level_slice(2, n)] for n in range(4)]
    expected = sum(
        edge_measure(p, n) * float(np.sum((g**2) * np.log(math.e + g) ** -1.0))
        for n, g in enumerate(levels)
    )
    assert gradient_lphi_modular(F, p, phi) == pytest.approx(expected, rel=1e-12)


def test_modulars_reject_nonpositive_scale():
    p = std_params(2)
    F = constant_tree(2, 2, 1.0)
    with pytest.raises(ValueError):
        tree_lphi_modular(F, p, YoungPhi(2.0), k=0.0)
    with pytest.raises(ValueError):
        gradient_lphi_modular(F, p, YoungPhi(2.0), k=-1.0)


def test_modulars_reject_a_nan_scale_and_vanish_at_infinity():
    p = std_params(3)
    F = generate("random-vertex", K=2, depth=3, seed=1)
    for phi in (YoungPhi(2.0), YoungPhi(2.0, 1.0)):
        for modular in (tree_lphi_modular, gradient_lphi_modular):
            with pytest.raises(ValueError, match="k must be positive, got nan"):
                modular(F, p, phi, k=math.nan)
            assert modular(F, p, phi, k=math.inf) == 0.0


# ------------------------------------------------------------ newtonian norm


def test_newtonian_norm_constant():
    p = std_params(3)
    c = 2.0
    F = constant_tree(2, 3, c)
    expected = c * math.sqrt(truncated_mass(p))  # gauge of c under t^2, plus zero
    assert newtonian_norm(F, p, YoungPhi(2.0)) == pytest.approx(expected, rel=1e-9)


def test_newtonian_norm_quadratic_closed_form():
    p = std_params(4)
    F = generate("random-vertex", K=2, depth=4, seed=6)
    phi = YoungPhi(2.0)
    expected = math.sqrt(tree_lphi_modular(F, p, phi)) + math.sqrt(
        gradient_lphi_modular(F, p, phi)
    )
    assert newtonian_norm(F, p, phi) == pytest.approx(expected, rel=1e-9)


def test_newtonian_norm_homogeneous():
    p = std_params(3, lambda2=1.0)
    F = generate("random-vertex", K=2, depth=3, seed=7)
    phi = YoungPhi(2.0, 1.0)
    base = newtonian_norm(F, p, phi)
    for c in (0.01, 30.0):
        assert newtonian_norm(scaled(F, c), p, phi) == pytest.approx(c * base, rel=1e-9)


@pytest.mark.parametrize("c", [1e-100, 1e100])
def test_newtonian_norm_homogeneous_far_from_one(c):
    p = std_params(3, lambda2=1.0)
    F = generate("random-vertex", K=2, depth=3, seed=7)
    phi = YoungPhi(2.0, 1.0)
    base = newtonian_norm(F, p, phi)
    assert newtonian_norm(scaled(F, c), p, phi) == pytest.approx(c * base, rel=1e-9)


@pytest.mark.parametrize("lambda1, most", [(1.0, 8), (0.0, 5)])
def test_newtonian_norm_gauge_evaluations(monkeypatch, lambda1, most):
    # K = 2, N = 12: each of the two gauges needs few modular evaluations
    counts = []

    def counted_gauge(rho, *args, **kwargs):
        calls = [0]

        def counted_rho(k):
            calls[0] += 1
            return rho(k)

        out = luxemburg_gauge(counted_rho, *args, **kwargs)
        counts.append(calls[0])
        return out

    monkeypatch.setattr(tree_norms, "luxemburg_gauge", counted_gauge)
    u = generate("iid-uniform", K=2, depth=12, seed=0)
    newtonian_norm(_extend_boundary(u.values, 12), std_params(12), YoungPhi(2.0, lambda1))
    assert len(counts) == 2
    assert max(counts) <= most


def test_newtonian_norm_gauges_start_at_the_mean_field_root(monkeypatch):
    # K = 2, N = 10, p = 2: at lambda1 = 1 the gauge of the function modular
    # takes at most 4 evaluations from its mean-field start (7 from k = 1);
    # at lambda1 = 0 there is no start, and both gauges sample the k of
    # the solver from k = 1 and give the same norm to the last bit
    samples = []

    def recorded_gauge(rho, *args, **kwargs):
        ks = []

        def recorded_rho(k):
            ks.append(k)
            return rho(k)

        samples.append(ks)
        return luxemburg_gauge(recorded_rho, *args, **kwargs)

    monkeypatch.setattr(tree_norms, "luxemburg_gauge", recorded_gauge)
    F = _extend_boundary(generate("iid-uniform", K=2, depth=10, seed=0).values, 10)
    norm = newtonian_norm(F, std_params(10), YoungPhi(2.0, 1.0))
    assert len(samples) == 2 and len(samples[0]) <= 4
    assert norm == pytest.approx(13.477890177408504, rel=1e-10)
    samples.clear()
    assert newtonian_norm(F, std_params(10), YoungPhi(2.0)) == 8.457311177415708
    assert samples == [
        [1.0, 0.5, 0.7411361599716186, 0.7411361599419732],
        [1.0, 0.5, 0.02225325463656665, 0.022253254637456782],
    ]


def test_newtonian_norm_memory_is_two_amplitude_arrays_and_a_chunk():
    # K = 2, N = 16, lambda1 = 1: the function modular holds the amplitudes
    # a at the Gauss nodes of every edge and A = w a^p, one flat array each,
    # and evaluates in chunks of one scratch buffer; the gradient modular
    # comes after it, an eighth of its size
    depth = 16
    F = generate("random-vertex", K=2, depth=depth, seed=3)
    params = std_params(depth)
    amplitude_bytes = 8 * QUAD_ORDER * (2 ** (depth + 1) - 2)
    tracemalloc.start()
    try:
        newtonian_norm(F, params, YoungPhi(2.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # slack: the Python objects and per-level weights, far below a level's values
    assert peak <= 2 * amplitude_bytes + 8 * _CHUNK + 2**16


def _extend_boundary(values, depth):
    from treetrace import BoundaryFunction, extend

    return extend(BoundaryFunction(2, depth, values))


def test_newtonian_norm_monotone_under_deeper_truncation():
    # refine a fixed boundary datum (values repeated per leaf) and extend:
    # the gradient part freezes, the function part keeps gaining mass
    rng = np.random.default_rng(9)
    base = rng.uniform(size=16)
    phi = YoungPhi(2.0, 1.0)
    norms = []
    for depth in range(4, 8):
        values = np.repeat(base, 2 ** (depth - 4))
        F = _extend_boundary(values, depth)
        norms.append(newtonian_norm(F, std_params(depth), phi))
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


def test_level_tables_are_memoized_and_read_only():
    # one table per (TreeParams, level): equal parameters share it, and
    # the edge mass is read from it
    table = edge_quadrature(std_params(5), 3)
    assert edge_quadrature(std_params(5), 3) is table
    for arr in table[1:]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    hits = edge_quadrature.cache_info().hits
    assert edge_measure(std_params(5), 3) == float(np.sum(table[2]))
    assert edge_quadrature.cache_info().hits == hits + 1


def test_tree_function_shape_validation():
    with pytest.raises(ValueError, match="expected 7 values"):
        TreeFunction(2, 2, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        TreeFunction(2, 1, [0.0, 0.0, math.inf])
    # a float array is taken over, anything else converted
    values = np.zeros(3)
    assert TreeFunction(2, 1, values).values is values
    assert TreeFunction(2, 1, [0, 1, 2]).values.dtype == np.float64
    p = std_params(3)
    with pytest.raises(ValueError):
        tree_lphi_modular(constant_tree(2, 2, 1.0), p, YoungPhi(2.0))


def test_tree_function_csv_roundtrip(tmp_path):
    F = generate("random-vertex", K=3, depth=2, seed=8)
    path = tmp_path / "F.csv"
    F.to_csv(path)
    G = TreeFunction.from_csv(path)
    assert G.K == F.K and G.depth == F.depth
    assert np.array_equal(G.values, F.values)
