import math

import numpy as np
import pytest
from scipy import integrate

from treetrace import (
    TreeFunction,
    YoungPhi,
    edge_measure,
    luxemburg_gauge,
    gradient_lphi_modular,
    make_tree_params,
    newtonian_norm,
    tree_lphi_modular,
    tree_measure,
    upper_gradient_edges,
    vertex_distance,
)
import treetrace.tree_norms as tree_norms
from treetrace.harness import generate

LN2 = math.log(2.0)


def std_params(depth, K=2, lambda2=0.0, quad_order=8):
    return make_tree_params(K, LN2, 2 * LN2, lambda2, depth, quad_order)


def constant_tree(K, depth, c):
    return TreeFunction(K, depth, [np.full(K**n, c) for n in range(depth + 1)])


def unit_indicator_extension():
    """Cell averages of the indicator of one depth-2 cell on the binary tree."""
    return TreeFunction(2, 2, [[0.25], [0.5, 0.0], [1.0, 0.0, 0.0, 0.0]])


# ------------------------------------------------------------- edge gradients


def test_gradients_zero_for_constant():
    p = std_params(3)
    grads = upper_gradient_edges(constant_tree(2, 3, 5.0), p)
    assert all(np.all(g == 0.0) for g in grads)


def test_gradient_difference_quotient_value():
    p = std_params(2)
    F = unit_indicator_extension()
    grads = upper_gradient_edges(F, p)
    # |1/2 - 1/4| / edge_length(0) = ln2 / 2
    assert grads[0][0] == pytest.approx(LN2 / 2.0, rel=1e-12)
    assert grads[0][0] == pytest.approx(0.25 / 0.7213475204444817, rel=1e-12)


def test_gradient_scaling():
    p = std_params(3)
    F = generate("random-vertex", K=2, depth=3, seed=0)
    G = F.scaled(-4.0)
    for gf, gg in zip(upper_gradient_edges(F, p), upper_gradient_edges(G, p)):
        assert np.allclose(gg, 4.0 * gf, rtol=1e-14)


def test_upper_gradient_inequality_random_pairs():
    # |F(z) - F(y)| <= sum of gradient * length along the connecting geodesic
    p = std_params(5)
    F = generate("random-vertex", K=2, depth=5, seed=1)
    grads = upper_gradient_edges(F, p)
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
            return F.levels[len(addr)][idx]

        assert abs(value_at(z) - value_at(y)) <= path + 1e-9
        assert vertex_distance(p, z, y) >= 0  # addresses are valid


# ------------------------------------------------------------- tree modulars


def test_tree_modular_constant_function():
    p = std_params(4, lambda2=1.0)
    c = 1.7
    F = constant_tree(2, 4, c)
    expected = c**2 * tree_measure(p)
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
            fp = F.levels[n][child // 2]
            fc = F.levels[n + 1][child]
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


def test_tree_modular_matches_tenfold_quadrature_order():
    lo = std_params(3, lambda2=-1.0, quad_order=8)
    hi = std_params(3, lambda2=-1.0, quad_order=80)
    F = generate("random-vertex", K=2, depth=3, seed=4)
    phi = YoungPhi(2.0, 1.0)
    assert tree_lphi_modular(F, lo, phi) == pytest.approx(
        tree_lphi_modular(F, hi, phi), rel=1e-10
    )


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
    expected = sum(
        edge_measure(p, n) * float(np.sum((g**2) * np.log(math.e + g) ** -1.0))
        for n, g in enumerate(grads)
    )
    assert gradient_lphi_modular(F, p, phi) == pytest.approx(expected, rel=1e-12)


def test_modulars_reject_nonpositive_scale():
    p = std_params(2)
    F = constant_tree(2, 2, 1.0)
    with pytest.raises(ValueError):
        tree_lphi_modular(F, p, YoungPhi(2.0), k=0.0)
    with pytest.raises(ValueError):
        gradient_lphi_modular(F, p, YoungPhi(2.0), k=-1.0)


# ------------------------------------------------------------ newtonian norm


def test_newtonian_norm_constant():
    p = std_params(3)
    c = 2.0
    F = constant_tree(2, 3, c)
    expected = c * math.sqrt(tree_measure(p))  # gauge of c under t^2, plus zero
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
        assert newtonian_norm(F.scaled(c), p, phi) == pytest.approx(c * base, rel=1e-9)


@pytest.mark.parametrize("c", [1e-100, 1e100])
def test_newtonian_norm_homogeneous_far_from_one(c):
    p = std_params(3, lambda2=1.0)
    F = generate("random-vertex", K=2, depth=3, seed=7)
    phi = YoungPhi(2.0, 1.0)
    base = newtonian_norm(F, p, phi)
    assert newtonian_norm(F.scaled(c), p, phi) == pytest.approx(c * base, rel=1e-9)


@pytest.mark.parametrize("lambda1, most", [(1.0, 8), (0.0, 5)])
def test_newtonian_norm_gauge_evaluations(monkeypatch, lambda1, most):
    # K = 2, N = 12: each of the two gauges needs few modular evaluations
    counts = []

    def counted_gauge(rho, *args):
        calls = [0]

        def counted_rho(k):
            calls[0] += 1
            return rho(k)

        out = luxemburg_gauge(counted_rho, *args)
        counts.append(calls[0])
        return out

    monkeypatch.setattr(tree_norms, "luxemburg_gauge", counted_gauge)
    u = generate("iid-uniform", K=2, depth=12, seed=0)
    newtonian_norm(_extend_boundary(u.values, 12), std_params(12), YoungPhi(2.0, lambda1))
    assert len(counts) == 2
    assert max(counts) <= most


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


def test_tree_function_shape_validation():
    with pytest.raises(ValueError):
        TreeFunction(2, 2, [[0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        TreeFunction(2, 1, [[0.0], [0.0, math.inf]])
    p = std_params(3)
    with pytest.raises(ValueError):
        tree_lphi_modular(constant_tree(2, 2, 1.0), p, YoungPhi(2.0))


def test_tree_function_csv_roundtrip(tmp_path):
    F = generate("random-vertex", K=3, depth=2, seed=8)
    path = tmp_path / "F.csv"
    F.to_csv(path)
    G = TreeFunction.from_csv(path)
    assert G.K == F.K and G.depth == F.depth
    for a, b in zip(G.levels, F.levels):
        assert np.array_equal(a, b)
