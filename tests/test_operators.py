import math

import numpy as np
import pytest

from treetrace import (
    BoundaryFunction,
    EnergyParams,
    YoungPhi,
    dyadic_orlicz_modular,
    extend,
    generate,
    gradient_lphi_modular,
    make_tree_params,
    star_majorant,
    trace,
)
from treetrace.harness import fit_log_slope

LN2 = math.log(2.0)


def test_extension_hand_values():
    u = BoundaryFunction(2, 2, [1.0, 0.0, 0.0, 0.0])
    F = extend(u)
    assert list(F.values) == [0.25, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0]


def test_extension_of_constant_is_constant():
    u = BoundaryFunction(3, 2, np.full(9, 1.5))
    F = extend(u)
    assert F.values.size == 13 and np.all(F.values == 1.5)


def test_trace_of_constant():
    F = extend(BoundaryFunction(2, 3, np.full(8, -2.0)))
    assert np.all(trace(F).values == -2.0)
    # trace copies the leaves, so the two functions share no memory
    assert not np.shares_memory(trace(F).values, F.values)


@pytest.mark.parametrize("K,depth", [(2, 1), (2, 5), (3, 3)])
def test_roundtrip_identity_bitwise(K, depth):
    rng = np.random.default_rng(depth * 10 + K)
    u = BoundaryFunction(K, depth, rng.uniform(size=K**depth))
    v = trace(extend(u))
    assert np.array_equal(v.values, u.values)


def test_operators_linear():
    rng = np.random.default_rng(0)
    u = BoundaryFunction(2, 4, rng.uniform(size=16))
    v = BoundaryFunction(2, 4, rng.uniform(size=16))
    a, b = 2.5, -1.25
    comb = BoundaryFunction(2, 4, a * u.values + b * v.values)
    Fu, Fv, Fc = extend(u), extend(v), extend(comb)
    assert np.max(np.abs(Fc.values - (a * Fu.values + b * Fv.values))) <= 1e-12
    tc = trace(Fc).values
    assert np.max(np.abs(tc - (a * trace(Fu).values + b * trace(Fv).values))) <= 1e-12


def test_star_majorant_hand_value():
    F = extend(BoundaryFunction(2, 2, [1.0, 0.0, 0.0, 0.0]))
    # 1/4 + |1/2 - 1/4| + |1 - 1/2| = 1
    assert star_majorant(F, (0, 0)) == pytest.approx(1.0, abs=1e-15)
    assert star_majorant(F, (1, 1)) == pytest.approx(0.25 + 0.25 + 0.0)


def test_star_majorant_constant():
    F = extend(BoundaryFunction(2, 3, np.full(8, -3.0)))
    for leaf in ((0, 0, 0), (1, 0, 1)):
        assert star_majorant(F, leaf) == pytest.approx(3.0)


def test_star_majorant_dominates_trace():
    for seed in range(100):
        F = generate("random-vertex", K=2, depth=4, seed=seed)
        tr = trace(F).values
        for i in range(16):
            digits = tuple(int(c) for c in format(i, "04b"))
            assert star_majorant(F, digits) >= abs(tr[i]) - 1e-12


def test_star_majorant_rejects_short_address():
    F = extend(BoundaryFunction(2, 3, np.zeros(8)))
    with pytest.raises(ValueError):
        star_majorant(F, (0, 1))


def test_gradient_energy_comparison_stable_in_depth():
    # the gradient modular of an extension tracks the dyadic Orlicz energy
    # of the boundary datum, uniformly over the truncation depth
    phi = YoungPhi(2.0, 1.0)
    ratios, depths = [], []
    for depth in range(4, 9):
        tp = make_tree_params(2, LN2, 2 * LN2, 0.0, depth)
        ep = EnergyParams(theta=0.5, p=2.0, epsilon=LN2, lambda2=0.0)
        for seed in range(5):
            u = generate("iid-uniform", K=2, depth=depth, seed=seed)
            ratio = gradient_lphi_modular(extend(u), tp, phi) / dyadic_orlicz_modular(
                u, ep, phi
            )
            ratios.append(ratio)
            depths.append(depth)
    ratios = np.asarray(ratios)
    assert ratios.max() / ratios.min() < 100.0
    assert abs(fit_log_slope(depths, ratios)) < 0.1
