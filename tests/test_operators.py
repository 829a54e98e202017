import math

import numpy as np
import pytest

from treetrace import (
    BoundaryFunction,
    EnergyParams,
    TreeParams,
    YoungPhi,
    dyadic_orlicz_modular,
    extend,
    generate,
    gradient_lphi_modular,
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


def test_level_averages_are_computed_once_read_only_and_shared_with_extend():
    u = BoundaryFunction(2, 4, np.random.default_rng(1).uniform(size=16))
    averages = u.level_averages()
    assert u.level_averages() is averages
    with pytest.raises(ValueError, match="read-only"):
        averages[0] = 0.0
    assert extend(u).values is averages


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


def test_gradient_energy_comparison_stable_in_depth():
    # the gradient modular of an extension tracks the dyadic Orlicz energy
    # of the boundary datum, uniformly over the truncation depth
    phi = YoungPhi(2.0, 1.0)
    ratios, depths = [], []
    for depth in range(4, 9):
        tp = TreeParams(2, LN2, 2 * LN2, 0.0, depth)
        ep = EnergyParams(theta=0.5, p=2.0, epsilon=LN2, lambda1=1.0)
        for seed in range(5):
            u = generate("iid-uniform", K=2, depth=depth, seed=seed)
            ratio = gradient_lphi_modular(extend(u), tp, phi) / dyadic_orlicz_modular(u, ep)
            ratios.append(ratio)
            depths.append(depth)
    ratios = np.asarray(ratios)
    assert ratios.max() / ratios.min() < 100.0
    assert abs(fit_log_slope(depths, ratios)) < 0.1
