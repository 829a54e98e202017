"""Scale and symmetry invariants of the norms, energies and the Hajlasz
program, checked on random functions without a reference implementation.

* Scaling by a power of two commutes with rounding, so a gauge norm of
  2^e u is 2^e times that of u, bit for bit, and so is every Hajlasz
  minimizer: each block is solved in its own power-of-two unit.  The
  Hajlasz value of 2^c f is then 2^(pc) times that of f, bit for bit at
  p = 2 (squares and sums scale exactly) and within 1e-12 at other p
  (where g^p rounds), or a ValueError where it leaves the normal range.
  So is every energy and modular of degree p at lambda1 = 0, within
  1e-12 in log form; below the float range they still read 0 (ROADMAP
  item 14).
* Permuting the children of a vertex is an automorphism of the tree, so
  it moves every modular and energy by rounding only, every gauge within
  its bracket and every Hajlasz value within its certified gaps.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treetrace.hajlasz as hajlasz
import treetrace.young as young
from treetrace import (
    BoundaryFunction,
    EnergyParams,
    ExperimentConfig,
    HajlaszInstance,
    double_integral_energy,
    double_integral_is_exact,
    dyadic_energy,
    dyadic_orlicz_modular,
    extend,
    generate,
    gradient_lphi_modular,
    hajlasz_minimize,
    newtonian_norm,
    orlicz_besov_norm,
)

LN2 = math.log(2.0)
# (p, lambda1) of the gauges: powers and one Orlicz function of each sign
EXPONENTS = [(2.0, 0.0), (2.0, 1.0), (1.5, 0.0), (3.0, 1.0)]


@st.composite
def functions(draw, max_depth=5):
    K = draw(st.sampled_from([2, 3]))
    depth = draw(st.integers(1, max_depth if K == 2 else max_depth - 1))
    family = draw(st.sampled_from(["iid-uniform", "lacunary", "cell-indicator"]))
    seed = draw(st.integers(0, 1000))
    return generate(family, K=K, depth=depth, seed=seed, epsilon=LN2, theta=0.5)


def _scaled(f, e):
    return BoundaryFunction(f.K, f.depth, np.ldexp(f.values, e))


def _gauges(f, p, lambda1):
    cfg = ExperimentConfig(K=f.K, p=p, lambda1=lambda1)
    ep, phi = cfg.energy_params(), cfg.phi()
    return (
        orlicz_besov_norm(f, ep),
        newtonian_norm(extend(f), cfg.tree_params(f.depth), phi),
    )


@settings(max_examples=60, deadline=None)
@given(f=functions(), exponents=st.sampled_from(EXPONENTS), e=st.integers(-600, 600))
def test_gauges_scale_exactly_by_powers_of_two(f, exponents, e):
    at_f = _gauges(f, *exponents)
    assert _gauges(_scaled(f, e), *exponents) == tuple(math.ldexp(v, e) for v in at_f)


@settings(max_examples=100, deadline=None)
@given(
    f=functions(max_depth=4),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    c=st.integers(-700, 700),
)
def test_hajlasz_value_scales_by_the_pth_power_or_is_refused(f, p, c):
    sol = hajlasz_minimize(HajlaszInstance(f, 0.5, p, LN2))
    assert all(b.rel_gap <= hajlasz._REL_TOL for b in sol.blocks.values())
    scaled = HajlaszInstance(_scaled(f, c), 0.5, p, LN2)
    if not sol.blocks:
        assert hajlasz_minimize(scaled).value == 0.0
        return
    # log2 of the value of the scaled instance
    log2_value = math.log2(sol.value) + p * c
    if abs(log2_value) >= 1100:
        with pytest.raises(ValueError, match=f"at p = {p:g} of"):
            hajlasz_minimize(scaled)
    elif abs(log2_value) <= 900:
        got = hajlasz_minimize(scaled)
        assert all(b.rel_gap <= hajlasz._REL_TOL for b in got.blocks.values())
        assert got.iterations == sol.iterations
        for k in sol.g:
            assert np.array_equal(got.g[k], np.ldexp(sol.g[k], c)), k
        if p == 2.0:
            assert got.value == math.ldexp(sol.value, 2 * c)
        else:
            whole, part = divmod(p * c, 1.0)
            expected = math.ldexp(sol.value * 2.0**part, int(whole))
            assert abs(got.value - expected) <= 1e-12 * expected


def _energies(K, depth, p):
    """The energies and modulars of degree p at lambda1 = 0, by name, each
    as a map from a boundary function to its value."""
    ep = EnergyParams(theta=0.5, p=p, epsilon=LN2)
    tree = ExperimentConfig(K=K, p=p).tree_params(depth)
    return {
        "dyadic_energy": lambda u: dyadic_energy(u, ep),
        "dyadic_orlicz_modular": lambda u: dyadic_orlicz_modular(u, ep),
        "gradient_lphi_modular": lambda u: gradient_lphi_modular(extend(u), tree, ep.phi),
        "double_integral_energy": lambda u: double_integral_energy(u, ep),
    }


def _assert_scales_by_the_pth_power(energy, f, p, e):
    """energy(2^e f) is 2^(pe) energy(f), within 1e-12 in log2, where
    that lies well inside the float range; a ValueError naming p only near
    or past its top; below it, no more than a tiny value."""
    value = energy(f)
    if value == 0.0:  # a constant function
        assert energy(_scaled(f, e)) == 0.0
        return
    log2_value = math.log2(value) + p * e
    try:
        got = energy(_scaled(f, e))
    except ValueError as err:
        assert f"p = {p:g}" in str(err)
        assert log2_value > 900.0, err
        return
    if log2_value >= -900.0:
        assert abs(math.log2(got) - log2_value) <= 1e-12, (got, log2_value)
    else:
        assert got <= 2.0**-880


# p in [1, 8] in steps of 1/16, so that p * e is exact
EXPONENT_P = st.integers(16, 128).map(lambda k: k / 16)


@settings(max_examples=60, deadline=None)
@given(
    f=functions(max_depth=6),
    name=st.sampled_from(sorted(_energies(2, 1, 2.0))),
    p=EXPONENT_P,
    e=st.integers(-600, 600),
)
def test_energies_scale_by_the_pth_power_or_are_refused(f, name, p, e):
    if name == "double_integral_energy":
        p = float(round(p))  # the closed form, at every depth
    _assert_scales_by_the_pth_power(_energies(f.K, f.depth, p)[name], f, p, e)


@settings(max_examples=20, deadline=None)
@given(f=functions(max_depth=4), e=st.integers(-600, 600))
def test_enumerated_double_sum_scales_by_the_pth_power_or_is_refused(f, e):
    energy = _energies(f.K, f.depth, 2.5)["double_integral_energy"]
    _assert_scales_by_the_pth_power(energy, f, 2.5, e)


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 14: a value below the float range reads 0"
)
@pytest.mark.parametrize("name", sorted(_energies(2, 1, 2.0)))
def test_energies_below_the_float_range_are_refused(name):
    f = generate("lacunary", K=2, depth=3, seed=0, epsilon=LN2, theta=0.5)
    with pytest.raises(ValueError, match="p = 8"):
        _energies(2, 3, 8.0)[name](_scaled(f, -600))


@st.composite
def automorphisms(draw, max_depth=5):
    """A function and its image under a random permutation of the children
    of one vertex."""
    f = draw(functions(max_depth))
    K, N = f.K, f.depth
    level = draw(st.integers(0, N - 1))
    vertex = draw(st.integers(0, K**level - 1))
    order = draw(st.permutations(range(K)))
    values = f.values.reshape(K**level, K, -1).copy()
    values[vertex] = values[vertex][list(order)]
    return f, BoundaryFunction(K, N, values.ravel())


def _assert_close(a, b, rtol):
    assert abs(a - b) <= rtol * max(abs(a), abs(b)), (a, b)


@settings(max_examples=60, deadline=None)
@given(pair=automorphisms(), exponents=st.sampled_from(EXPONENTS))
def test_automorphisms_keep_modulars_and_gauges(pair, exponents):
    f, g = pair
    p, lambda1 = exponents
    cfg = ExperimentConfig(K=f.K, p=p, lambda1=lambda1)
    ep = cfg.energy_params()
    plain = EnergyParams(theta=ep.theta, p=p, epsilon=ep.epsilon)
    modulars = [lambda u: dyadic_energy(u, ep), lambda u: dyadic_orlicz_modular(u, ep)]
    if double_integral_is_exact(f.K, f.depth, p):
        modulars.append(lambda u: double_integral_energy(u, plain))
    for modular in modulars:
        _assert_close(modular(f), modular(g), 1e-14)
    # each gauge lies within its bracket, _TOL relative, of its modular's
    # root, and the two roots agree to rounding
    for a, b in zip(_gauges(f, p, lambda1), _gauges(g, p, lambda1)):
        _assert_close(a, b, 2.0 * young._TOL)


@settings(max_examples=60, deadline=None)
@given(pair=automorphisms(max_depth=4), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_automorphisms_keep_the_hajlasz_value_within_its_gaps(pair, p):
    a, b = (hajlasz_minimize(HajlaszInstance(u, 0.5, p, LN2)) for u in pair)
    assert a.blocks.keys() == b.blocks.keys()
    gaps = [r.rel_gap for sol in (a, b) for r in sol.blocks.values()]
    assert max(gaps, default=0.0) <= hajlasz._REL_TOL
    # each value is within its largest block gap of the optimum, from above
    _assert_close(a.value, b.value, 2.0 * hajlasz._REL_TOL)
