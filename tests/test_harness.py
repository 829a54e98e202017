import csv
import dataclasses
import errno
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import treetrace
import treetrace.hajlasz as hajlasz
from treetrace import (
    BoundaryFunction,
    EnergyParams,
    HajlaszInstance,
    TreeFunction,
    YoungPhi,
    dyadic_energy,
    dyadic_orlicz_modular,
    generate,
    hajlasz_minimize,
    indicator_function,
    load_config,
    lp_norm,
    orlicz_besov_norm,
    orlicz_norm,
    verify_ahlfors,
    verify_doubling,
    verify_equivalences,
    verify_extension_bound,
    verify_roundtrip,
    verify_trace_bound,
)
from treetrace.cli import main
from treetrace.harness import (
    BOUNDARY_FAMILIES,
    ColumnStats,
    ExperimentConfig,
    RatioReport,
    chi_exceed_fraction,
    fit_log_slope,
    generate_for,
    tail_constant,
)

LN2 = math.log(2.0)
# the domain that a refusal of each key names; the other keys' is "finite"
DOMAIN = {
    "K": "an integer at least 2",
    "depth": "an integer at least 1",
    "epsilon": "finite and positive",
    "p": "finite and at least 1",
}


# ----------------------------------------------------------------- generators


def test_indicator_function_hand_case():
    f = indicator_function(2, 2, (0, 0))
    assert list(f.values) == [1.0, 0.0, 0.0, 0.0]


def test_generate_deterministic():
    a = generate("iid-uniform", K=2, depth=4, seed=7)
    b = generate("iid-uniform", K=2, depth=4, seed=7)
    assert np.array_equal(a.values, b.values)
    c = generate("iid-uniform", K=2, depth=4, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_generate_ranges_and_types():
    f = generate("iid-uniform", K=2, depth=5, seed=0)
    assert isinstance(f, BoundaryFunction)
    assert np.all((f.values >= 0) & (f.values <= 1))
    g = generate("cell-indicator", K=3, depth=3, seed=1)
    assert set(np.unique(g.values)) <= {0.0, 1.0} and g.values.max() == 1.0
    h = generate("lacunary", K=2, depth=4, seed=2, epsilon=LN2, theta=0.5)
    assert isinstance(h, BoundaryFunction)
    F = generate("extension-of-boundary", K=2, depth=3, seed=3)
    assert isinstance(F, TreeFunction)
    G = generate("random-vertex", K=2, depth=3, seed=4)
    assert isinstance(G, TreeFunction)


def test_generate_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        generate("bogus", K=2, depth=3, seed=0)


@pytest.mark.parametrize(
    "family, key, value",
    [("cell-indicator", "depth", 0), ("iid-uniform", "K", 1), ("lacunary", "epsilon", -1.0)],
)
def test_generate_refuses_a_key_outside_its_domain(family, key, value):
    # depth 0 said "low >= high", and the lacunary family at epsilon = -1
    # summed layers that grow with the level
    args = {"K": 2, "depth": 3, "seed": 0, "epsilon": LN2, "theta": 0.5, key: value}
    with pytest.raises(ValueError, match=f"^{key} must be {DOMAIN[key]}, got {value!r}$"):
        generate(family, **args)


def test_lacunary_needs_scale_arguments():
    with pytest.raises(ValueError):
        generate("lacunary", K=2, depth=3, seed=0)


# -------------------------------------------------------------- configuration


def test_config_defaults_and_derived():
    cfg = ExperimentConfig()
    assert cfg.resolved_theta == pytest.approx(0.5)
    assert cfg.energy_params() == EnergyParams(theta=0.5, p=2.0, epsilon=LN2)
    ep = ExperimentConfig(lambda1=0.5, lambda2=0.25).energy_params()
    assert (ep.lambda1, ep.lambda2, ep.phi) == (0.5, 0.25, YoungPhi(2.0, 0.5))


# the three ratio drivers, each with the name it gives in its errors
RATIO_DRIVERS = [
    ("trace-bound", verify_trace_bound),
    ("extension-bound", verify_extension_bound),
    ("equivalence", verify_equivalences),
]
HYPOTHESIS = "needs p > (beta - log K)/epsilon > 0, that is 0 < theta < 1, but "


def test_config_rejects_bad_hypotheses():
    for check, driver in RATIO_DRIVERS:
        # p too small for the codimension
        with pytest.raises(ValueError, match=f"{check} needs p >"):
            driver(ExperimentConfig(p=1.0, seeds=(0,), depths=(3,)))
        # (p, lambda1) is checked first, by phi
        with pytest.raises(ValueError, match="lambda1"):
            driver(ExperimentConfig(p=1.0, beta=1.5 * LN2, lambda1=-1.0, seeds=(0,), depths=(3,)))


@pytest.mark.parametrize(
    "keys, got",
    [
        # 1 - (2 ln 2 - ln 2)/(ln 2 * 1) = 0
        ({"p": 1.0}, "theta = 1 - (beta - log K)/(epsilon p) = 0"),
        ({"epsilon": 1e-4, "beta": 0.7}, "1 - (beta - log K)/(epsilon p) = -33.2641"),
    ],
)
def test_equivalence_theta_error_names_the_resolved_value(keys, got):
    with pytest.raises(ValueError) as info:
        verify_equivalences(ExperimentConfig(**keys))
    assert str(info.value).startswith(f"equivalence {HYPOTHESIS}")
    assert got in str(info.value)


@pytest.mark.parametrize("check", [c for c, _ in RATIO_DRIVERS])
def test_ratio_drivers_reject_p_1_with_one_message_naming_the_check(tmp_path, capsys, check):
    # trace-bound and extension-bound said "trace/extension bounds need
    # p > (beta - log K)/epsilon > 0", equivalence "equivalence runs require
    # 0 < theta < 1": two messages for the one hypothesis
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("p = 1\nseeds = 0\ndepths = 3\n")
    assert main(["verify", check, "--config", str(cfg)]) == 2
    text = capsys.readouterr()
    assert text.err == (
        f"treetrace: error: {check} {HYPOTHESIS}theta = 1 - (beta - log K)/(epsilon p) = 0\n"
    )
    assert text.out == ""


def test_config_file_parsing(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# geometry\nK = 2\nepsilon = 0.6931471805599453\n"
        "beta = 1.0397207708399179\np = 2\nlambda1 = 1.0\n"
        "seeds = 0..3\ndepths = 3,4\nfamily = lacunary\n"
    )
    cfg = load_config(str(path))
    assert cfg.seeds == (0, 1, 2, 3)
    assert cfg.depths == (3, 4)
    assert cfg.lambda1 == 1.0
    assert cfg.family == "lacunary"
    # overrides win
    cfg2 = load_config(str(path), seeds=(9,), family="iid-uniform")
    assert cfg2.seeds == (9,) and cfg2.family == "iid-uniform"


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("frobnicate = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        # the second line won: this ran seed 5 alone
        ("seeds = 0..3\nseeds = 5\n", "line 2: seeds set twice, first on line 1"),
        ("seeds = 0\ndepths 4\n", "line 2: bad config line: depths 4"),
    ],
)
def test_config_file_rejects_a_malformed_line(tmp_path, text, message):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_config(str(path))
    assert str(err.value) == f"{path}, {message}"


def _config_text(value) -> str:
    """A field value as a config-file value."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def test_config_file_keys_are_the_config_fields(tmp_path):
    # every field set away from its default, written as one line each and
    # read back equal: the dataclass is the one list of config keys
    cfg = ExperimentConfig(
        K=3, epsilon=0.5, beta=1.75, p=2.5, lambda1=0.5, lambda2=0.25,
        family="lacunary", seeds=(1, 4), depths=(3, 5),
        n_balls=10, hajlasz_max_depth=3,
    )
    default = ExperimentConfig()
    path = tmp_path / "cfg.txt"
    lines = []
    for f in dataclasses.fields(ExperimentConfig):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        lines.append(f"{f.name} = {_config_text(getattr(cfg, f.name))}\n")
    path.write_text("".join(lines))
    assert load_config(str(path)) == cfg


@pytest.mark.parametrize("line, key", [("lambda = 1", "lambda"), ("N = 5", "N")])
def test_config_file_has_no_aliases(tmp_path, line, key):
    # `lambda` and `N` used to be read as `lam` and `depths`
    path = tmp_path / "cfg.txt"
    path.write_text(f"seeds = 0\n{line}\n")
    with pytest.raises(ValueError, match=rf"cfg\.txt, line 2: unknown config key '{key}'"):
        load_config(str(path))


def test_fit_log_slope_recovers_exponent():
    depths = [4, 5, 6, 7] * 3
    ratios = [math.exp(0.05 * d) for d in depths]
    assert fit_log_slope(depths, ratios) == pytest.approx(0.05, abs=1e-12)
    assert fit_log_slope([4, 4, 4], [1.0, 2.0, 3.0]) == 0.0


@pytest.mark.parametrize("size", [1, 2, 5, 6, 101, 1000])
def test_column_stats_median_is_numpys(size):
    rng = np.random.default_rng(size)
    depths = np.arange(size) % 2 + 3.0
    for values in (rng.lognormal(0.0, 3.0, size), rng.integers(0, 3, size) * 0.1):
        stats = ColumnStats.of(depths, values)
        assert stats.median.hex() == float(np.median(values)).hex()
        assert stats.slope is None if size == 1 else stats.slope is not None
    values = rng.uniform(size=size)
    values[size // 2] = math.nan
    assert math.isnan(ColumnStats.of(depths, values).median)
    assert math.isnan(float(np.median(values)))


def test_column_stats_of_one_depth_has_no_slope():
    stats = ColumnStats.of(np.full(4, 5.0), np.array([2.0, 1.0, 4.0, 3.0]))
    assert stats.slope is None
    assert stats.median == 2.5


def test_tail_constant_matches_direct_sum():
    eps, theta, p, lam = LN2, 0.5, 2.0, 1.0
    q = math.exp(eps * p * (theta - 1.0) / 2.0)
    direct = sum(q**n * n**lam for n in range(1, 4000))
    assert tail_constant(eps, theta, p, lam) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("lam", [1e308, 1e3, math.inf, math.nan])
def test_tail_constant_rejects_a_series_that_overflows(lam):
    # its terms overflowed into an OverflowError, or summed to inf and ran
    # a million terms into a RuntimeError
    with pytest.raises(ValueError, match="lam"):
        tail_constant(LN2, 0.5, 2.0, lam)


@pytest.mark.parametrize("key, value", [("epsilon", -1.0), ("p", math.nan)])
def test_tail_constant_refuses_a_key_outside_its_domain(key, value):
    # both said "theta must be below 1 for the tail series to converge"
    args = {"epsilon": LN2, "theta": 0.5, "p": 2.0, "lam": 1.0, key: value}
    with pytest.raises(ValueError, match=f"^{key} must be {DOMAIN[key]}, got {value!r}$"):
        tail_constant(**args)


def _chi_by_cells(f, theta, epsilon):
    """chi_exceed_fraction cell by cell: each cell of levels 1..depth
    against its parent, from the leaf values."""
    exceed = cells = 0
    for n in range(1, f.depth + 1):
        thr = math.exp(-epsilon * n * (theta + 1.0) / 2.0)
        avg = f.values.reshape(f.K**n, -1).mean(axis=1)
        parent = f.values.reshape(f.K ** (n - 1), -1).mean(axis=1)
        for c in range(f.K**n):
            cells += 1
            exceed += bool(abs(avg[c] - parent[c // f.K]) > thr)
    return exceed / cells


@pytest.mark.parametrize("K, depth", [(2, 5), (3, 3)])
@pytest.mark.parametrize("family", BOUNDARY_FAMILIES)
def test_chi_exceed_fraction_counts_the_cells_over_the_threshold(K, depth, family):
    fractions = []
    for seed in range(4):
        f = generate(family, K=K, depth=depth, seed=seed, epsilon=LN2, theta=0.5)
        fractions.append(chi_exceed_fraction(f, 0.5, LN2))
        assert fractions[-1] == _chi_by_cells(f, 0.5, LN2)
    assert max(fractions) > 0.0
    constant = BoundaryFunction(K, depth, np.full(K**depth, 0.7))
    assert chi_exceed_fraction(constant, 0.5, LN2) == 0.0


@pytest.mark.parametrize("epsilon", [-1.0, math.nan])
def test_chi_exceed_fraction_refuses_an_epsilon_outside_its_domain(epsilon):
    # both read 0.0, since no jump exceeds e^(-eps n (theta + 1)/2) there
    f = generate("iid-uniform", K=2, depth=3, seed=0)
    with pytest.raises(ValueError, match=f"^epsilon must be finite and positive, got {epsilon!r}$"):
        chi_exceed_fraction(f, 0.5, epsilon)


# ------------------------------------------------------------------- drivers


def small_cfg(**kw):
    base = dict(seeds=(0, 1, 2), depths=(3, 4, 5))
    base.update(kw)
    return ExperimentConfig(**base)


def test_trace_bound_report_passes():
    report = verify_trace_bound(small_cfg())
    assert report.passed
    st = report.stats["ratio"]
    assert st.count == 9 and st.finite and st.slope is not None
    assert {r["depth"] for r in report.rows if r["ratio"] is not None} == {3, 4, 5}


def test_trace_bound_rejects_boundary_family():
    with pytest.raises(ValueError, match="tree-function family"):
        verify_trace_bound(small_cfg(family="iid-uniform"))


@pytest.mark.parametrize(
    "check, family, kind",
    [
        ("trace-bound", "iid-uniform", "tree-function"),
        ("extension-bound", "random-vertex", "boundary"),
        ("equivalence", "random-vertex", "boundary"),
    ],
)
def test_cli_sweep_rejects_a_family_of_the_other_kind(capsys, check, family, kind):
    assert main(["verify", check, "--family", family, "--seed", "0", "--depth", "3"]) == 2
    text = capsys.readouterr()
    assert text.err == f"treetrace: error: {check} needs a {kind} family, got '{family}'\n"
    assert text.out == ""


def test_extension_bound_report_passes():
    report = verify_extension_bound(small_cfg(family="lacunary"))
    assert report.passed
    assert {"ratio", "energy_ratio"} <= set(report.ratio_columns)


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("epsilon", [LN2, 0.3, 1e-6, 1e-9])
def test_extension_bound_energy_ratio_is_its_closed_form(K, epsilon):
    # lambda1 = lambda2 = 0 and the matched theta: per cell, the gradient
    # term over the dyadic term is the same at every level, so every row
    # has (e^beta - 1) / beta * (epsilon / (e^epsilon - 1))^p, 1.5 ln 2 at
    # the default geometry and p = 2; edge lengths written as
    # 1 - e^(-epsilon) lost up to 5.6e-8 of it at epsilon = 1e-9.  p runs
    # inside the test, which keeps one test id per (epsilon, K)
    beta = math.log(K) + epsilon
    for p in (2.0, 8.0, 32.0, 100.0):
        cfg = ExperimentConfig(
            K=K, epsilon=epsilon, beta=beta, p=p, seeds=(0, 1), depths=(3, 5)
        )
        want = math.expm1(beta) / beta * (epsilon / math.expm1(epsilon)) ** p
        rows = verify_extension_bound(cfg).rows
        assert len(rows) == 4
        for row in rows:
            assert row["energy_ratio"] == pytest.approx(want, rel=1e-12), p


@pytest.mark.parametrize(
    "lambdas, evidence",
    [((0.0, 0.0), ["ratio"]), ((0.0, 1.0), ["ratio", "energy_ratio"]),
     ((1.0, 0.0), ["ratio", "energy_ratio"])],
    ids=["lambdas-0", "lambda2-1", "lambda1-1"],
)
def test_extension_bound_energy_ratio_is_no_evidence_at_lambda_zero(lambdas, evidence):
    # energy_ratio is its closed form at lambda1 = lambda2 = 0 (above), so
    # there it is no evidence; both columns are judged at every lambda
    lambda1, lambda2 = lambdas
    report = verify_extension_bound(small_cfg(lambda1=lambda1, lambda2=lambda2))
    assert report.evidence == evidence
    assert report.passed == all(report.stats[col].within() for col in ("ratio", "energy_ratio"))


def test_extension_bound_rejects_tree_family():
    with pytest.raises(ValueError, match="boundary family"):
        verify_extension_bound(small_cfg(family="random-vertex"))


def test_equivalence_report_with_two_sided_fit():
    report = verify_equivalences(small_cfg(lambda1=1.0))
    assert report.passed
    [(label, ok)] = report.extra_checks
    assert ok and label.startswith("two-sided fit C=")
    assert float(label.removeprefix("two-sided fit C=")) >= 1.0
    rows_with_chi = [r for r in report.rows if 0.0 <= r["chi_fraction"] <= 1.0]
    assert len(rows_with_chi) == len(report.rows)


class _FitCalled(Exception):
    pass


@pytest.mark.parametrize("lambda1, lambda2", [(1.0, 2.0), (1.0, -2.0), (-0.5, 2.0), (1.0, 0.0)])
def test_two_sided_fit_constant_sums_the_energys_level_weights(monkeypatch, lambda1, lambda2):
    # the weighted energy weighs level n by n^lambda1 (n + C)^lambda2 and
    # the Orlicz energy by (n + C)^lambda2, C the tree's shift: the
    # additive constant is sum_n q^n n^max(lambda1, 0) (n + C)^lambda2
    cfg = small_cfg(depths=(3,), seeds=(0,), lambda1=lambda1, lambda2=lambda2)
    got = []

    def fit(pairs, lam1, c_prime):
        got.append(c_prime)
        raise _FitCalled

    monkeypatch.setattr(treetrace.harness, "fit_two_sided", fit)
    with pytest.raises(_FitCalled):
        verify_equivalences(cfg)
    theta, C = cfg.resolved_theta, cfg.tree_params(3).C_const
    q = math.exp(cfg.epsilon * cfg.p * (theta - 1.0) / 2.0)
    want = sum(q**n * n ** max(lambda1, 0.0) * (n + C) ** lambda2 for n in range(1, 4000))
    assert got == [pytest.approx(want, rel=1e-12)]


@pytest.mark.parametrize("lambda1, per_row", [(0.0, 1), (1.0, 2)])
def test_equivalence_computes_the_power_energy_once_without_level_weights(
    monkeypatch, lambda1, per_row
):
    # at lambda1 = lambda2 = 0 the weighted energy is the plain one and is
    # not recomputed
    calls = []

    def counted(f, params):
        calls.append(params)
        return dyadic_energy(f, params)

    monkeypatch.setattr(treetrace.harness, "dyadic_energy", counted)
    report = verify_equivalences(small_cfg(depths=(3, 4), lambda1=lambda1))
    assert len(calls) == per_row * len(report.rows)


def test_report_stats_are_computed_once_per_column(monkeypatch):
    fits = []

    def counted(depths, values):
        fits.append(len(values))
        return fit_log_slope(depths, values)

    monkeypatch.setattr(treetrace.harness, "fit_log_slope", counted)
    report = verify_extension_bound(small_cfg())
    # construction fits each column once; the verdict and the summary
    # read what it stored
    assert fits == [9, 9]
    assert report.passed
    report.summary_lines()
    assert report.passed
    assert set(report.stats) == {"ratio", "energy_ratio"}
    assert fits == [9, 9]


def test_equivalence_leaves_a_sampled_double_sum_unjudged():
    # depth 8 at p = 2.5 is past the default pair budget, so its double sum
    # is sampled: a 2,000-sample ratio of 0.395 against an exact 0.268 made
    # the depth slope +0.39 and the report FAIL
    report = verify_equivalences(small_cfg(p=2.5, depths=(7, 8), seeds=(0,)))
    exact, sampled = report.rows
    assert exact["double_integral_method"] == "exact"
    assert exact["double_vs_dyadic"] == exact["double_integral"] / exact["dyadic_energy"]
    assert sampled["double_integral_method"] == "mc"
    assert sampled["double_integral"] > 0 and sampled["double_integral_stderr"] > 0
    assert sampled["double_vs_dyadic"] is None
    st = report.stats["double_vs_dyadic"]
    assert st.count == 1 and st.slope is None
    assert report.passed


def test_equivalence_skips_hajlasz_beyond_cap():
    report = verify_equivalences(small_cfg(depths=(3, 4), hajlasz_max_depth=3))
    vals = [r["hajlasz_energy"] for r in report.rows if r["depth"] == 4]
    assert all(v is None for v in vals)


def test_roundtrip_doubling_ahlfors_drivers():
    assert verify_roundtrip(small_cfg(seeds=(0, 1), depths=(3, 4))).passed
    assert verify_doubling(ExperimentConfig(depths=(4,), n_balls=100)).passed
    assert verify_ahlfors(ExperimentConfig(K=3, beta=2.5, epsilon=1.0)).passed


@pytest.mark.parametrize("K,depth", [(2, 65), (3, 40)])
def test_cli_verify_doubling_passes_past_the_int64_child_index(tmp_path, capsys, K, depth):
    # K^(level + 1) child indices outgrow int64 at these depths
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"K = {K}\ndepths = {depth}\nn_balls = 50\n")
    assert main(["verify", "doubling", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "report doubling: PASS"


@pytest.mark.parametrize("epsilon", [37.0, 40.0])
def test_verify_doubling_is_finite_at_large_epsilon(epsilon):
    # at epsilon = 37 the sup ratio was nan at depth 5 and the check FAILed
    cfg = ExperimentConfig(epsilon=epsilon, beta=50.0, seeds=(0,), depths=(3, 4))
    report = verify_doubling(cfg)
    [row] = report.rows
    assert math.isfinite(row["sup_ratio"]) and math.isfinite(row["sup_ratio_deeper"])
    assert report.passed


@pytest.mark.parametrize(
    "K, epsilon, beta, depth",
    [(2, LN2, 2 * LN2, 1060), (2, LN2, 2 * LN2, 1080), (3, 1.0, 2.5, 700), (3, 1.0, 2.5, 4000)],
)
def test_verify_ahlfors_passes_deep_in_the_tree(K, epsilon, beta, depth):
    # K^(-n) and the split distance to the power Q fall below the normal
    # float range: at depth 1060 the ratio lost digits and the check FAILed
    # with a spread of 5.3e-6, at 1080 (and at K = 3, depth 700) it was 0/0;
    # with the level terms n log K and Q epsilon n taken apart, at K = 3
    # each rounded on its own and the spread grew as n, to 1.36e-12 at
    # depth 4000
    cfg = ExperimentConfig(K=K, epsilon=epsilon, beta=beta, depths=(depth,))
    report = verify_ahlfors(cfg)
    assert report.passed
    assert len(report.rows) == depth + 1


@pytest.mark.parametrize("epsilon, code", [("0.005", 2), ("0.0057", 2), ("0.006", 0)])
def test_cli_verify_ahlfors_at_small_epsilon_names_the_key(tmp_path, capsys, epsilon, code):
    # below 0.006 it exited 2 with "(34, 'Numerical result out of range')"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"epsilon = {epsilon}\nbeta = 1\n")
    assert main(["verify", "ahlfors", "--config", str(cfg)]) == code
    text = capsys.readouterr()
    if code == 0:
        assert text.out.startswith("report ahlfors: PASS\n") and text.err == ""
    else:
        q = LN2 / float(epsilon)
        assert text.err == (
            f"treetrace: error: the level-0 ratio K^(-n) / diameter^Q (Q = log K / epsilon"
            f" = {q:.6g}) underflows at epsilon = {epsilon}\n"
        )
        assert text.out == ""


def test_report_csv_bytes_reproducible(tmp_path):
    cfg = small_cfg(seeds=(0, 1), depths=(3, 4))
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    verify_extension_bound(cfg).to_csv(p1)
    verify_extension_bound(cfg).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header.startswith("seed,depth,family")


def test_report_plot_data(tmp_path):
    report = verify_trace_bound(small_cfg(seeds=(0,), depths=(3, 4)))
    out = tmp_path / "plot.csv"
    report.plot_data(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "series,depth,value"
    assert len(lines) == 1 + 2  # one series, two depths


# ------------------------------------------------------------------ CLI layer


def test_cli_gen_energy_extend_trace(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("K = 2\nseeds = 0\ndepths = 3\n")
    u_path = tmp_path / "u.csv"
    assert main(["gen", "--config", str(cfg), "--family", "iid-uniform",
                 "--out", str(u_path)]) == 0
    assert u_path.exists()
    assert main(["energy", "--config", str(cfg), "--input", str(u_path)]) == 0
    F_path = tmp_path / "F.csv"
    assert main(["extend", "--config", str(cfg), "--input", str(u_path),
                 "--out", str(F_path)]) == 0
    back_path = tmp_path / "back.csv"
    assert main(["trace", "--config", str(cfg), "--input", str(F_path),
                 "--out", str(back_path)]) == 0
    a = BoundaryFunction.from_csv(u_path)
    b = BoundaryFunction.from_csv(back_path)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("line", ["K = 2", "K = 3", "lambda1 = 1"])
def test_cli_energy_out_writes_the_five_values(tmp_path, line):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(f"{line}\nseeds = 0\ndepths = 4\n")
    u_path, out = tmp_path / "u.csv", tmp_path / "energy.csv"
    assert main(["gen", "--config", str(cfg_path), "--out", str(u_path)]) == 0
    argv = ["energy", "--config", str(cfg_path), "--input", str(u_path), "--out", str(out)]
    assert main(argv) == 0
    cfg, f = load_config(str(cfg_path)), BoundaryFunction.from_csv(u_path)
    ep = cfg.energy_params()
    values = {
        "lp_norm": lp_norm(f, cfg.p),
        "orlicz_norm": orlicz_norm(f, ep.phi),
        "dyadic_energy": dyadic_energy(f, ep),
        "dyadic_orlicz_modular": dyadic_orlicz_modular(f, ep),
        "orlicz_besov_norm": orlicz_besov_norm(f, ep),
    }
    rows = "".join(f"{key},{value:.17g}\n" for key, value in values.items())
    assert out.read_bytes() == f"quantity,value\n{rows}".encode()


def test_constant_tree_function_ratio_finite():
    # both sides of the trace comparison reduce to norms of constants
    from treetrace import TreeFunction, YoungPhi, newtonian_norm
    from treetrace import orlicz_besov_norm, trace

    cfg = ExperimentConfig()
    tp = cfg.tree_params(4)
    F = TreeFunction(2, 4, np.full(31, 3.0))
    phi = YoungPhi(2.0)
    num = orlicz_besov_norm(trace(F), cfg.energy_params())
    den = newtonian_norm(F, tp, phi)
    assert 0 < num / den < math.inf


def test_cli_verify_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(treetrace.harness, "SLOPE_TOL", 1e-6)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seeds = 0,1\ndepths = 3,4\n")
    assert main(["verify", "trace-bound", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("check", ["roundtrip", "doubling", "ahlfors"])
@pytest.mark.parametrize("via", ["flag"])
def test_cli_check_without_plot_data_says_so(tmp_path, capsys, check, via):
    # --emit-plot-data used to be dropped without a word for these checks;
    # a command line shared with the ratio checks may pass it, so it stays
    # exit 0 (the flag is the one way to ask: a config file cannot)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seeds = 0\ndepths = 3,4\nn_balls = 20\n")
    out = tmp_path / "report.csv"
    argv = ["verify", check, "--config", str(cfg), "--out", str(out), "--emit-plot-data"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        f"wrote report rows to {out}",
        f"verify {check} writes no plot data: emit_plot_data ignored",
    ]
    assert out.exists() and not (tmp_path / "report.csv.plot.csv").exists()


def test_cli_plot_data_without_out_says_so(tmp_path, capsys, monkeypatch):
    # the plot data goes next to --out; without it the flag used to be
    # dropped without a word
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "trace-bound", "--emit-plot-data", "--depth", "3", "--seed", "0"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "verify trace-bound writes plot data next to --out: none written"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("check", ["trace-bound", "equivalence", "doubling"])
@pytest.mark.parametrize("source", ["config", "flag"])
def test_cli_rejects_a_negative_seed_naming_seeds(tmp_path, capsys, check, source):
    # a negative seed used to reach numpy ("expected non-negative integer"),
    # and verify doubling, which draws its balls with seed 0, took it silently
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seeds = 0,-1\ndepths = 3\n")
    argv = ["verify", check, "--config", str(cfg)]
    if source == "flag":
        cfg.write_text("depths = 3\n")
        argv += ["--seed", "-3"]
    assert main(argv) == 2
    text = capsys.readouterr()
    worst = -1 if source == "config" else -3
    assert text.err == f"treetrace: error: seeds must be nonnegative, got {worst}\n"
    assert text.out == ""


@pytest.mark.parametrize(
    "command", [["verify", "roundtrip"], ["verify", "equivalence"], ["verify", "ahlfors"], ["gen"]],
    ids=lambda command: command[-1],
)
@pytest.mark.parametrize("depth", [0, -2])
def test_cli_rejects_a_depth_below_1_naming_depths(tmp_path, capsys, command, depth):
    # a negative depth used to reach numpy ("expected non-negative integer")
    out = tmp_path / "out.csv"
    assert main([*command, "--depth", str(depth), "--seed", "0", "--out", str(out)]) == 2
    text = capsys.readouterr()
    assert text.err == f"treetrace: error: depths must be at least 1, got {depth}\n"
    assert text.out == ""


def test_cli_verify_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("K = 2\nseeds = 0,1\ndepths = 3,4\nn_balls = 60\n")
    out = tmp_path / "report.csv"
    code = main(["verify", "roundtrip", "--config", str(cfg), "--out", str(out),
                 "--emit-plot-data"])
    assert code == 0
    assert out.exists()
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "doubling", "--config", str(cfg)]) == 0
    assert main(["verify", "ahlfors", "--config", str(cfg)]) == 0
    assert main(["verify", "extension-bound", "--config", str(cfg),
                 "--out", str(tmp_path / "ext.csv"), "--emit-plot-data"]) == 0
    assert (tmp_path / "ext.csv.plot.csv").exists()


def test_report_with_an_unsampled_column_is_not_run():
    # hajlasz_max_depth below every depth: that column has no samples and
    # counts neither for nor against the verdict
    report = verify_equivalences(small_cfg(depths=(4,), hajlasz_max_depth=3))
    assert list(report.stats) == ["double_vs_dyadic", "besov_vs_composite"]
    assert report.passed
    assert "  hajlasz_vs_dyadic: not run (no samples)" in report.summary_lines()


def test_report_with_no_sampled_column_fails():
    report = RatioReport("trace-bound", [], ("ratio",))
    assert report.stats == {}
    assert not report.passed
    assert report.summary_lines() == ["report trace-bound: FAIL", "  ratio: not run (no samples)"]


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan])
def test_column_with_a_nonpositive_or_nan_sample_fails(bad):
    rows = [
        {"seed": 0, "depth": 3, "ratio": 1.0},
        {"seed": 0, "depth": 4, "ratio": bad},
        {"seed": 1, "depth": 4, "ratio": 1.1},
    ]
    report = RatioReport("trace-bound", rows, ("ratio",))
    st = report.stats["ratio"]
    # no log-slope can be fitted through a ratio that is not positive
    assert st.slope == math.inf
    assert not report.passed
    assert report.summary_lines()[0] == "report trace-bound: FAIL"
    assert "slope=+inf" in report.summary_lines()[1]
    if bad <= 0:
        assert st.spread == math.inf
        assert "spread=inf" in report.summary_lines()[1]


def test_cli_verify_equivalence_beyond_hajlasz_depth(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["verify", "equivalence", "--depth", "8", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "report equivalence: PASS"
    assert "hajlasz_vs_dyadic: not run" in text


def test_cli_bad_input_exits_2_with_one_error_line(tmp_path, capsys):
    bad = tmp_path / "u.csv"
    bad.write_text("K,N\n2,2\naddress,value\n00,1\n01,2\n1,3\n11,4\n")
    out = tmp_path / "F.csv"
    assert main(["extend", "--input", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("treetrace: error: ") and "line 6:" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()
    # a missing file and an unknown config key are bad input as well
    assert main(["energy", "--input", str(tmp_path / "missing.csv")]) == 2
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("colour = 3\n")
    assert main(["verify", "roundtrip", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.count("treetrace: error: ") == 2


@pytest.mark.parametrize("depth", [40, 62])
def test_cli_huge_header_tiny_file_exits_2_naming_the_line(tmp_path, capsys, depth):
    # the reader allocated the 2^depth leaf values from the header before
    # reading a row: 8 TiB at depth 40, too big for numpy at 62
    bad = tmp_path / "u.csv"
    bad.write_text(f"K,N\n2,{depth}\naddress,value\n{'0' * depth},1.0\n")
    assert main(["energy", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("treetrace: error: line 5: the file ends before the row")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_huge_lambda1_exits_2_with_one_error_line(tmp_path, capsys):
    # n^lam overflowed in dyadic_energy: exit 1 with an OverflowError
    # traceback; YoungPhi now rejects this lambda1 before any energy
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seeds = 0\ndepths = 3,4\nlambda1 = 1e308\n")
    assert main(["verify", "equivalence", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "treetrace: error: Phi(1) = log(e + 1)^lambda1 overflows at lambda1 = 1e+308\n"
    )


@pytest.mark.parametrize("driver", ["trace-bound", "extension-bound"])
def test_cli_huge_lambda1_is_an_input_error_for_the_tree_drivers(tmp_path, capsys, driver):
    # Phi overflowed in the gauges and trace-bound still passed (exit 0)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seeds = 0\ndepths = 3,4\nlambda1 = 1e308\n")
    assert main(["verify", driver, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("treetrace: error: Phi(1) = log(e + 1)^lambda1 overflows at lambda1 = ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("p", [32, 150])
def test_cli_failed_interior_point_step_exits_2_with_one_error_line(tmp_path, capsys, p):
    # the interior-point method ran all 100,000 steps (8 s), printing numpy
    # overflow warnings first, and its message named no p, block or instance;
    # the block is named by its seed and depth, not its place in the sweep
    depth = {32: 3, 150: 4}[p]
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"p = {p}\nseeds = 0\ndepths = 3,4\n")
    assert main(["verify", "equivalence", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(
        f"treetrace: error: interior-point method at p = {p} did not certify the optimum"
        rf" of seed 0 \(K=2, depth {depth}\) scale -?\d+: its Newton system is not finite"
        r" after \d+ steps\n",
        err,
    )


def test_cli_interior_point_iteration_cap_exits_2_naming_the_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hajlasz, "_MAX_ITERS", 3)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("p = 3\nseeds = 0\ndepths = 3\n")
    assert main(["verify", "equivalence", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "treetrace: error: interior-point method at p = 3 did not certify the optimum of"
        " seed 0 (K=2, depth 3) scale -2: relative gap 0.465 after 3 iterations\n"
    )


def test_cli_uncertified_dual_ascent_names_each_block_by_seed_and_depth(
    tmp_path, capsys, monkeypatch
):
    # the sweep's four programs share one dual-ascent loop; no gap check
    # within 30 steps leaves every block uncertified
    monkeypatch.setattr(hajlasz, "_MAX_ITERS", 30)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seeds = 3,5\ndepths = 3,4\n")
    assert main(["verify", "equivalence", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "treetrace: error: dual ascent did not certify the optimum within 30 iterations: "
    )
    assert err.count("\n") == 1 and "instance" not in err
    blocks = 0
    for depth in (3, 4):
        for seed in (3, 5):
            f = generate("iid-uniform", K=2, depth=depth, seed=seed)
            inst = HajlaszInstance(f, load_config().resolved_theta, 2.0, LN2)
            for blk in hajlasz._blocks(inst):
                assert f"seed {seed} (K=2, depth {depth}) scale {blk.k}: no gap check" in err
                blocks += 1
    assert err.count("scale") == blocks


def test_cli_lambda1_that_makes_phi_decrease_is_an_input_error(tmp_path, capsys):
    # the gauge solver stopped with 'rho(0.5) = 0.00187... exceeds
    # rho(7.6e-06) = ...', naming no key
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seeds = 0\ndepths = 3,4\nlambda1 = -40\n")
    assert main(["verify", "trace-bound", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("treetrace: error: lambda1 = -40.0 makes Phi decrease near t = 5.83: ")
    assert "needs lambda1 >= -6.29" in err and err.count("\n") == 1


@pytest.mark.parametrize("lambda2", ["300", "1e308"])
@pytest.mark.parametrize("driver", ["trace-bound", "extension-bound"])
def test_cli_huge_lambda2_is_an_input_error(tmp_path, capsys, driver, lambda2):
    # 300: (t + C)^300 overflowed, newtonian_norm = inf and the driver
    # failed (exit 1); 1e308: an OverflowError naming no key (exit 2)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"seeds = 0\ndepths = 3,4\nlambda2 = {lambda2}\n")
    assert main(["verify", driver, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("treetrace: error: ") and "lambda2" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "exc",
    [
        OverflowError("overflow"),
        ZeroDivisionError("division"),
        treetrace.ConvergenceError("no certificate"),
        treetrace.GaugeBracketError("no bracket"),
        treetrace.young.NonMonotoneModularError("not monotone"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_cli_errors_inside_a_computation_exit_2(monkeypatch, capsys, exc):
    def crash(cfg):
        raise exc

    monkeypatch.setitem(treetrace.cli._VERIFY_DRIVERS, "roundtrip", crash)
    assert main(["verify", "roundtrip", "--depth", "3", "--seed", "0"]) == 2
    assert capsys.readouterr().err == f"treetrace: error: {exc}\n"


@pytest.mark.parametrize("key", ["epsilon", "beta", "lambda2"])
def test_cli_verify_ahlfors_rejects_non_finite_geometry(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key} = nan\n")
    assert main(["verify", "ahlfors", "--config", str(cfg)]) == 2
    text = capsys.readouterr()
    assert text.err == f"treetrace: error: {key} must be {DOMAIN.get(key, 'finite')}, got nan\n"
    assert text.out == ""


@pytest.mark.parametrize(
    "text, line, key",
    [("K = two", 2, "K"), ("depths = 4,x", 2, "depths"), ("epsilon = 1.0.0", 2, "epsilon")],
)
def test_cli_config_value_errors_name_the_key_and_line(tmp_path, capsys, text, line, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"# geometry\n{text}\n")
    assert main(["verify", "ahlfors", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"treetrace: error: {cfg}, line {line}: bad value for {key}: ")
    assert err.count("\n") == 1


def test_cli_failed_property_exits_1_without_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(treetrace.harness, "SLOPE_TOL", 1e-6)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seeds = 0,1\ndepths = 3,4\n")
    assert main(["verify", "trace-bound", "--config", str(cfg)]) == 1
    text = capsys.readouterr()
    assert text.out.splitlines()[0] == "report trace-bound: FAIL"
    assert text.err == ""


def _package_env():
    """The environment with this checkout's package first on the path."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(treetrace.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return env


def test_import_loads_no_scipy():
    # scipy is a test dependency only; importing it cost about 0.5 s and
    # 50 MB on every run of the command-line tool
    code = (
        "import sys, treetrace, treetrace.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_package_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_verify_drivers_load_neither_numpy_ma_nor_numpy_polynomial(tmp_path):
    # np.median and np.unique import numpy.ma (1.3 MB) and leggauss
    # numpy.polynomial (0.9 MB), which numpy 2 loads only on use (numpy 1
    # loads both with numpy); two depths, so that a slope is fitted, and a
    # verdict either way
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("depths = 2,3\nseeds = 0,1\nn_balls = 4\n")
    code = (
        "import contextlib, io, sys\n"
        "from treetrace.cli import main\n"
        "lazy = {'numpy.ma', 'numpy.polynomial'} - set(sys.modules)\n"
        "for check in ('ahlfors', 'doubling', 'equivalence', 'extension-bound',"
        " 'roundtrip', 'trace-bound'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert main(['verify', check, '--config', {str(cfg)!r}]) in (0, 1), check\n"
        "print(sorted(lazy & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_package_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_closed_standard_output_keeps_the_report_and_verdict(tmp_path):
    # `treetrace verify ... --out r.csv | head`: the reader is gone before
    # the summary is printed; the report is still written and the exit
    # code is still the verdict, with nothing on standard error
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("p = 4\ndepths = 2,3\nseeds = 0,1\n")
    argv = ["verify", "equivalence", "--config", str(cfg), "--out"]
    verdict = main(argv + [str(tmp_path / "direct.csv")])
    assert verdict in (0, 1)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "treetrace", *argv, str(tmp_path / "piped.csv")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_package_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == verdict
    assert proc.stderr == b""
    assert (tmp_path / "piped.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_cli_consecutive_calls_in_one_process_behave_as_fresh_processes(
    tmp_path, capsys, monkeypatch
):
    # main builds its parser once per process: each call must still read
    # its own arguments alone, with the exit code, output and files of the
    # same command run in a fresh process.  A flag or a family given to
    # one call does not reach the next, and a bad argument between two
    # good calls changes neither
    calls = [
        ["verify", "trace-bound", "--config", "cfg.txt", "--out", "a.csv", "--emit-plot-data"],
        ["verify", "trace-bound", "--config", "cfg.txt", "--out", "b.csv"],
        ["gen", "--config", "cfg.txt", "--family", "lacunary", "--out", "g1.csv"],
        ["gen", "--config", "cfg.txt", "--out", "g2.csv"],
        ["verify", "no-such-check", "--config", "cfg.txt"],
        ["gen", "--config", "cfg.txt", "--depth", "three"],
        ["verify", "doubling", "--config", "cfg.txt", "--seed", "-1"],
        ["verify", "extension-bound", "--config", "cfg.txt", "--out", "c.csv"],
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    for where in (here, fresh):
        where.mkdir()
        (where / "cfg.txt").write_text("seeds = 0\ndepths = 3,4\n")
    monkeypatch.chdir(here)
    results = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        text = capsys.readouterr()
        results.append((code, text.out, text.err))
        proc = subprocess.run(
            [sys.executable, "-m", "treetrace", *argv],
            capture_output=True,
            text=True,
            cwd=fresh,
            env=_package_env(),
            timeout=120,
        )
        assert results[-1] == (proc.returncode, proc.stdout, proc.stderr), argv
        assert sorted(os.listdir(here)) == sorted(os.listdir(fresh)), argv
    for name in os.listdir(here):
        assert (here / name).read_bytes() == (fresh / name).read_bytes(), name
    assert (here / "a.csv.plot.csv").exists() and not (here / "b.csv.plot.csv").exists()
    assert [code for code, _, _ in results] == [0, 0, 0, 0, 2, 2, 2, 0]
    assert results[3][1] == "wrote boundary function (iid-uniform, seed 0, depth 3) to g2.csv\n"
    # argparse's own lines; their quoting of values varies by Python version
    assert "treetrace verify: error: argument check: invalid choice: " in results[4][2]
    assert "no-such-check" in results[4][2]
    assert "treetrace gen: error: argument --depth: invalid int value: " in results[5][2]
    assert results[6][2].startswith("treetrace: error: seeds ")


def test_cli_failing_standard_output_exits_2_with_one_error_line(monkeypatch, capsys):
    # any write error on standard output other than a gone reader (here a
    # full disk under a redirect) is an error like any other
    class FullDisk:
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", FullDisk())
    assert main(["verify", "roundtrip", "--depth", "3", "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err == f"treetrace: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def test_single_depth_slope_is_untested():
    report = verify_trace_bound(small_cfg(seeds=(0, 1), depths=(4,)))
    assert report.stats["ratio"].slope is None
    assert report.passed
    assert "slope=n/a (one depth)" in report.summary_lines()[1]
    # two depths: the slope is fitted and printed as before
    two = verify_trace_bound(small_cfg(seeds=(0, 1), depths=(3, 4)))
    depths, ratios = zip(*((r["depth"], r["ratio"]) for r in two.rows))
    assert two.stats["ratio"].slope == fit_log_slope(depths, ratios)
    assert "slope=+" in two.summary_lines()[1] or "slope=-" in two.summary_lines()[1]


def test_cli_verify_equivalence_at_p3(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("p = 3\ndepths = 3,4\nseeds = 0..3\n")
    assert main(["verify", "equivalence", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "report equivalence: PASS"
    assert any(ln.startswith("  hajlasz_vs_dyadic: n=8 ") for ln in lines)


def test_cli_verify_equivalence_single_depth_reports_no_slope(capsys):
    assert main(["verify", "equivalence", "--depth", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "report equivalence: PASS"
    sampled = [ln for ln in lines if "n=" in ln]
    assert len(sampled) == 2
    assert all("slope=n/a (one depth)" in ln for ln in sampled)


@pytest.mark.parametrize("n_balls", ["0", "-3"])
def test_cli_verify_doubling_rejects_too_few_balls(tmp_path, capsys, n_balls):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"n_balls = {n_balls}\n")
    assert main(["verify", "doubling", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "treetrace: error: n_balls must be at least 1\n"
    with pytest.raises(ValueError, match="n_balls must be at least 1"):
        ExperimentConfig(n_balls=0)


@pytest.mark.parametrize(
    "line, message",
    [
        ("hajlasz_max_depth = -1", "hajlasz_max_depth must be at least 0"),
    ],
)
def test_cli_verify_equivalence_rejects_bad_sweep_counts(tmp_path, capsys, line, message):
    # these were accepted: the Hajlasz column then silently read "not run"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"seeds = 0\ndepths = 3,4\n{line}\n")
    assert main(["verify", "equivalence", "--config", str(cfg)]) == 2
    text = capsys.readouterr()
    assert text.err == f"treetrace: error: {message}\n"
    assert text.out == ""


@pytest.mark.parametrize("scale, way", [(1e-200, "underflows"), (1e200, "overflows")])
def test_cli_energy_of_data_near_the_ends_of_the_float_range_names_p(
    tmp_path, capsys, scale, way
):
    # on 1e-200 data lp_norm, dyadic_energy and dyadic_orlicz_modular
    # printed 0 and the command exited 0; on 1e200 data lp_norm warned of
    # an overflow
    values = generate("iid-uniform", K=2, depth=4, seed=0).values
    path = tmp_path / "f.csv"
    BoundaryFunction(2, 4, scale * values).to_csv(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["energy", "--input", str(path)]) == 2
    text = capsys.readouterr()
    assert text.err == f"treetrace: error: the energy {way} at p = 2\n"
    assert text.out == ""


@pytest.mark.parametrize("command", [["verify", "roundtrip"], ["gen", "--family", "lacunary"]])
def test_cli_a_lacunary_amplitude_beyond_the_float_range_names_its_level(
    tmp_path, capsys, command
):
    # theta = 1 - (beta - log K)/(epsilon p) = -142.27, and the level-8
    # amplitude e^(-eps theta n)/n overflowed: "math range error"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("beta = 100\np = 1\ndepths = 8\n")
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    text = capsys.readouterr()
    assert text.err == (
        "treetrace: error: the level-8 amplitude e^(-eps theta n)/n overflows"
        " at epsilon = 0.693147 and theta = -142.27\n"
    )
    assert text.out == ""
    assert not out.exists()


def test_cli_verify_equivalence_names_p_when_a_level_weight_overflows(tmp_path, capsys):
    # e^(eps n theta p) overflows at level 11 and p = 100; the error named
    # lam = 0.0, which is not what overflowed
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("p = 100\nhajlasz_max_depth = 0\ndepths = 10,11,12\n")
    assert main(["verify", "equivalence", "--config", str(cfg)]) == 2
    text = capsys.readouterr()
    assert text.err == (
        "treetrace: error: the level-11 weight e^(eps n theta p) overflows at p = 100\n"
    )
    assert text.out == ""


def test_cli_verify_extension_bound_names_the_orlicz_weight_that_underflows(tmp_path, capsys):
    # the Orlicz energy weighs level n by e^(eps n (theta-1) p), which the
    # error called e^(eps n theta p)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("beta = 100\np = 150\ndepths = 8\nseeds = 0\n")
    assert main(["verify", "extension-bound", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "treetrace: error: the level-8 weight e^(eps n (theta-1) p) underflows at p = 150\n"
    )


def test_cli_verify_extension_bound_modular_beyond_the_float_range_is_an_error(
    tmp_path, capsys
):
    # at p = 100 and depth 12 both modulars were inf, energy_ratio NaN, and
    # the report said FAIL with spread=nan: a float-range limit, not a verdict
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("p = 100\n")
    argv = ["verify", "extension-bound", "--config", str(cfg), "--depth", "12", "--seed", "0"]
    assert main(argv) == 2
    text = capsys.readouterr()
    assert text.err == "treetrace: error: the modular at k = 1.0 overflows at p = 100\n"
    assert text.out == ""


@pytest.mark.parametrize(
    "line",
    [
        "quad_order = 8",
        "mc_samples = 2000",
        "lam = 0.0",
        "slope_tol = 0.1",
        "spread_max = 100.0",
        "theta = 0.5",
        "pair_budget = 16384",
        "out = r.csv",
        "emit_plot_data = yes",
    ],
)
def test_cli_config_rejects_the_removed_settings(tmp_path, capsys, line):
    # the edge rule is always order 8, the Monte Carlo sample count, the
    # pair budget and the PASS thresholds are constants, the energies take
    # lambda1 and lambda2 (no lam), theta is always the matched exponent,
    # and the output settings are flags: none is a config key any more,
    # not even at its old default
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"seeds = 0\n{line}\n")
    key = line.split(" ")[0]
    assert main(["verify", "equivalence", "--config", str(cfg)]) == 2
    text = capsys.readouterr()
    assert text.err == f"treetrace: error: {cfg}, line 2: unknown config key '{key}'\n"
    assert text.out == ""
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "K", "epsilon", "beta", "p", "lambda1", "lambda2", "family",
        "seeds", "depths", "n_balls", "hajlasz_max_depth",
    ]


@pytest.mark.parametrize(
    "lambda1, verdict, code",
    [(0.0, "FAIL", 1), (1.0, "PASS", 0)],
)
def test_cli_verify_equivalence_needs_a_column_that_is_not_an_identity(
    tmp_path, capsys, lambda1, verdict, code
):
    # both double sums are Monte Carlo (not judged) and no Hajlasz program
    # runs, so besov_vs_composite is the one sampled column; at lambda1 = 0
    # it is 1 by identity and used to PASS on its own
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        f"p = 1.5\nlambda1 = {lambda1}\nhajlasz_max_depth = 0\ndepths = 8,9\nseeds = 0,1\n"
    )
    assert main(["verify", "equivalence", "--config", str(cfg)]) == code
    text = capsys.readouterr()
    lines = text.out.splitlines()
    assert lines[0] == f"report equivalence: {verdict}"
    assert "  double_vs_dyadic: not run (no samples)" in lines
    reason = (
        "  no evidence: every sampled column (besov_vs_composite) is an identity of the config"
    )
    assert (reason in lines) == (lambda1 == 0.0)
    assert text.err == ""


def test_report_whose_columns_are_all_identities_fails():
    rows = [{"seed": 0, "depth": d, "ratio": 1.0, "other": 2.0} for d in (3, 4)]
    alone = RatioReport("equivalence", rows, ("ratio",), identities=("ratio",))
    assert not alone.passed
    assert alone.summary_lines()[-1] == (
        "  no evidence: every sampled column (ratio) is an identity of the config"
    )
    # beside a column that is evidence, an identity is judged as before
    both = RatioReport("equivalence", rows, ("ratio", "other"), identities=("ratio",))
    plain = RatioReport("equivalence", rows, ("ratio", "other"))
    assert both.passed and both.summary_lines() == plain.summary_lines()


def test_cli_energy_names_the_derived_theta(tmp_path, capsys):
    # energy said only "theta must lie in [0, 1)" where verify equivalence
    # named the formula that gave it
    f = tmp_path / "f.csv"
    generate("iid-uniform", K=2, depth=3, seed=0).to_csv(f)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("beta = 5\n")
    derived = "theta = 1 - (beta - log K)/(epsilon p) = -2.10674"
    assert main(["energy", "--config", str(cfg), "--input", str(f)]) == 2
    assert capsys.readouterr().err == (
        f"treetrace: error: the energies need 0 <= theta < 1, but {derived}\n"
    )
    assert main(["verify", "equivalence", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"treetrace: error: equivalence {HYPOTHESIS}{derived}\n"


@pytest.mark.parametrize(
    "line, message",
    [
        # the ids keep the names these cases had before each refusal named
        # its key's whole domain
        pytest.param(
            "epsilon = 0",
            "epsilon must be finite and positive, got 0.0",
            id="epsilon = 0-epsilon must be positive, got 0.0",
        ),
        pytest.param(
            "epsilon = -1",
            "epsilon must be finite and positive, got -1.0",
            id="epsilon = -1-epsilon must be positive, got -1.0",
        ),
        pytest.param(
            "p = 0",
            "p must be finite and at least 1, got 0.0",
            id="p = 0-p must be at least 1, got 0.0",
        ),
    ],
)
@pytest.mark.parametrize(
    "command",
    [
        ["verify", "trace-bound"],
        ["verify", "extension-bound"],
        ["verify", "equivalence"],
        ["verify", "roundtrip"],
        ["gen"],
    ],
)
def test_cli_rejects_a_nonpositive_epsilon_and_p_below_1(tmp_path, capsys, line, message, command):
    # epsilon = 0 ended in "float division by zero", epsilon = -1 passed
    # roundtrip, and p = 0 divided by zero in roundtrip
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"seeds = 0\ndepths = 3,4\n{line}\n")
    out = tmp_path / "out.csv"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    text = capsys.readouterr()
    assert text.err == f"treetrace: error: {message}\n"
    assert text.out == ""
    assert not out.exists()
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{line.split()[0]: float(line.split()[2])})


def test_cli_energy_rejects_a_function_of_another_K(tmp_path, capsys):
    # theta comes from the config's K: a K = 3 file read with the default
    # config reported dyadic_energy 0.4793 instead of 1.5172
    k3 = tmp_path / "k3.txt"
    k3.write_text("K = 3\nseeds = 0\ndepths = 3\n")
    u_path = tmp_path / "u.csv"
    assert main(["gen", "--config", str(k3), "--out", str(u_path)]) == 0
    assert main(["energy", "--config", str(k3), "--input", str(u_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "energy.csv"
    assert main(["energy", "--input", str(u_path), "--out", str(out)]) == 2
    text = capsys.readouterr()
    assert text.err == f"treetrace: error: {u_path} has K = 3, the config has K = 2\n"
    assert text.out == ""
    assert not out.exists()


def test_equivalence_leaves_the_hajlasz_columns_empty_past_the_pair_cap(monkeypatch):
    # K = 2: 28 leaf pairs at depth 3 and 120 at depth 4
    monkeypatch.setattr(hajlasz, "PAIR_CAP", 100)
    report = verify_equivalences(small_cfg(depths=(3, 4)))
    for row in report.rows:
        solved = row["depth"] == 3
        assert (row["hajlasz_energy"] is not None) == solved
        assert (row["hajlasz_method"] is not None) == solved
    assert report.stats["hajlasz_vs_dyadic"].count == 3


def test_cli_gen_samples_the_config_family(tmp_path, capsys):
    # --family had a default that replaced the config's family
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("family = lacunary\nseeds = 0\ndepths = 3\n")
    out = tmp_path / "u.csv"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    assert "(lacunary, seed 0, depth 3)" in capsys.readouterr().out
    expected = generate_for(load_config(str(cfg)), "lacunary", 3, 0)
    assert np.array_equal(BoundaryFunction.from_csv(out).values, expected.values)
    # the command line still wins over the file
    assert main(["gen", "--config", str(cfg), "--family", "iid-uniform", "--out", str(out)]) == 0
    assert "(iid-uniform, seed 0, depth 3)" in capsys.readouterr().out
    cfg.write_text("family = no-such-family\n")
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "treetrace: error: unknown family 'no-such-family'\n"


def test_hajlasz_max_depth_zero_runs_no_hajlasz_program():
    report = verify_equivalences(small_cfg(depths=(3, 4), hajlasz_max_depth=0))
    assert list(report.stats) == ["double_vs_dyadic", "besov_vs_composite"]


@pytest.mark.parametrize(
    "line, key",
    [
        ("p = nan", "p"),
        ("p = inf", "p"),
        ("lambda1 = nan", "lambda1"),
        ("lambda1 = inf", "lambda1"),
        ("lambda2 = nan", "lambda2"),
        ("lambda2 = inf", "lambda2"),
    ],
)
@pytest.mark.parametrize("check", ["trace-bound", "extension-bound", "equivalence"])
def test_cli_verify_rejects_non_finite_exponents(tmp_path, capsys, line, key, check):
    # lambda1 = inf passed trace-bound; lambda1 = nan stopped
    # on "modular returned NaN"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"seeds = 0\ndepths = 3,4\n{line}\n")
    assert main(["verify", check, "--config", str(cfg)]) == 2
    text = capsys.readouterr()
    value = line.split()[2]
    assert text.err == f"treetrace: error: {key} must be {DOMAIN.get(key, 'finite')}, got {value}\n"
    assert text.out == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["epsilon", "beta", "p", "lambda1", "lambda2"])
@pytest.mark.parametrize(
    "command",
    [["verify", "roundtrip"], ["verify", "doubling"], ["verify", "ahlfors"],
     ["gen", "--family", "lacunary"]],
)
def test_cli_rejects_non_finite_real_keys_where_no_tree_is_built(
    tmp_path, capsys, command, key, value
):
    # roundtrip and gen at nan said "function values must be finite"; at
    # epsilon = inf or p = inf they passed or wrote a sample
    cfg, out = tmp_path / "cfg.txt", tmp_path / "out.csv"
    cfg.write_text(f"seeds = 0\ndepths = 3,4\n{key} = {value}\n")
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    text = capsys.readouterr()
    message = f"{key} must be {DOMAIN.get(key, 'finite')}, got {value}"
    assert text.err == f"treetrace: error: {message}\n"
    assert text.out == "" and not out.exists()
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig(**{key: float(value)})


@pytest.mark.parametrize("key", ["depths", "seeds"])
@pytest.mark.parametrize("check", ["doubling", "ahlfors", "trace-bound", "equivalence"])
def test_cli_verify_rejects_an_empty_sweep_list(tmp_path, capsys, key, check):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key} =\n")
    assert main(["verify", check, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"treetrace: error: {key} must not be empty\n"
    with pytest.raises(ValueError, match=f"{key} must not be empty"):
        ExperimentConfig(**{key: ()})


def test_cli_verify_equivalence_reports_how_the_double_sum_was_computed(tmp_path):
    # p = 2 has a closed form: exact at depth 10, far beyond the pair budget
    out = tmp_path / "report.csv"
    assert main(["verify", "equivalence", "--depth", "10", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 8
    assert all(r["double_integral_method"] == "exact" for r in rows)
    assert all(r["double_integral_stderr"] == "" for r in rows)
    # non-integer p beyond the budget is sampled, and its standard error is kept
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("p = 2.5\ndepths = 7,8\nseeds = 0,1\n")
    assert main(["verify", "equivalence", "--config", str(cfg), "--out", str(out)]) == 0
    rows = {r["depth"]: r for r in csv.DictReader(out.open()) if r["seed"] == "0"}
    assert rows["7"]["double_integral_method"] == "exact"
    assert rows["7"]["double_integral_stderr"] == ""
    assert rows["8"]["double_integral_method"] == "mc"
    assert 0.0 < float(rows["8"]["double_integral_stderr"]) < float(rows["8"]["double_integral"])


def test_cli_verify_equivalence_at_p3_is_exact_beyond_the_pair_budget(tmp_path, capsys):
    # depth 8 was sampled with 2000 pairs, 0.215 against the exact 0.145 at
    # depth 7, and the slope +0.40 failed the sweep
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("p = 3\ndepths = 7,8\nseeds = 0\n")
    out = tmp_path / "report.csv"
    assert main(["verify", "equivalence", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "report equivalence: PASS"
    rows = list(csv.DictReader(out.open()))
    assert [r["depth"] for r in rows] == ["7", "8"]
    assert all(r["double_integral_method"] == "exact" for r in rows)
    assert all(r["double_integral_stderr"] == "" for r in rows)


def test_cli_verify_equivalence_reports_how_the_hajlasz_energy_was_reached(
    tmp_path, monkeypatch
):
    # one hajlasz_minimize_all call per sweep, however many depths
    calls = []
    minimize_all = hajlasz.hajlasz_minimize_all

    def counted(instances):
        calls.append(None)
        return minimize_all(instances)

    monkeypatch.setattr(hajlasz, "hajlasz_minimize_all", counted)
    out = tmp_path / "report.csv"
    assert main(["verify", "equivalence", "--out", str(out)]) == 0
    assert len(calls) == 1
    rows = list(csv.DictReader(out.open()))
    cfg = load_config()
    assert len(rows) == len(cfg.depths) * len(cfg.seeds)
    for row in rows:
        if int(row["depth"]) > cfg.hajlasz_max_depth:
            assert row["hajlasz_energy"] == ""
            assert row["hajlasz_method"] == row["hajlasz_iterations"] == ""
            assert row["hajlasz_rel_gap"] == ""
            continue
        assert row["hajlasz_method"] == "dual-ascent"
        assert int(row["hajlasz_iterations"]) > 0
        assert 0.0 <= float(row["hajlasz_rel_gap"]) <= 1e-8
    # the columns are those of each instance solved alone, although the
    # whole sweep shares one solver loop
    solved = 0
    for row in rows:
        depth = int(row["depth"])
        if depth > cfg.hajlasz_max_depth:
            continue
        f = generate("iid-uniform", K=2, depth=depth, seed=int(row["seed"]))
        sol = hajlasz_minimize(HajlaszInstance(f, cfg.resolved_theta, 2.0, cfg.epsilon))
        assert float(row["hajlasz_energy"]) == sol.value
        assert int(row["hajlasz_iterations"]) == sol.iterations
        assert float(row["hajlasz_rel_gap"]) == max(b.rel_gap for b in sol.blocks.values())
        solved += 1
    assert solved == sum(d <= cfg.hajlasz_max_depth for d in cfg.depths) * len(cfg.seeds)


@pytest.mark.parametrize(
    "command",
    [["verify", check] for check in sorted(treetrace.cli._VERIFY_DRIVERS)] + [["gen"]],
    ids=lambda command: command[-1],
)
def test_cli_rejects_k_below_2_first_with_one_message(tmp_path, capsys, command):
    # trace-bound and extension-bound used to fail on the trace hypotheses
    # and equivalence on theta, each with its own message
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("K = 1\nseeds = 0\ndepths = 3\n")
    out = tmp_path / "out.csv"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "treetrace: error: K must be an integer at least 2, got 1\n"


@pytest.mark.parametrize("command", [["verify", "trace-bound"], ["gen"]], ids=lambda c: c[-1])
def test_cli_out_of_memory_exits_2_naming_the_size_and_depth(tmp_path, capsys, command):
    # the first array at depth 50 holds 2^50 doubles, 8 PiB: more than the
    # address space, so the allocation fails at once without touching memory
    out = tmp_path / "out.csv"
    assert main([*command, "--depth", "50", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("treetrace: error: out of memory at depth 50: ")
    assert "8.00 PiB" in err and err.count("\n") == 1


@pytest.mark.parametrize("text", ["ture", "on", "2", ""])
def test_config_rejects_an_unknown_emit_plot_data_word(tmp_path, text):
    # a misspelt "true" used to load silently as False; the plot data is
    # now asked for by --emit-plot-data alone, so the line is rejected
    # whatever its word
    path = tmp_path / "cfg.txt"
    path.write_text(f"seeds = 0\nemit_plot_data = {text}\n")
    with pytest.raises(
        ValueError, match=r"cfg\.txt, line 2: unknown config key 'emit_plot_data'"
    ):
        load_config(str(path))


@pytest.mark.parametrize(
    "check, columns",
    [
        ("equivalence", ("double_vs_dyadic", "hajlasz_vs_dyadic")),
        ("extension-bound", ("energy_ratio",)),
    ],
    ids=["equivalence", "extension-bound"],
)
def test_cli_constant_samples_leave_their_energy_ratios_empty(tmp_path, capsys, check, columns):
    # the lacunary family is constant at seeds 0, 2, 3, 4, 6 and 7 of depth
    # 1 (K = 2): every energy is 0, and these ratios exited 2 with "float
    # division by zero"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("family = lacunary\ndepths = 1,2\nseeds = 0,1,2,3,4,5,6,7\n")
    out = tmp_path / "report.csv"
    assert main(["verify", check, "--config", str(cfg), "--out", str(out)]) in (0, 1)
    text = capsys.readouterr()
    assert text.err == ""
    constant = [(0, 1), (2, 1), (3, 1), (4, 1), (6, 1), (7, 1)]
    named = ", ".join(f"seed {seed} depth {depth}" for seed, depth in constant)
    assert f"  constant samples, their energy ratios not judged: {named}" in text.out.splitlines()
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    for row in rows:
        flat = (int(row["seed"]), int(row["depth"])) in constant
        for col in columns:
            assert (row[col] == "") == flat, (row["seed"], row["depth"], col)


_STEEP = "epsilon = 100\nbeta = 101\ndepths = 8,9\nseeds = 0\n"
_FAR_OUT = "epsilon = 100\nbeta = 95.6931\ndepths = 9\nseeds = 0\nhajlasz_max_depth = 0\n"
_FACTOR = "the level-8 factor e^(eps n) overflows at epsilon = 100"
_DISTANCE = "the level-8 split distance (2/eps) e^(-eps n) underflows at epsilon = 100"


@pytest.mark.parametrize(
    "check, config, message",
    [
        # e^(eps n) overflowed in the energy modular: "math range error"
        ("trace-bound", _STEEP, _FACTOR),
        ("extension-bound", _STEEP, _FACTOR),
        # the level-8 split distance underflowed to 0: a division by zero,
        # exact at p = 1 and Monte Carlo at p = 1.05, then "math range error"
        ("equivalence", _FAR_OUT + "p = 1\n", _DISTANCE),
        ("equivalence", _FAR_OUT + "p = 1.05\n", _DISTANCE),
    ],
    ids=["trace-bound", "extension-bound", "equivalence-p1", "equivalence-p1.05"],
)
def test_cli_a_level_factor_beyond_the_float_range_names_its_level(
    tmp_path, capsys, check, config, message
):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", check, "--config", str(cfg)]) == 2
    text = capsys.readouterr()
    assert text.err == f"treetrace: error: {message}\n"
    assert text.out == ""
