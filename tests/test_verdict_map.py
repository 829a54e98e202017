"""The verdicts of the three ratio drivers over a grid of exponents.

Every case runs a driver through the Python API, with seeds 0,1,2 and no
Hajlasz program, and must PASS.  The grid is the default geometry at
depths 4,6,8,10, with lambda2 = -2 and 3 for the two bound drivers, and
p = 1 at beta = 1.5 ln 2 (theta = 0.5) and depths 4,6,8.  The depths
matter: with 4,6,8 alone the p = 1.5, lambda1 = 1, lambda2 = 2
`equivalence` run FAILs.  The lambda2 != 0 cases FAILed while the
boundary weighed level n by n^lambda2 and the tree's mass density carried
(t + C)^lambda2: the bound ratios drifted with ((n + C)/n)^lambda2.

At the default depths 4-7 the p = 1.5, lambda1 = 1 `equivalence` runs at
lambda2 = 2 and 3 FAIL on `besov_vs_composite`, with slopes -0.113 and
-0.127 against the tolerance 0.1; at depths 10,12,14 the slopes are
-0.001 and -0.032 and both PASS.  The drift is pre-asymptotic, so the
depth 4-7 runs are strict expected failures.
"""

import math

import pytest

from treetrace.harness import (
    ExperimentConfig,
    verify_equivalences,
    verify_extension_bound,
    verify_trace_bound,
)

DRIVERS = {
    "trace-bound": verify_trace_bound,
    "extension-bound": verify_extension_bound,
    "equivalence": verify_equivalences,
}
BOUND_DRIVERS = ("trace-bound", "extension-bound")
DEPTHS = (4, 6, 8, 10)


def _case(driver, p, lambda1, lambda2, beta=2.0 * math.log(2.0), depths=DEPTHS, marks=()):
    name = f"{driver}-p{p:g}-lambda1_{lambda1:g}-lambda2_{lambda2:g}"
    if depths != DEPTHS:
        name += f"-beta{beta:.4g}-depths{','.join(map(str, depths))}"
    return pytest.param(driver, p, lambda1, lambda2, beta, depths, id=name, marks=marks)


def _cases():
    for driver in DRIVERS:
        lambda2s = (0.0, 2.0, -2.0, 3.0) if driver in BOUND_DRIVERS else (0.0, 2.0)
        for p in (1.5, 2.0, 3.0):
            for lambda1 in (0.0, 1.0):
                for lambda2 in lambda2s:
                    yield _case(driver, p, lambda1, lambda2)
    for driver in BOUND_DRIVERS:
        for lambda1 in (0.0, 1.0):
            yield _case(driver, 1.0, lambda1, 1.0, beta=1.5 * math.log(2.0), depths=(4, 6, 8))
    pre_asymptotic = pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="besov_vs_composite drifts with slope -0.11 to -0.13 at depths 4-7, a"
        " pre-asymptotic trend that is gone by depths 10-14",
    )
    for lambda2 in (2.0, 3.0):
        yield _case("equivalence", 1.5, 1.0, lambda2, depths=(4, 5, 6, 7), marks=pre_asymptotic)
        yield _case("equivalence", 1.5, 1.0, lambda2, depths=(10, 12, 14))


@pytest.mark.parametrize("driver, p, lambda1, lambda2, beta, depths", _cases())
def test_ratio_driver_passes(driver, p, lambda1, lambda2, beta, depths):
    cfg = ExperimentConfig(
        beta=beta,
        p=p,
        lambda1=lambda1,
        lambda2=lambda2,
        seeds=(0, 1, 2),
        depths=depths,
        hajlasz_max_depth=0,
    )
    report = DRIVERS[driver](cfg)
    assert report.passed, "\n".join(report.summary_lines())
