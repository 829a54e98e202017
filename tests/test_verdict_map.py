"""The verdicts of the three ratio drivers over a grid of exponents.

Every case runs a driver through the Python API at the default geometry,
seeds 0,1,2, depths 4,6,8,10 and no Hajlasz program, and must PASS.  The
cases that FAIL for a known cause are strict expected failures, so that a
fix of that cause shows as an XPASS to be moved into the passing cases,
and no verdict moves silently.  The depths matter: with 4,6,8 alone the
p = 1.5, lambda1 = 1, lambda2 = 2 `equivalence` run FAILs too.
"""

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

# The boundary weighs level n by n^lambda2, while the tree's mass density
# carries (t + C)^lambda2, C the minimal shift: the bound ratios drift with
# ((n + C)/n)^lambda2, a factor the theorems' constants absorb.
LAMBDA2_SHIFT = (
    "boundary level weight n^lambda2 against the tree's (t + C)^lambda2 (ROADMAP item 16)"
)
FAIL_AT_LAMBDA2_2 = {("extension-bound", p) for p in (1.5, 2.0, 3.0)} | {
    ("trace-bound", p) for p in (1.5, 2.0)
}


def _cases():
    for driver in DRIVERS:
        for p in (1.5, 2.0, 3.0):
            for lambda1 in (0.0, 1.0):
                for lambda2 in (0.0, 2.0):
                    known = lambda2 == 2.0 and (driver, p) in FAIL_AT_LAMBDA2_2
                    marks = [pytest.mark.xfail(strict=True, reason=LAMBDA2_SHIFT)] if known else []
                    yield pytest.param(
                        driver,
                        p,
                        lambda1,
                        lambda2,
                        marks=marks,
                        id=f"{driver}-p{p:g}-lambda1_{lambda1:g}-lambda2_{lambda2:g}",
                    )


@pytest.mark.parametrize("driver, p, lambda1, lambda2", _cases())
def test_ratio_driver_passes(driver, p, lambda1, lambda2):
    cfg = ExperimentConfig(
        p=p,
        lambda1=lambda1,
        lambda2=lambda2,
        seeds=(0, 1, 2),
        depths=(4, 6, 8, 10),
        hajlasz_max_depth=0,
    )
    report = DRIVERS[driver](cfg)
    assert report.passed, "\n".join(report.summary_lines())
