"""Every per-layer metric of the benchmark comes from a span or counter
that bench/tracing.py records around a treetrace function.  If a signature
change stopped a wrapper from being called (or from seeing the modular),
its metric would read 0 without any error; this test runs a few small
checks under the tracer and requires the layers they use to be recorded.
"""

import sys
from pathlib import Path

import treetrace.cli as cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_records_the_layers_of_two_small_checks(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for check in ("trace-bound", "equivalence", "extension-bound"):
            assert cli.main(["verify", check, "--depth", "3", "--seed", "0"]) in (0, 1)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    for layer in (
        "young.gauge",
        "tree_norms.newtonian_norm",
        "boundary_norms.double_exact",
        "tree_norms.gradient_modular",
        "boundary_norms.besov_norm",
        "boundary_norms.energy",
        "hajlasz.instance",
    ):
        assert layer in names, layer
    metrics = tracer.layer_metrics(0, 0)
    assert metrics["young.modular_evals"] > 0
    assert metrics["young.gauge_calls"] > 0
    assert metrics["tree_norms.newtonian_norm_calls"] > 0
    assert metrics["boundary_norms.double_exact_calls"] > 0
