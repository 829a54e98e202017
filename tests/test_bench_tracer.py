"""The benchmark's tracer (bench/tracing.py) wraps treetrace functions at
the module attributes where their callers look them up.  Renaming or
removing one of those attributes breaks `bench/run.py --trace 1`; this
test installs and removes every wrapper so that such a change fails here.
"""

import sys
from pathlib import Path

import treetrace.cli as cli
import treetrace.harness as harness

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls_at_every_site(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    originals = {name: getattr(harness, name) for name in ("generate", "newtonian_norm")}
    checks = dict(cli._VERIFY_DRIVERS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.generate is not originals["generate"]
        assert cli._VERIFY_DRIVERS["ahlfors"] is not checks["ahlfors"]
    finally:
        tracer.uninstall()
    assert {name: getattr(harness, name) for name in originals} == originals
    assert cli._VERIFY_DRIVERS == checks
