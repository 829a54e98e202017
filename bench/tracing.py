"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces public functions of treetrace with timing
wrappers at the module attributes where their callers look them up, and
`Tracer.uninstall` puts the originals back.  Every wrapped call records a
span (name, start, end, parent, ok, depth of its first argument), timed
in process CPU seconds like the end-to-end cpu_s; spans stay in memory
and are written out when the run ends.  The gauge wrapper
also wraps the modular `rho` it receives, to count modular evaluations.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import treetrace.boundary_norms as boundary_norms
import treetrace.cli as cli
import treetrace.hajlasz as hajlasz
import treetrace.harness as harness
import treetrace.tree as tree
import treetrace.tree_norms as tree_norms

# (span name, module or class objects whose attribute is replaced, attribute)
_FUNCTION_SITES = [
    ("young.gauge", (boundary_norms, tree_norms), "luxemburg_gauge"),
    ("tree_norms.newtonian_norm", (harness,), "newtonian_norm"),
    ("tree_norms.gradient_modular", (harness,), "gradient_lphi_modular"),
    ("boundary_norms.besov_norm", (harness, cli), "orlicz_besov_norm"),
    ("boundary_norms.orlicz_norm", (harness, cli, boundary_norms), "orlicz_norm"),
    ("boundary_norms.energy", (harness, cli), "dyadic_energy"),
    ("boundary_norms.energy", (harness, cli), "dyadic_orlicz_modular"),
    ("boundary_norms.double_exact", (harness,), "double_integral_energy"),
    ("boundary_norms.double_mc", (harness,), "double_integral_energy_mc"),
    ("hajlasz.instance", (harness, hajlasz), "HajlaszInstance"),
    ("hajlasz.minimize", (hajlasz,), "hajlasz_minimize"),
    ("tree.ball_measure", (tree,), "ball_measure"),
    ("operators.extend", (harness, cli), "extend"),
    ("operators.trace", (harness, cli), "trace"),
    ("harness.generate", (harness, cli), "generate"),
    ("boundary_norms.to_csv", (boundary_norms.BoundaryFunction,), "to_csv"),
    ("tree_norms.to_csv", (tree_norms.TreeFunction,), "to_csv"),
    ("harness.report_csv", (harness.RatioReport, harness.CheckReport), "to_csv"),
    ("cli.main", (cli,), "main"),
]
_CLASSMETHOD_SITES = [
    ("boundary_norms.from_csv", boundary_norms.BoundaryFunction),
    ("tree_norms.from_csv", tree_norms.TreeFunction),
]
_DRIVER_SPAN = "harness.driver"

# per-layer metric -> (kind, span or counter name); kinds are "incl" (summed
# span durations), "self" (durations minus direct children), "calls" and
# "count" (a counter)
_LAYER_METRICS = {
    "young.gauge_calls": ("calls", "young.gauge"),
    "young.modular_evals": ("count", "young.modular_evals"),
    "young.gauge_s": ("incl", "young.gauge"),
    "tree_norms.newtonian_norm_s": ("incl", "tree_norms.newtonian_norm"),
    "tree_norms.newtonian_norm_calls": ("calls", "tree_norms.newtonian_norm"),
    "tree_norms.gradient_modular_s": ("incl", "tree_norms.gradient_modular"),
    "boundary_norms.besov_norm_s": ("incl", "boundary_norms.besov_norm"),
    "boundary_norms.orlicz_norm_s": ("incl", "boundary_norms.orlicz_norm"),
    "boundary_norms.energy_s": ("incl", "boundary_norms.energy"),
    "boundary_norms.double_exact_s": ("incl", "boundary_norms.double_exact"),
    "boundary_norms.double_exact_calls": ("calls", "boundary_norms.double_exact"),
    "boundary_norms.double_mc_s": ("incl", "boundary_norms.double_mc"),
    "boundary_norms.double_mc_calls": ("calls", "boundary_norms.double_mc"),
    "hajlasz.instance_s": ("incl", "hajlasz.instance"),
    "hajlasz.minimize_s": ("incl", "hajlasz.minimize"),
    "hajlasz.minimize_calls": ("calls", "hajlasz.minimize"),
    "hajlasz.iterations": ("count", "hajlasz.iterations"),
    "hajlasz.failed": ("count", "hajlasz.failed"),
    "tree.ball_measure_s": ("incl", "tree.ball_measure"),
    "tree.ball_measure_calls": ("calls", "tree.ball_measure"),
    "operators.extend_s": ("incl", "operators.extend"),
    "operators.trace_s": ("incl", "operators.trace"),
    "boundary_norms.to_csv_s": ("incl", "boundary_norms.to_csv"),
    "boundary_norms.from_csv_s": ("incl", "boundary_norms.from_csv"),
    "tree_norms.to_csv_s": ("incl", "tree_norms.to_csv"),
    "tree_norms.from_csv_s": ("incl", "tree_norms.from_csv"),
    "cli.csv_bytes": ("count", "cli.csv_bytes"),
    "harness.generate_s": ("incl", "harness.generate"),
    "harness.report_csv_s": ("incl", "harness.report_csv"),
    "harness.driver_self_s": ("self", _DRIVER_SPAN),
    "cli.self_s": ("self", "cli.main"),
}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def span(self, name, fn, on_result=None):
        """`fn` wrapped so that each call records a span named `name`."""

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            depth = getattr(args[0], "depth", None) if args else None
            self.spans.append(None)
            self._stack.append(sid)
            ok = False
            t0 = time.process_time()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.process_time()
                self._stack.pop()
                self.spans[sid] = (name, t0, t1, parent, ok, depth)
                if not ok and on_result is not None:
                    on_result(None)
            if on_result is not None:
                on_result(out)
            return out

        return functools.update_wrapper(wrapper, fn, updated=())

    def _gauge(self, fn):
        def counted_gauge(rho, *args, **kwargs):
            def counted_rho(k):
                self.counters["young.modular_evals"] += 1
                return rho(k)

            return fn(counted_rho, *args, **kwargs)

        return self.span("young.gauge", functools.wraps(fn)(counted_gauge))

    def _minimize_result(self, solution) -> None:
        if solution is None:
            self.counters["hajlasz.failed"] += 1
        else:
            self.counters["hajlasz.iterations"] += solution.iterations

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, owners, attr in _FUNCTION_SITES:
            for owner in owners:
                original = owner.__dict__[attr]
                if name == "young.gauge":
                    new = self._gauge(original)
                elif name == "hajlasz.minimize":
                    new = self.span(name, original, self._minimize_result)
                else:
                    new = self.span(name, original)
                self._replace(owner, attr, new)
        for name, cls in _CLASSMETHOD_SITES:
            original = cls.__dict__["from_csv"]
            self._replace(cls, "from_csv", classmethod(self.span(name, original.__func__)))
        # the CLI dispatches verify drivers through this table
        drivers = dict(cli._VERIFY_DRIVERS)
        for key, fn in drivers.items():
            cli._VERIFY_DRIVERS[key] = self.span(_DRIVER_SPAN, fn)
        self._saved.append((cli._VERIFY_DRIVERS, None, drivers))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def layer_metrics(self, first_span: int, csv_bytes: int) -> dict[str, float]:
        """Per-layer numbers over the spans recorded since index `first_span`
        and the counters accumulated since the last `reset_counters`."""
        incl: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        children: dict[int, float] = defaultdict(float)
        spans = self.spans[first_span:]
        for name, t0, t1, parent, _ok, _depth in spans:
            incl[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                children[parent] += t1 - t0
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, *_rest) in enumerate(spans, start=first_span):
            self_time[name] += (t1 - t0) - children[i]
        counters = dict(self.counters, **{"cli.csv_bytes": csv_bytes})
        out = {}
        for metric, (kind, key) in _LAYER_METRICS.items():
            if kind == "incl":
                out[metric] = incl[key]
            elif kind == "self":
                out[metric] = self_time[key]
            elif kind == "calls":
                out[metric] = float(calls[key])
            else:
                out[metric] = float(counters.get(key, 0))
        gauges = out["young.gauge_calls"]
        out["young.evals_per_gauge"] = out["young.modular_evals"] / gauges if gauges else 0.0
        doubles = out["boundary_norms.double_exact_calls"] + out["boundary_norms.double_mc_calls"]
        out["boundary_norms.double_exact_share"] = (
            out["boundary_norms.double_exact_calls"] / doubles if doubles else 0.0
        )
        return out

    def reset_counters(self) -> None:
        self.counters.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "ok", "depth"],
                    "spans": self.spans,
                },
                fh,
            )
