"""In-memory span tracer for the traced benchmark run.

The tracer wraps paracone's functions where their callers look them up:
every module attribute of the package bound to a target function is
replaced, so ``paracone.check_inequality``, ``paracone.config.check_inequality``
and the checks module's own global all reach the same wrapper.  Methods are
wrapped on their class, and each mapping's ``evaluator`` field on the
instance.  ``uninstall`` puts every original back.

A span records (name, start, end, parent span, operation label).  A layer's
self time is its spans' duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

POINTS = "mappings.points_evaluated"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span id, operation label]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.op = ""  # label of the operation running
        self._stack = []  # [span id, seconds covered by child spans]
        self._patches = []

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])

    def _close(self, name: str) -> None:
        end = perf_counter()
        sid, covered = self._stack.pop()
        span = self.spans[sid]
        span[2] = end
        duration = end - span[1]
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a step of its own."""
        self._open(name)
        try:
            yield
        finally:
            self._close(name)

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(tracer, result, points evaluated inside)
        runs on a normal return."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = self.counts[POINTS]
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if after is not None:
                after(self, result, self.counts[POINTS] - points)
            return result

        return traced

    def wrap_evaluator(self, fn):
        @functools.wraps(fn)
        def traced(x):
            # a batched evaluator takes (n, d) rows: count points, not calls
            self.counts[POINTS] += x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
            self._open("mappings.evaluator")
            try:
                return fn(x)
            finally:
                self._close("mappings.evaluator")

        return traced

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, mappings) -> None:
        """Wrap every target, and the evaluator of each given mapping and of
        every mapping constructed while installed."""
        for module_name, _, _, _ in FUNCTIONS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "paracone" or n.startswith("paracone."))]
        for module_name, fn_name, span_name, after in FUNCTIONS:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self.wrap(span_name, original, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for module_name, cls_name, method, span_name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, method, self.wrap(span_name, getattr(cls, method)))
        for f in mappings:
            self._patch(f, "evaluator", self.wrap_evaluator(f.evaluator))
        mapping_cls = sys.modules["paracone.mappings"].VectorMapping
        post_init = mapping_cls.__post_init__

        def traced_post_init(mapping):
            post_init(mapping)
            mapping.evaluator = self.wrap_evaluator(mapping.evaluator)

        self._patch(mapping_cls, "__post_init__", traced_post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self, mappings):
        self.install(mappings)
        try:
            yield self
        finally:
            self.uninstall()

    def write_spans(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "op"])
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow([sid, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, op])


# -- what the hooks count -------------------------------------------------------


def _after_falsify(tr: Tracer, rep, points: int) -> None:
    # the scan evaluates x, y and the segment point of every sampled triple;
    # everything beyond that is the pattern search
    refine = points - 3 * rep.samples_used
    tr.counts["checks.refine_points"] += refine
    if refine > 0:
        tr.counts["checks.refine_calls"] += 1
        tr.counts["checks.refine_useful"] += "+refined" in rep.notes


def _after_estimate(tr: Tracer, est, points: int) -> None:
    tr.counts["derivative.estimates"] += 1
    tr.counts["derivative.levels"] += est.iterations
    tr.counts["derivative.not_converged"] += not est.converged


def _after_gateaux(tr: Tracer, rep, points: int) -> None:
    tr.counts["derivative.gateaux_reports"] += 1
    tr.counts["derivative.continuity_decisive"] += rep.defect > 0.0 and rep.margins["continuity"] == rep.defect


# (defining module, function, span name, hook)
FUNCTIONS = (
    ("paracone.checks", "sample_triples", "checks.sample_triples", None),
    ("paracone.checks", "check_inequality", "checks.check", None),
    ("paracone.checks", "scalarize_check", "checks.check", None),
    ("paracone.checks", "check_fact2", "checks.check", None),
    ("paracone.checks", "falsify", "checks.falsify", _after_falsify),
    ("paracone.checks", "check_vector_lipschitz", "checks.lipschitz", None),
    ("paracone.geometry", "normality_constant", "geometry.normality_constant", None),
    ("paracone.geometry", "unit_dual_generators", "geometry.unit_dual_generators", None),
    ("paracone.modulus", "eval_modulus", "modulus.eval_modulus", None),
    ("paracone.derivative", "directional_derivative", "derivative.directional_derivative", _after_estimate),
    ("paracone.derivative", "gateaux_test", "derivative.gateaux_test", _after_gateaux),
    ("paracone.derivative", "build_trace", "derivative.build_trace", None),
    ("paracone.derivative", "check_upper_bound", "derivative.upper_bound", None),
    ("paracone.derivative", "frechet_test", "derivative.frechet_test", None),
    ("paracone.config", "build_mapping", "config.build", None),
    ("paracone.config", "build_spec", "config.build", None),
    ("paracone.config", "run_config", "config.run_config", None),
    ("paracone.config", "write_trace_csv", "config.write_csv", None),
    ("paracone.config", "write_scan_csv", "config.write_csv", None),
)

# (defining module, class, method, span name)
METHODS = (
    ("paracone.mappings", "VectorMapping", "eval", "mappings.eval"),
    ("paracone.reports", "CheckReport", "to_dict", "reports.to_dict"),
    ("paracone.derivative", "GateauxReport", "to_dict", "reports.to_dict"),
    ("paracone.derivative", "ScanReport", "to_dict", "reports.to_dict"),
    ("paracone.derivative", "FrechetReport", "to_dict", "reports.to_dict"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer figures of one traced sweep: name -> (value, unit, base)."""
    c, own, total, n = tr.counts, tr.self_s, tr.total_s, tr.calls
    return {
        "mappings.points_evaluated": (c[POINTS], "count", None),
        "mappings.eval_calls": (n["mappings.eval"], "count", None),
        "mappings.eval_self_s": (own["mappings.eval"], "s", None),
        "mappings.evaluator_s": (total["mappings.evaluator"], "s", None),
        "checks.sample_triples_calls": (n["checks.sample_triples"], "count", None),
        "checks.sample_triples_self_s": (own["checks.sample_triples"], "s", None),
        "checks.check_self_s": (own["checks.check"], "s", None),
        "checks.falsify_self_s": (own["checks.falsify"], "s", None),
        "checks.refine_points": (c["checks.refine_points"], "count", None),
        "checks.refine_useful_ratio": (
            _ratio(c["checks.refine_useful"], c["checks.refine_calls"]),
            "ratio",
            f"{c['checks.refine_useful']} sharper witnesses of {c['checks.refine_calls']} refining falsify calls",
        ),
        "checks.lipschitz_calls": (n["checks.lipschitz"], "count", None),
        "checks.lipschitz_self_s": (own["checks.lipschitz"], "s", None),
        "geometry.normality_constant_calls": (n["geometry.normality_constant"], "count", None),
        "geometry.normality_constant_s": (total["geometry.normality_constant"], "s", None),
        "geometry.unit_dual_generators_calls": (n["geometry.unit_dual_generators"], "count", None),
        "geometry.cone_build_s": (total["geometry.cone_build"], "s", None),
        "modulus.eval_modulus_calls": (n["modulus.eval_modulus"], "count", None),
        "modulus.eval_modulus_s": (total["modulus.eval_modulus"], "s", None),
        "derivative.directional_derivative_calls": (n["derivative.directional_derivative"], "count", None),
        "derivative.directional_derivative_self_s": (own["derivative.directional_derivative"], "s", None),
        "derivative.levels_per_estimate": (
            _ratio(c["derivative.levels"], c["derivative.estimates"]),
            "levels",
            f"mean iterations over {c['derivative.estimates']} estimates",
        ),
        "derivative.gateaux_test_calls": (n["derivative.gateaux_test"], "count", None),
        "derivative.gateaux_test_self_s": (own["derivative.gateaux_test"], "s", None),
        "derivative.continuity_decisive_ratio": (
            _ratio(c["derivative.continuity_decisive"], c["derivative.gateaux_reports"]),
            "ratio",
            f"{c['derivative.continuity_decisive']} of {c['derivative.gateaux_reports']} gateaux_test reports",
        ),
        "derivative.build_trace_self_s": (own["derivative.build_trace"], "s", None),
        "derivative.upper_bound_self_s": (own["derivative.upper_bound"], "s", None),
        "derivative.frechet_test_self_s": (own["derivative.frechet_test"], "s", None),
        "derivative.not_converged": (c["derivative.not_converged"], "count", None),
        "config.build_s": (total["config.build"], "s", None),
        "config.run_config_self_s": (own["config.run_config"], "s", None),
        "config.write_csv_s": (total["config.write_csv"], "s", None),
        "reports.to_dict_s": (total["reports.to_dict"], "s", None),
    }


def combine(tracers) -> dict:
    """Counts from the first traced sweep, whose inputs a seed fixes; times
    as the median over all traced sweeps."""
    per_sweep = [layer_metrics(tr) for tr in tracers]
    out = dict(per_sweep[0])
    for name, (_, unit, base) in out.items():
        if unit == "s":
            out[name] = (statistics.median(m[name][0] for m in per_sweep), unit, base)
    return out
