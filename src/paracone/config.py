"""Config-file driven runs.

A run is described by a JSON document: one mapping (from the family
registry), an optional constant-and-cone block overriding the family's
declared one, and a list of operations.  Stochastic operations must carry
an explicit seed; a missing seed is a validation error, not a silent
default, so every published run is replayable from its config alone.

The manifest written next to the outputs contains the config hash, the
package version, every report, and the exit status; two runs of the same
config differ only in the wall-clock field.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .checks import (
    check_approx_convex,
    check_fact2,
    check_inequality,
    check_local_vector_bounded,
    check_vector_lipschitz,
    falsify,
    scalarize_check,
)
from .derivative import (
    QuotientTrace,
    ScanReport,
    build_trace,
    check_alpha_monotone,
    check_lower_bound,
    check_upper_bound,
    directional_derivative,
    frechet_test,
    gateaux_scan,
    gateaux_test,
)
from .geometry import (
    Box,
    PolyCone,
    cone_from_generators,
    cone_from_inequalities,
    orthant,
    random_simplicial_cone,
    strictly_positive_functional,
    unit_dual_generators,
)
from .mappings import (
    PiecewiseLinear,
    Quadratic1D,
    Sine1D,
    VectorMapping,
    ZeroPart,
    abs_1d,
    affine_mapping,
    curved_cone_map,
    example1_default,
    make_semiconvex_scalar,
    neg_abs_1d,
    neg_square_1d,
    smooth_r2_r3,
)
from .modulus import Modulus, ParaSpec, power_modulus, square_modulus, table_modulus, zero_modulus
from .reports import _jsonify


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending path."""


def _req(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}: required")
    return obj[key]


def _integer(val, path: str) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}: expected an integer, got {val!r}")
    return val


def _number(val, path: str) -> float:
    try:
        ok = not isinstance(val, bool) and isinstance(val, (int, float)) and math.isfinite(val)
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ConfigError(f"{path}: expected a finite number, got {val!r}")
    return float(val)


def _as_floats(val, path: str) -> np.ndarray:
    """A number or nested lists of numbers as a float array.  Each entry
    goes through _number, so a bool, a string or a non-finite entry is
    rejected with its own path, such as path[0][1]."""

    def check(item, at: str) -> None:
        if isinstance(item, (list, tuple)):
            for i, sub in enumerate(item):
                check(sub, f"{at}[{i}]")
        else:
            _number(item, at)

    check(val, path)
    try:
        return np.asarray(val, dtype=float)
    except ValueError as exc:  # ragged nesting
        raise ConfigError(f"{path}: expected numbers, got {val!r}") from exc


def _pairs(val, path: str) -> tuple:
    """A list of [number, number] pairs as a tuple of float pairs."""
    arr = _as_floats(val, path)
    if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
        raise ConfigError(f"{path}: expected a list of [number, number] pairs")
    return tuple(map(tuple, arr.tolist()))


@contextmanager
def _located(path: str):
    """Re-raise a ValueError from below as a ConfigError naming path."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{p}: top level must be an object")
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_box(obj, path: str) -> Box:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object with lo/hi")
    lo = _as_floats(_req(obj, "lo", path), f"{path}.lo")
    hi = _as_floats(_req(obj, "hi", path), f"{path}.hi")
    with _located(path):
        return Box(lo=lo, hi=hi)


def build_cone(obj, path: str) -> PolyCone:
    if isinstance(obj, dict) and "orthant" in obj:
        return orthant(_integer(obj["orthant"], f"{path}.orthant"))
    if isinstance(obj, dict) and ("generators" in obj or "dual_generators" in obj):
        gens = obj.get("generators")
        duals = obj.get("dual_generators")
        name = str(obj.get("name", "config-cone"))
        with _located(path):
            if gens is not None and duals is not None:
                gens = _as_floats(gens, f"{path}.generators")
                if gens.size == 0:
                    raise ConfigError(f"{path}.generators: expected at least one generator next to dual_generators")
                return PolyCone(
                    dim=gens.shape[-1],
                    generators=gens,
                    dual_generators=_as_floats(duals, f"{path}.dual_generators"),
                    name=name,
                )
            if gens is not None:
                return cone_from_generators(_as_floats(gens, f"{path}.generators"), name=name)
            return cone_from_inequalities(_as_floats(duals, f"{path}.dual_generators"), name=name)
    if isinstance(obj, dict) and obj.get("random_simplicial"):
        return random_simplicial_cone(*(_integer(_req(obj, key, path), f"{path}.{key}") for key in ("dim", "seed")))
    raise ConfigError(f"{path}: expected orthant/generators/dual_generators")


def build_modulus(obj, path: str) -> Modulus:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{path}: expected an object with a kind")
    kind = obj["kind"]
    scale = _number(obj.get("scale", 1.0), f"{path}.scale")
    with _located(path):
        if kind == "zero":
            return zero_modulus()
        if kind == "square":
            return square_modulus(scale=scale)
        if kind == "power":
            return power_modulus(p=_number(_req(obj, "p", path), f"{path}.p"), scale=scale)
        if kind == "table":
            return table_modulus(_pairs(_req(obj, "knots", path), f"{path}.knots"))
    raise ConfigError(f"{path}.kind: unknown modulus kind {kind!r}")


# smooth parts of semiconvex_scalar: constructor and parameter defaults
_SMOOTH_KINDS = {
    "quadratic": (Quadratic1D, {"a": 0.0, "b": 0.0, "c": 0.0}),
    "sine": (Sine1D, {"amplitude": 1.0, "frequency": 1.0, "phase": 0.0}),
    "zero": (ZeroPart, {}),
}

# families that take no parameters
_PLAIN_FAMILIES = {"neg_square": neg_square_1d, "abs": abs_1d, "neg_abs": neg_abs_1d, "smooth_r2_r3": smooth_r2_r3}


def build_mapping(obj, path: str = "mapping") -> VectorMapping:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    family = str(_req(obj, "family", path))
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.params: expected an object")
    ppath = f"{path}.params"
    if family == "affine":
        matrix = _as_floats(_req(params, "matrix", ppath), f"{ppath}.matrix")
        offset = _as_floats(_req(params, "offset", ppath), f"{ppath}.offset")
        domain = build_box(_req(params, "domain", ppath), f"{ppath}.domain")
        cone = build_cone(params["cone"], f"{ppath}.cone") if "cone" in params else None
        k = _as_floats(params["k"], f"{ppath}.k") if "k" in params else None
        with _located(path):
            return affine_mapping(matrix, offset, domain, cone=cone, k=k)
    if family in _PLAIN_FAMILIES:
        return _PLAIN_FAMILIES[family]()
    if family == "semiconvex_scalar":
        kinks = _pairs(params.get("kinks", ()), f"{ppath}.kinks")
        slope = _number(_req(params, "initial_slope", ppath), f"{ppath}.initial_slope")
        u1 = PiecewiseLinear(initial_slope=slope, kinks=kinks)
        smooth_obj = params.get("smooth", {"kind": "zero"})
        if not isinstance(smooth_obj, dict):
            raise ConfigError(f"{ppath}.smooth: expected an object")
        kind = str(smooth_obj.get("kind", "zero"))
        if kind not in _SMOOTH_KINDS:
            raise ConfigError(f"{ppath}.smooth.kind: unknown kind {kind!r}")
        make, defaults = _SMOOTH_KINDS[kind]
        u2 = make(**{key: _number(smooth_obj.get(key, d), f"{ppath}.smooth.{key}") for key, d in defaults.items()})
        domain = build_box(_req(params, "domain", ppath), f"{ppath}.domain")
        with _located(path):
            return make_semiconvex_scalar(u1, u2, C=_number(_req(params, "C", ppath), f"{ppath}.C"), domain=domain)
    if family == "example1":
        return example1_default(
            n=_integer(params.get("n", 8), f"{ppath}.n"),
            kinks_per_component=_integer(params.get("kinks_per_component", 5), f"{ppath}.kinks_per_component"),
            C=_number(params.get("C", 0.5), f"{ppath}.C"),
        )
    if family == "curved_cone":
        cone = build_cone(_req(params, "cone", ppath), f"{ppath}.cone")
        return curved_cone_map(cone, seed=_integer(_req(params, "seed", ppath), f"{ppath}.seed"))
    raise ConfigError(f"{path}.family: unknown family {family!r}")


def build_spec(cfg: dict, mapping: VectorMapping) -> ParaSpec:
    obj = cfg.get("spec")
    if obj is None:
        if mapping.claimed is None:
            raise ConfigError("spec: required, the mapping family declares no constants")
        return mapping.claimed
    path = "spec"
    modulus = build_modulus(_req(obj, "modulus", path), f"{path}.modulus")
    cone = build_cone(_req(obj, "cone", path), f"{path}.cone")
    k = _as_floats(_req(obj, "k", path), f"{path}.k")
    c_min, c_lam = (None if obj.get(key) is None else _number(obj[key], f"{path}.{key}") for key in ("C", "C1"))
    membership_tol = _number(obj.get("membership_tol", 1e-9), f"{path}.membership_tol")
    with _located(path):
        return ParaSpec(modulus=modulus, k=k, cone=cone, C=c_min, C1=c_lam, membership_tol=membership_tol)


def validate_operation(op: dict, path: str) -> str:
    """Check an entry's op name and the fields every op shares; return the op name."""
    if not isinstance(op, dict):
        raise ConfigError(f"{path}: expected an object")
    name = str(_req(op, "op", path))
    if name not in OPERATIONS:
        raise ConfigError(f"{path}.op: unknown operation {name!r}")
    if OPERATIONS[name].stochastic and "seed" not in op:
        raise ConfigError(f"{path}.seed: explicit seed required for stochastic operation {name!r}")
    for key in ("seed", "budget"):
        if key in op:
            _integer(op[key], f"{path}.{key}")
    for key in ("tol", "upper_tol"):
        if key in op:
            _number(op[key], f"{path}.{key}")
    for key in ("label", "csv"):
        if key in op and not isinstance(op[key], str):
            raise ConfigError(f"{path}.{key}: expected a string, got {op[key]!r}")
    if "csv" in op and (Path(op["csv"]).name != op["csv"] or op["csv"] in ("", "..")):
        raise ConfigError(f"{path}.csv: expected a bare file name, written inside --out, got {op['csv']!r}")
    if str(op.get("form", "min")) not in ("min", "lambda"):
        raise ConfigError(f"{path}.form: expected 'min' or 'lambda'")
    return name


def write_trace_csv(trace: QuotientTrace, path) -> None:
    m = trace.raw.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"raw_{i + 1}" for i in range(m)] + [f"corrected_{i + 1}" for i in range(m)])
        for t, raw, cor in zip(trace.t_grid, trace.raw, trace.corrected):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in raw] + [repr(float(v)) for v in cor])


def write_scan_csv(report: ScanReport, path) -> None:
    d = report.region.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{i + 1}" for i in range(d)] + ["pass", "defect"])
        for p, ok, defect in zip(report.points, report.passed, report.defects):
            writer.writerow([repr(float(v)) for v in p] + [int(bool(ok)), repr(float(defect))])


_REQUIRED = object()  # a CheckEntry field without a default


@dataclass
class CheckEntry:
    """One validated check entry, with the fields every op shares parsed."""

    f: VectorMapping
    spec: ParaSpec
    op: dict
    path: str
    out_dir: Path | None
    seed: int | None
    budget: int
    tol: float
    form: str

    @property
    def sampled(self) -> dict:
        return {"budget": self.budget, "seed": self.seed, "tol": self.tol}

    def _field(self, key: str, default):
        return _req(self.op, key, self.path) if default is _REQUIRED else self.op.get(key, default)

    def integer(self, key: str, default) -> int:
        return _integer(self._field(key, default), f"{self.path}.{key}")

    def number(self, key: str, default=_REQUIRED) -> float | None:
        """A finite number; a field whose default is None may also be null."""
        val = self._field(key, default)
        return None if val is None and default is None else _number(val, f"{self.path}.{key}")

    def numbers(self, key: str, default) -> tuple:
        val = self._field(key, default)
        if not isinstance(val, (list, tuple)) or not val:
            raise ConfigError(f"{self.path}.{key}: expected a non-empty list of numbers, got {val!r}")
        return tuple(_number(v, f"{self.path}.{key}[{i}]") for i, v in enumerate(val))

    def flag(self, key: str, default: bool) -> bool:
        val = self._field(key, default)
        if not isinstance(val, bool):
            raise ConfigError(f"{self.path}.{key}: expected true or false, got {val!r}")
        return val

    def rows(self, key: str) -> list:
        val = self._field(key, _REQUIRED)
        if not isinstance(val, list) or not val:
            raise ConfigError(f"{self.path}.{key}: expected a non-empty list of rows, got {val!r}")
        return [_as_floats(row, f"{self.path}.{key}[{i}]") for i, row in enumerate(val)]

    def point(self, key: str) -> np.ndarray:
        arr = _as_floats(_req(self.op, key, self.path), f"{self.path}.{key}")
        if arr.shape != (self.f.domain.dim,):
            raise ConfigError(f"{self.path}.{key}: expected {self.f.domain.dim} coordinates")
        return arr

    def region(self) -> Box:
        """The entry's region; by default the domain shrunk by 2% of its narrowest side."""
        if "region" in self.op:
            return build_box(self.op["region"], f"{self.path}.region")
        return self.f.domain.shrink(0.02 * float(np.min(self.f.domain.hi - self.f.domain.lo)))

    def write_csv(self, writer, result) -> None:
        """writer(result, file) when there is an output directory and a csv field."""
        if self.out_dir is not None and "csv" in self.op:
            writer(result, self.out_dir / self.op["csv"])


# Runners take a CheckEntry and return (report dict, passed).  They reach checks
# and CSV writers through this module's globals at call time, so a function
# swapped in on the module (a profiler's wrapper, say) is the one that runs.


def _verdict(rep) -> tuple:
    return rep.to_dict(), rep.passed


def _run_check(e: CheckEntry):
    return _verdict(check_inequality(e.f, e.spec, form=e.form, **e.sampled))


def _run_falsify(e: CheckEntry):
    # exit semantics stay verdict-based: a found violation reports fail
    return _verdict(falsify(e.f, e.spec, form=e.form, refine=e.flag("refine", True), **e.sampled))


def _run_scalarize(e: CheckEntry):
    functionals = e.rows("functionals") if "functionals" in e.op else list(unit_dual_generators(e.spec.cone))
    return _verdict(scalarize_check(e.f, e.spec, functionals, form=e.form, **e.sampled))


def _run_fact2(e: CheckEntry):
    if "y_star" in e.op:
        y_star = _as_floats(e.op["y_star"], f"{e.path}.y_star")
    else:
        y_star = strictly_positive_functional(e.spec.cone).coeffs
    return _verdict(check_fact2(e.f, e.spec, y_star, **e.sampled))


def _run_approx_convex(e: CheckEntry):
    x0, epsilon, delta = e.point("x0"), e.number("epsilon"), e.number("delta")
    return _verdict(check_approx_convex(e.f, x0, epsilon=epsilon, delta=delta, **e.sampled))


def _run_bounded(e: CheckEntry):
    x0, radius = e.point("x0"), e.number("radius")
    return _verdict(check_local_vector_bounded(e.f, e.spec.cone, x0, radius=radius, **e.sampled))


def _run_lipschitz(e: CheckEntry):
    return _verdict(check_vector_lipschitz(e.f, e.spec, e.region(), **e.sampled))


def _run_trace(e: CheckEntry):
    x0, h, ratio, depth = e.point("x0"), e.point("h"), e.number("ratio", 0.5), e.integer("depth", 40)
    trace = build_trace(e.f, e.spec, x0, h, t0=e.number("t0", None), ratio=ratio, depth=depth)
    mono = check_alpha_monotone(trace, tol=e.tol)
    lower = check_lower_bound(trace, tol=e.tol)
    e.write_csv(write_trace_csv, trace)
    return {"monotone": mono.to_dict(), "lower_bound": lower.to_dict()}, mono.passed and lower.passed


def _run_derivative(e: CheckEntry):
    x0, h, ratio, max_depth = e.point("x0"), e.point("h"), e.number("ratio", 0.5), e.integer("max_depth", 40)
    est = directional_derivative(e.f, e.spec, x0, h, tol=e.tol, t0=e.number("t0", None), ratio=ratio, max_depth=max_depth)
    result, passed = _jsonify(est), est.converged
    if e.flag("upper_bound", True) and est.converged:
        ub = check_upper_bound(e.f, e.spec, x0, h, est, tol=e.number("upper_tol", 1e-9))
        result["upper_bound"], passed = ub.to_dict(), ub.passed
    return result, passed


def _run_gateaux(e: CheckEntry):
    x0, n_directions = e.point("x0"), e.integer("n_directions", 8)
    return _verdict(gateaux_test(e.f, e.spec, x0, n_directions=n_directions, tol=e.tol, seed=e.seed))


def _run_gateaux_scan(e: CheckEntry):
    region = e.region()
    points = e.rows("points") if "points" in e.op else None
    n_points, n_directions = e.integer("n_points", 100), e.integer("n_directions", 8)
    if n_points < 1:
        raise ConfigError(f"{e.path}.n_points: expected a positive count, got {n_points}")
    kink_tol = e.number("kink_match_tol", 1e-9)
    rep = gateaux_scan(
        e.f, e.spec, region, n_points, n_directions, tol=e.tol, seed=e.seed, points=points, kink_match_tol=kink_tol
    )
    e.write_csv(write_scan_csv, rep)
    return rep.to_dict(), bool(rep.density == 1.0)


def _run_frechet(e: CheckEntry):
    x0, epsilons = e.point("x0"), e.numbers("epsilons", (1e-2, 1e-3))
    n_directions = e.integer("n_directions", 16)
    return _verdict(frechet_test(e.f, e.spec, x0, epsilons=epsilons, n_directions=n_directions, tol=e.tol, seed=e.seed))


@dataclass(frozen=True)
class Operation:
    """One config operation: its runner, whether its sampling needs an
    explicit seed, its default tol, and the report field its verdict line
    prints (a format string over the report dict; None prints no detail)."""

    run: Callable[[CheckEntry], tuple]
    stochastic: bool = True
    tol: float = 1e-9
    headline: str | None = None


_MARGIN = "worst_margin={worst_margin:.3e}"

# the one table of config operations, in CLI order
OPERATIONS = {
    "check-paraconvex": Operation(_run_check, headline=_MARGIN),
    "falsify": Operation(_run_falsify, headline=_MARGIN),
    "scalarize": Operation(_run_scalarize, headline=_MARGIN),
    "fact2": Operation(_run_fact2, headline=_MARGIN),
    "approx-convex": Operation(_run_approx_convex, headline=_MARGIN),
    "bounded": Operation(_run_bounded, headline=_MARGIN),
    "lipschitz": Operation(_run_lipschitz, headline=_MARGIN),
    "trace": Operation(_run_trace, stochastic=False),
    "derivative": Operation(_run_derivative, stochastic=False, tol=1e-6, headline="error_bound={error_bound:.3e}"),
    "gateaux": Operation(_run_gateaux, tol=1e-6, headline="defect={defect:.3e}"),
    "gateaux-scan": Operation(_run_gateaux_scan, tol=1e-6, headline="density={density:.4f}"),
    "frechet": Operation(_run_frechet, tol=1e-6),
}


def check_entries(cfg: dict) -> list:
    """The config's list of operations; a ConfigError unless it is a non-empty list."""
    ops = cfg.get("checks")
    if not isinstance(ops, list) or not ops:
        raise ConfigError("checks: expected a non-empty list of operations")
    return ops


def run_config(cfg: dict, out_dir=None, overrides: dict | None = None) -> dict:
    """Execute every operation in the config and assemble the manifest.

    overrides (from CLI flags) replace the matching key in every
    operation entry before validation, so a flag seed satisfies the
    explicit-seed rule.  A ValueError from building or running an entry
    comes out as a ConfigError naming the entry.
    """
    start = time.perf_counter()
    with _located("mapping"):
        mapping = build_mapping(_req(cfg, "mapping", "config"), "mapping")
    with _located("spec"):
        spec = build_spec(cfg, mapping)
    ops = check_entries(cfg)
    out_path = None if out_dir is None else Path(out_dir)
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    flags = {key: val for key, val in (overrides or {}).items() if val is not None}
    reports = []
    for idx, op in enumerate(ops):
        path = f"checks[{idx}]"
        op = {**op, **flags} if isinstance(op, dict) else op
        name = validate_operation(op, path)
        tol, form = float(op.get("tol", OPERATIONS[name].tol)), str(op.get("form", "min"))
        entry = CheckEntry(
            mapping, spec, op, path, out_path, seed=op.get("seed"), budget=op.get("budget", 1000), tol=tol, form=form
        )
        with _located(path):
            report, passed = OPERATIONS[name].run(entry)
        reports.append({"op": name, "label": op.get("label", f"{name}-{idx}"), "pass": bool(passed), "report": report})
    manifest = {
        "config_hash": config_hash(cfg),
        "version": __version__,
        "mapping": mapping.label,
        "reports": reports,
        "exit_status": 0 if all(r["pass"] for r in reports) else 1,
        "wall_clock_s": round(time.perf_counter() - start, 6),
    }
    if out_path is not None:
        (out_path / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest
