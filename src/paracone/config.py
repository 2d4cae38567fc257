"""Config-file driven runs.

A run is described by a JSON document: one mapping (from the family
registry), an optional constant-and-cone block overriding the family's
declared one, and a list of operations.  Every object in it is read against
a field table (an operation's is in its OPERATIONS entry), so an unknown key
is an error, never ignored.  Stochastic operations must carry an explicit
seed, so every published run is replayable from its config alone.

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
    falsify,
    scalarize_check,
)
from .derivative import (
    _DEPTH,
    _RATIO,
    QuotientTrace,
    ScanReport,
    build_trace,
    check_alpha_monotone,
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
    make_stacked_scalars,
    neg_abs_1d,
    neg_square_1d,
    smooth_r2_r3,
)
from .modulus import ParaSpec, power_modulus, square_modulus, table_modulus, zero_modulus
from .reports import _jsonify


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending path."""


class _Required(str):
    """The default of a field that must be present; its text is the error."""


_REQUIRED = _Required("required")


def read_fields(obj, table: dict, path: str, dims: dict | None = None) -> dict:
    """obj, a JSON object, parsed against table, which maps each field obj may
    carry to (reader, default) or (reader, default, dim).  A reader takes
    (value, path), plus dims[dim] for a field with a dim.  An absent field
    takes its default, read like a given value; a field whose default is None
    also accepts null.  A missing required field, a malformed value or an
    unknown key raises a ConfigError at path.key (at key when path is empty).
    """
    prefix = f"{path}." if path else ""
    for key in _object(obj, path):
        if key not in table:
            raise ConfigError(f"{prefix}{key}: unknown field, expected one of {', '.join(table)}")
    out = {}
    for key, (read, default, *dim) in table.items():
        val = obj.get(key, default)
        if isinstance(val, _Required):
            raise ConfigError(f"{prefix}{key}: {val}")
        out[key] = None if val is None and default is None else read(val, prefix + key, *(dims[d] for d in dim))
    return out


def _integer(val, path: str) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}: expected an integer, got {val!r}")
    return val


def _count(val, path: str) -> int:
    if _integer(val, path) < 1:
        raise ConfigError(f"{path}: expected a positive count, got {val}")
    return val


def _number(val, path: str) -> float:
    try:
        ok = not isinstance(val, bool) and isinstance(val, (int, float)) and math.isfinite(val)
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ConfigError(f"{path}: expected a finite number, got {val!r}")
    return float(val)


def _nonnegative(val, path: str) -> float:
    if _number(val, path) < 0.0:
        raise ConfigError(f"{path}: expected a nonnegative number, got {val!r}")
    return float(val)


def _nonnegatives(val, path: str) -> tuple:
    if not isinstance(val, (list, tuple)) or not val:
        raise ConfigError(f"{path}: expected a non-empty list of numbers, got {val!r}")
    return tuple(_nonnegative(v, f"{path}[{i}]") for i, v in enumerate(val))


def _typed(kind: type, noun: str) -> Callable:
    """A reader that passes a value of type kind through unchanged."""

    def read(val, path: str):
        if not isinstance(val, kind):
            raise ConfigError(f"{path}: expected {noun}, got {val!r}")
        return val

    return read


_flag, _string, _object = _typed(bool, "true or false"), _typed(str, "a string"), _typed(dict, "an object")


def _form(val, path: str) -> str:
    if val not in ("min", "lambda"):
        raise ConfigError(f"{path}: expected 'min' or 'lambda', got {val!r}")
    return val


def _file_name(val, path: str) -> str:
    if not isinstance(val, str) or Path(val).name != val or val in ("", ".."):
        raise ConfigError(f"{path}: expected a bare file name, written inside --out, got {val!r}")
    return val


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


def _coords(val, path: str, dim: int) -> np.ndarray:
    arr = _as_floats(val, path)
    if arr.shape != (dim,):
        raise ConfigError(f"{path}: expected {dim} coordinates")
    return arr


def _rows(val, path: str, dim: int) -> list:
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{path}: expected a non-empty list of rows, got {val!r}")
    return [_coords(row, f"{path}[{i}]", dim) for i, row in enumerate(val)]


def _region(val, path: str, dim: int) -> Box:
    box = build_box(val, path)
    if box.dim != dim:
        raise ConfigError(f"{path}: expected {dim} coordinates")
    return box


@contextmanager
def _located(path: str):
    """Re-raise a ValueError from below as a ConfigError naming path."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@contextmanager
def _writing(what: str):
    """Re-raise an OSError from below as a ConfigError on --out: what failed, and why."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"--out: {what} ({exc.strerror})") from exc


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{p}: cannot read config ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{p}: top level must be an object")
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _kind(kinds: dict, noun: str, default=None) -> Callable:
    """A reader that builds an object as the kind its "kind" field names;
    kinds maps each kind to (constructor, table of its keyword fields)."""

    def read(obj, path: str):
        kind = _object(obj, path).get("kind", default)
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{path}.kind: unknown {noun} {kind!r}, expected one of {', '.join(kinds)}")
        make, table = kinds[kind]
        with _located(path):
            return make(**read_fields({key: val for key, val in obj.items() if key != "kind"}, table, path))

    return read


def build_box(obj, path: str) -> Box:
    with _located(path):
        return Box(**read_fields(obj, {"lo": (_as_floats, _REQUIRED), "hi": (_as_floats, _REQUIRED)}, path))


_NAME = {"name": (_string, "config-cone")}

# cone forms: the key that selects a form, and the form's table
_CONE_FORMS = {
    "orthant": {"orthant": (_integer, _REQUIRED)},
    "generators": {"generators": (_as_floats, _REQUIRED), "dual_generators": (_as_floats, None), **_NAME},
    "dual_generators": {"dual_generators": (_as_floats, _REQUIRED), **_NAME},
    "random_simplicial": {
        "random_simplicial": (_flag, _REQUIRED),
        "dim": (_integer, _REQUIRED),
        "seed": (_integer, _REQUIRED),
        "name": (_string, None),
    },
}


def build_cone(obj, path: str) -> PolyCone:
    form = next((key for key in _CONE_FORMS if key in _object(obj, path)), None)
    if form is None:
        raise ConfigError(f"{path}: expected one of {', '.join(_CONE_FORMS)}")
    c = read_fields(obj, _CONE_FORMS[form], path)
    gens, duals = c.get("generators"), c.get("dual_generators")
    if gens is not None and duals is not None and gens.size == 0:
        raise ConfigError(f"{path}.generators: expected at least one generator next to dual_generators")
    if form == "random_simplicial" and not c["random_simplicial"]:
        raise ConfigError(f"{path}.random_simplicial: expected true")
    with _located(path):
        if form == "orthant":
            return orthant(c["orthant"])
        if form == "random_simplicial":
            return random_simplicial_cone(c["dim"], c["seed"], name=c["name"])
        if gens is None:
            return cone_from_inequalities(duals, name=c["name"])
        if duals is None:
            return cone_from_generators(gens, name=c["name"])
        return PolyCone(dim=gens.shape[-1], generators=gens, dual_generators=duals, name=c["name"])


_MODULI = {
    "zero": (zero_modulus, {}),
    "square": (square_modulus, {"scale": (_number, 1.0)}),
    "power": (power_modulus, {"p": (_number, _REQUIRED), "scale": (_number, 1.0)}),
    "table": (table_modulus, {"knots": (_pairs, _REQUIRED)}),
}
build_modulus = _kind(_MODULI, "modulus kind")


# smooth parts of semiconvex_scalar
_SMOOTH_KINDS = {
    "quadratic": (Quadratic1D, {"a": (_number, 0.0), "b": (_number, 0.0), "c": (_number, 0.0)}),
    "sine": (Sine1D, {"amplitude": (_number, 1.0), "frequency": (_number, 1.0), "phase": (_number, 0.0)}),
    "zero": (ZeroPart, {}),
}


def _semiconvex(kinks, initial_slope, smooth, domain, C) -> VectorMapping:
    convex = PiecewiseLinear(initial_slope=initial_slope, kinks=kinks)
    return make_stacked_scalars((convex,), (smooth,), [1.0], C=C, domain=domain, label="semiconvex-scalar")


# mapping families: constructor and the table of mapping.params
_FAMILIES = {
    "affine": (
        lambda matrix, offset, domain, cone, k: affine_mapping(matrix, offset, domain, cone=cone, k=k),
        {
            "matrix": (_as_floats, _REQUIRED),
            "offset": (_as_floats, _REQUIRED),
            "domain": (build_box, _REQUIRED),
            "cone": (build_cone, None),
            "k": (_as_floats, None),
        },
    ),
    "neg_square": (neg_square_1d, {}),
    "abs": (abs_1d, {}),
    "neg_abs": (neg_abs_1d, {}),
    "semiconvex_scalar": (
        _semiconvex,
        {
            "kinks": (_pairs, ()),
            "initial_slope": (_number, _REQUIRED),
            "smooth": (_kind(_SMOOTH_KINDS, "smooth kind", default="zero"), {}),
            "domain": (build_box, _REQUIRED),
            "C": (_number, _REQUIRED),
        },
    ),
    "example1": (example1_default, {"n": (_integer, 8), "kinks_per_component": (_integer, 5), "C": (_number, 0.5)}),
    "curved_cone": (curved_cone_map, {"cone": (build_cone, _REQUIRED), "seed": (_integer, _REQUIRED)}),
    "smooth_r2_r3": (smooth_r2_r3, {}),
}


def build_mapping(obj, path: str = "mapping") -> VectorMapping:
    m = read_fields(obj, {"family": (_string, _REQUIRED), "params": (_object, {})}, path)
    if m["family"] not in _FAMILIES:
        raise ConfigError(f"{path}.family: unknown family {m['family']!r}")
    make, table = _FAMILIES[m["family"]]
    with _located(path):
        return make(**read_fields(m["params"], table, f"{path}.params"))


_SPEC = {
    "modulus": (build_modulus, _REQUIRED),
    "cone": (build_cone, _REQUIRED),
    "k": (_as_floats, _REQUIRED),
    "C": (_number, None),
    "C1": (_number, None),
}


def build_spec(cfg: dict, mapping: VectorMapping) -> ParaSpec:
    if cfg.get("spec") is None:
        if mapping.claimed is None:
            raise ConfigError("spec: required, the mapping family declares no constants")
        return mapping.claimed
    with _located("spec"):
        spec = ParaSpec(**read_fields(cfg["spec"], _SPEC, "spec"))
    if spec.cone.dim != mapping.codomain_dim:
        dims = f"dimension {spec.cone.dim} does not match the mapping codomain {mapping.codomain_dim}"
        raise ConfigError(f"spec.cone: {dims}")
    return spec


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


# Runners take (mapping, spec, **the entry's fields), each field named after the
# keyword it feeds, and return (report dict, passed).  They reach checks and CSV
# writers through this module's globals at call time, so a function swapped in
# on the module (a profiler's wrapper, say) is the one that runs.  A runner
# hands its CSV to the entry's csv callable as (writer, object); run_config
# writes it once every entry has run.


def _verdict(rep) -> tuple:
    return rep.to_dict(), rep.passed


def _default_region(f: VectorMapping, region: Box | None) -> Box:
    """region, or by default the domain with each side pulled in by 4% of its
    width at both ends."""
    return f.domain.shrink(0.04) if region is None else region


def _run_scalarize(f, spec, functionals, **fields):
    functionals = unit_dual_generators(spec.cone) if functionals is None else functionals
    return _verdict(scalarize_check(f, spec, functionals, **fields))


def _run_fact2(f, spec, y_star, **fields):
    y_star = strictly_positive_functional(spec.cone) if y_star is None else y_star
    return _verdict(check_fact2(f, spec, y_star, **fields))


def _run_trace(f, spec, tol, csv, **fields):
    trace = build_trace(f, spec, **fields)
    mono = check_alpha_monotone(trace, tol=tol)
    if csv is not None:
        csv(write_trace_csv, trace)
    return {"monotone": mono.to_dict()}, mono.passed


def _run_derivative(f, spec, upper_bound, upper_tol, **fields):
    est = directional_derivative(f, spec, **fields)
    result, passed = _jsonify(est), est.converged
    if upper_bound and est.converged:
        ub = check_upper_bound(f, spec, fields["x0"], fields["h"], est, tol=upper_tol)
        result["upper_bound"], passed = ub.to_dict(), ub.passed
    return result, passed


def _run_gateaux_scan(f, spec, region, csv, **fields):
    rep = gateaux_scan(f, spec, _default_region(f, region), **fields)
    if csv is not None:
        csv(write_scan_csv, rep)
    return rep.to_dict(), bool(rep.density == 1.0)


@dataclass(frozen=True)
class Operation:
    """One config operation: its runner, the table of every field it reads
    (as read_fields takes it), and the report field its verdict line prints
    (a format string over the report dict; None prints no detail)."""

    run: Callable[..., tuple]
    fields: dict
    headline: str | None = None


# field tables of the operations below, some shared by several
_SEED = {"seed": (_integer, _Required("explicit seed required for a stochastic operation"))}
_SAMPLED = {**_SEED, "budget": (_count, 1000), "tol": (_nonnegative, 1e-9)}
_FORMED = {**_SAMPLED, "form": (_form, "min")}
_X0 = {"x0": (_coords, _REQUIRED, "domain")}
_STEPS = {**_X0, "h": (_coords, _REQUIRED, "domain"), "t0": (_number, None), "ratio": (_number, _RATIO)}
_GATEAUX = {**_SEED, "tol": (_nonnegative, 1e-6), "n_directions": (_count, 8)}
_CSV = {"csv": (_file_name, None)}
_UPPER = {"upper_bound": (_flag, True), "upper_tol": (_nonnegative, 1e-9)}
_SCAN = {
    **_GATEAUX,
    "region": (_region, None, "domain"),
    "points": (_rows, None, "domain"),
    "n_points": (_count, 100),
    **_CSV,
}

_MARGIN = "worst_margin={worst_margin:.3e}"

# the one table of config operations, in CLI order
OPERATIONS = {
    "check-paraconvex": Operation(lambda f, spec, **kw: _verdict(check_inequality(f, spec, **kw)), _FORMED, _MARGIN),
    # exit semantics stay verdict-based: a found violation reports fail
    "falsify": Operation(
        lambda f, spec, **kw: _verdict(falsify(f, spec, **kw)), {**_FORMED, "refine": (_flag, True)}, _MARGIN
    ),
    "scalarize": Operation(_run_scalarize, {**_FORMED, "functionals": (_rows, None, "codomain")}, _MARGIN),
    "fact2": Operation(_run_fact2, {**_SAMPLED, "y_star": (_coords, None, "codomain")}, _MARGIN),
    "approx-convex": Operation(
        lambda f, spec, **kw: _verdict(check_approx_convex(f, **kw)),
        {**_SAMPLED, **_X0, "epsilon": (_nonnegative, _REQUIRED), "delta": (_nonnegative, _REQUIRED)},
        _MARGIN,
    ),
    "trace": Operation(_run_trace, {**_STEPS, "depth": (_integer, _DEPTH), "tol": (_nonnegative, 1e-9), **_CSV}),
    "derivative": Operation(
        _run_derivative,
        {**_STEPS, "max_depth": (_integer, _DEPTH), "tol": (_nonnegative, 1e-6), **_UPPER},
        "error_bound={error_bound:.3e}",
    ),
    "gateaux": Operation(
        lambda f, spec, **kw: _verdict(gateaux_test(f, spec, **kw)), {**_X0, **_GATEAUX}, "defect={defect:.3e}"
    ),
    "gateaux-scan": Operation(_run_gateaux_scan, _SCAN, "density={density:.4f}"),
    "frechet": Operation(
        lambda f, spec, **kw: _verdict(frechet_test(f, spec, **kw)),
        {**_X0, **_GATEAUX, "n_directions": (_count, 16), "epsilons": (_nonnegatives, (1e-2, 1e-3))},
    ),
}


def check_entries(val, path: str = "checks") -> list:
    """The config's list of operations; a ConfigError unless it is a non-empty list."""
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{path}: expected a non-empty list of operations")
    return val


_TOP = {
    "description": (_string, None),
    "mapping": (_object, _REQUIRED),
    "spec": (_object, None),
    "checks": (check_entries, _REQUIRED),
}


def read_entry(op, path: str, f: VectorMapping, overrides: dict | None = None) -> tuple:
    """(op name, label or None, fields) of one check entry, the fields parsed
    against its op's table.  overrides (from CLI flags) set a field only on
    an entry whose op reads it."""
    name = _object(op, path).get("op")
    if not isinstance(name, str) or name not in OPERATIONS:
        raise ConfigError(f"{path}.op: unknown operation {name!r}, expected one of {', '.join(OPERATIONS)}")
    table = OPERATIONS[name].fields
    flags = {key: val for key, val in (overrides or {}).items() if val is not None and key in table}
    dims = {"domain": f.domain.dim, "codomain": f.codomain_dim}
    fields = read_fields({**op, **flags}, {"op": (_string, _REQUIRED), "label": (_string, None), **table}, path, dims)
    return fields.pop("op"), fields.pop("label"), fields


def run_config(cfg: dict, out_dir=None, overrides: dict | None = None) -> dict:
    """Execute every operation in the config and assemble the manifest.

    Every entry is read before any runs, and nothing is created under out_dir
    until every entry has run, so neither a malformed entry nor one that fails
    at run time leaves output behind.  overrides (from CLI flags) are set on
    an entry before it is read, so a flag seed satisfies the explicit-seed
    rule.  A ValueError from building or running an entry comes out as a
    ConfigError naming it, and so does an out_dir that cannot be made a
    directory or an output file that cannot be written there.
    """
    start = time.perf_counter()
    top = read_fields(cfg, _TOP, "")
    mapping = build_mapping(top["mapping"], "mapping")
    spec = build_spec(cfg, mapping)
    entries = [read_entry(op, f"checks[{idx}]", mapping, overrides) for idx, op in enumerate(top["checks"])]
    out_path = None if out_dir is None else Path(out_dir)
    reports, writes = [], []
    for idx, (name, label, fields) in enumerate(entries):
        if fields.get("csv") is not None:
            fields["csv"] = lambda write, obj, name=fields["csv"]: writes.append((write, obj, name))
        with _located(f"checks[{idx}]"):
            report, passed = OPERATIONS[name].run(mapping, spec, **fields)
        label = f"{name}-{idx}" if label is None else label
        reports.append({"op": name, "label": label, "pass": bool(passed), "report": report})
    if out_path is not None:
        with _writing(f"cannot create directory {out_path}"):
            out_path.mkdir(parents=True, exist_ok=True)
        for write, obj, name in writes:
            with _writing(f"cannot write {out_path / name}"):
                write(obj, out_path / name)
    manifest = {
        "config_hash": config_hash(cfg),
        "version": __version__,
        "mapping": mapping.label,
        "reports": reports,
        "exit_status": 0 if all(r["pass"] for r in reports) else 1,
        "wall_clock_s": round(time.perf_counter() - start, 6),
    }
    if out_path is not None:
        with _writing(f"cannot write {out_path / 'manifest.json'}"):
            (out_path / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest
