"""Config loading, operation dispatch, manifests, and the CLI front end."""

import copy
import json
import re
import subprocess
import sys

import numpy as np
import pytest

import paracone.cli
import paracone.config
from paracone.cli import main
from paracone.config import (
    OPERATIONS,
    ConfigError,
    build_cone,
    build_mapping,
    build_modulus,
    build_spec,
    load_config,
    read_entry,
    run_config,
)

from conftest import CONFIG_DIR, REPO_ROOT


TINY_CFG = {
    "mapping": {"family": "neg_square"},
    "checks": [
        {"op": "check-paraconvex", "label": "quick", "budget": 64, "seed": 1, "tol": 1e-9},
    ],
}


# ---------------------------------------------------------------------------
# loading and building


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)
    p2 = tmp_path / "list.json"
    p2.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(p2)


def test_build_cone_variants():
    assert build_cone({"orthant": 3}, "cone").dim == 3
    c = build_cone({"generators": [[1.0, 0.0], [1.0, 1.0]]}, "cone")
    assert c.dim == 2 and c.generators.shape == (2, 2)
    d = build_cone({"dual_generators": [[0.0, 1.0], [1.0, -1.0]]}, "cone")
    assert d.dual_generators.shape == (2, 2)
    r = build_cone({"random_simplicial": True, "dim": 4, "seed": 9}, "cone")
    assert r.dim == 4
    with pytest.raises(ConfigError):
        build_cone({"mystery": 1}, "cone")


def test_build_modulus_variants():
    assert build_modulus({"kind": "zero"}, "m").kind == "zero"
    assert build_modulus({"kind": "square", "scale": 2.0}, "m").scale == 2.0
    assert build_modulus({"kind": "power", "p": 1.5}, "m").p == 1.5
    t = build_modulus({"kind": "table", "knots": [[0.5, 0.25], [1.0, 1.0]]}, "m")
    assert t.kind == "table"
    with pytest.raises(ConfigError, match="unknown modulus kind"):
        build_modulus({"kind": "cubic"}, "m")
    with pytest.raises(ConfigError, match="required"):
        build_modulus({"kind": "power"}, "m")


def test_build_mapping_families():
    for family in ("neg_square", "abs", "neg_abs", "example1", "smooth_r2_r3"):
        f = build_mapping({"family": family}, "mapping")
        assert f.domain.dim >= 1
    f = build_mapping(
        {
            "family": "affine",
            "params": {
                "matrix": [[1.0, 0.0]],
                "offset": [0.0],
                "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            },
        },
        "mapping",
    )
    assert f.codomain_dim == 1
    g = build_mapping(
        {
            "family": "semiconvex_scalar",
            "params": {
                "initial_slope": -1.0,
                "kinks": [[0.0, 1.0]],
                "smooth": {"kind": "quadratic", "a": -0.5},
                "C": 0.5,
                "domain": {"lo": [-1.0], "hi": [1.0]},
            },
        },
        "mapping",
    )
    assert g.claimed.C == 0.5
    h = build_mapping(
        {"family": "curved_cone", "params": {"cone": {"orthant": 3}, "seed": 2}},
        "mapping",
    )
    assert h.codomain_dim == 3
    with pytest.raises(ConfigError, match="unknown family"):
        build_mapping({"family": "spline"}, "mapping")


def test_build_spec_fallback_and_error():
    f = build_mapping({"family": "neg_square"}, "mapping")
    spec = build_spec({"mapping": {}}, f)
    assert spec is f.claimed
    g = build_mapping({"family": "neg_abs"}, "mapping")
    with pytest.raises(ConfigError, match="declares no constants"):
        build_spec({"mapping": {}}, g)
    explicit = build_spec(
        {"spec": {"modulus": {"kind": "square"}, "cone": {"orthant": 1}, "k": [1.0], "C": 2.0}},
        g,
    )
    assert explicit.C == 2.0


def test_validate_operation_messages():
    f = build_mapping({"family": "neg_square"}, "mapping")
    with pytest.raises(ConfigError, match=r"checks\[0\]\.op: unknown operation"):
        read_entry({"op": "probe"}, "checks[0]", f)
    with pytest.raises(ConfigError, match=r"checks\[0\]\.op: unknown operation None"):
        read_entry({"label": "no-op"}, "checks[0]", f)
    with pytest.raises(ConfigError, match=r"checks\[0\]\.seed: explicit seed required"):
        read_entry({"op": "falsify"}, "checks[0]", f)
    with pytest.raises(ConfigError, match=r"seed: expected an integer"):
        read_entry({"op": "falsify", "seed": 1.5}, "checks[0]", f)
    with pytest.raises(ConfigError, match=r"checks\[0\]\.x0: required"):
        read_entry({"op": "trace"}, "checks[0]", f)
    name, label, fields = read_entry({"op": "trace", "x0": [0.25], "h": [1.0], "label": "t"}, "checks[0]", f)
    assert (name, label) == ("trace", "t")
    assert set(fields) == set(OPERATIONS["trace"].fields)  # every field, defaults filled in
    assert fields["depth"] == 40 and fields["csv"] is None


# ---------------------------------------------------------------------------
# run_config manifests


def test_manifest_shape_and_determinism(tmp_path):
    m1 = run_config(copy.deepcopy(TINY_CFG), out_dir=tmp_path / "a")
    m2 = run_config(copy.deepcopy(TINY_CFG), out_dir=tmp_path / "b")
    assert set(m1) == {"config_hash", "version", "mapping", "reports", "exit_status", "wall_clock_s"}
    assert m1["exit_status"] == 0
    assert m1["mapping"] == "neg-square"
    for m in (m1, m2):
        m.pop("wall_clock_s")
    assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
    on_disk = json.loads((tmp_path / "a" / "manifest.json").read_text())
    on_disk.pop("wall_clock_s")
    assert json.dumps(on_disk, sort_keys=True) == json.dumps(m1, sort_keys=True)


def test_run_config_rejects_empty_checks():
    with pytest.raises(ConfigError, match="non-empty list"):
        run_config({"mapping": {"family": "neg_square"}, "checks": []})


def test_trace_and_scan_csv_outputs(tmp_path):
    cfg = {
        "mapping": {"family": "neg_square"},
        "checks": [
            {"op": "trace", "x0": [0.25], "h": [1.0], "depth": 10, "csv": "trace.csv"},
            {
                "op": "gateaux-scan",
                "seed": 3,
                "points": [[0.1], [0.2]],
                "n_directions": 2,
                "csv": "scan.csv",
            },
        ],
    }
    manifest = run_config(cfg, out_dir=tmp_path)
    assert manifest["exit_status"] == 0
    trace_lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "t,raw_1,corrected_1"
    assert len(trace_lines) == 11
    scan_lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert scan_lines[0] == "x_1,pass,defect"
    assert len(scan_lines) == 3


def test_default_region_pulls_each_side_in_by_four_percent_of_its_width():
    # on a 1 x 4 domain: 0.04 and 0.16 in from each end
    domain = {"lo": [0.0, -2.0], "hi": [1.0, 2.0]}
    mapping = {"family": "affine", "params": {"matrix": [[1.0, 0.0]], "offset": [0.0], "domain": domain}}
    cfg = {"mapping": mapping, "checks": [{"op": "gateaux-scan", "seed": 0, "n_points": 2}]}
    region = run_config(cfg)["reports"][0]["report"]["region"]
    assert region["lo"] == pytest.approx([0.04, -1.84], abs=1e-15)
    assert region["hi"] == pytest.approx([0.96, 1.84], abs=1e-15)


def test_overrides_reach_every_operation():
    cfg = {
        "mapping": {"family": "neg_square"},
        "checks": [{"op": "check-paraconvex", "budget": 32}],  # no seed on purpose
    }
    with pytest.raises(ConfigError, match="explicit seed required"):
        run_config(copy.deepcopy(cfg))
    manifest = run_config(copy.deepcopy(cfg), overrides={"seed": 5})
    assert manifest["exit_status"] == 0
    assert manifest["reports"][0]["report"]["seed"] == 5


# ---------------------------------------------------------------------------
# CLI exit codes


def test_cli_run_passes(tmp_path, capsys):
    code = main(["run", "--config", str(CONFIG_DIR / "neg_square_certify.json"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[check-paraconvex] min-form: PASS" in out
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "trace_neg_square.csv").exists()


def test_cli_falsify_exits_one(capsys):
    code = main(["falsify", "--config", str(CONFIG_DIR / "neg_abs_falsify.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_cli_filters_by_subcommand(capsys):
    code = main(["falsify", "--config", str(CONFIG_DIR / "neg_square_certify.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "no entry with op" in err


def test_cli_missing_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "ghost.json")])
    assert code == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_cli_unreadable_config_exits_two(kind, tmp_path, capsys):
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / "cfg.json"
        path.write_bytes(b'\xff{"mapping": {"family": "neg_square"}}')
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: {path}: cannot read config" in captured.err


@pytest.mark.parametrize("under", ["", "sub"])
def test_cli_out_that_cannot_be_a_directory_exits_two(under, tmp_path, capsys):
    # --out names a regular file, or a path below one
    blocker = tmp_path / "file"
    blocker.write_text("keep\n")
    out_dir = blocker / under if under else blocker
    assert main(["run", "--config", str(CONFIG_DIR / "neg_abs_falsify.json"), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: --out: ")
    assert blocker.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize(
    "config, blocked", [("affine_exact.json", "manifest.json"), ("example1_scan.json", "scan_example1.csv")]
)
def test_cli_out_file_that_cannot_be_written_exits_two(config, blocked, tmp_path, capsys):
    # --out is a usable directory, but one output path in it is a directory
    (tmp_path / blocked).mkdir()
    assert main(["run", "--config", str(CONFIG_DIR / config), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: --out: cannot write {tmp_path / blocked} (")


def test_cli_seed_flag_satisfies_seed_rule(tmp_path, capsys):
    p = tmp_path / "no_seed.json"
    p.write_text(
        json.dumps(
            {
                "mapping": {"family": "neg_square"},
                "checks": [{"op": "check-paraconvex", "budget": 32}],
            }
        )
    )
    assert main(["run", "--config", str(p)]) == 2  # seed rule bites
    capsys.readouterr()
    assert main(["run", "--config", str(p), "--seed", "5"]) == 0


def test_cli_form_override(capsys):
    code = main(
        [
            "check-paraconvex",
            "--config",
            str(CONFIG_DIR / "neg_square_certify.json"),
            "--form",
            "lambda",
        ]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out


NAN = float("nan")


@pytest.mark.parametrize(
    "entry, flags, where",
    [
        ({"op": "check-paraconvex", "seed": 1, "tol": NAN}, [], "checks[0].tol"),
        ({"op": "check-paraconvex", "seed": 1, "tol": float("inf")}, [], "checks[0].tol"),
        ({"op": "check-paraconvex", "seed": 1, "tol": -1.0}, [], "checks[0].tol"),
        ({"op": "derivative", "x0": [0.25], "h": [1.0], "upper_tol": NAN}, [], "checks[0].upper_tol"),
        ({"op": "falsify", "seed": True}, [], "checks[0].seed"),
        ({"op": "check-paraconvex", "seed": 1, "budget": True}, [], "checks[0].budget"),
        ({"op": "check-paraconvex", "seed": 1, "budget": 64.5}, [], "checks[0].budget"),
        ({"op": "check-paraconvex", "seed": 1, "budget": "64"}, [], "checks[0].budget"),
        (None, ["--tol", "nan"], "checks[0].tol"),
        (None, ["--tol", "-1"], "checks[0].tol"),
        ({"op": "check-paraconvex", "seed": 1, "label": ["x"]}, [], "checks[0].label"),
        ({"op": "gateaux-scan", "seed": 1, "n_points": 2, "csv": 5}, ["--out", "{tmp}"], "checks[0].csv"),
        ({"op": "check-paraconvex", "seed": 1, "csv": None}, [], "checks[0].csv"),
        ({"op": "trace", "x0": [0.25], "h": [1.0], "csv": "sub/t.csv"}, ["--out", "{tmp}"], "checks[0].csv"),
        ({"op": "trace", "x0": [0.25], "h": [1.0], "csv": "{outside}/x.csv"}, ["--out", "{tmp}"], "checks[0].csv"),
    ],
    ids=[
        "tol-nan",
        "tol-inf",
        "tol-negative",
        "upper-tol-nan",
        "seed-bool",
        "budget-bool",
        "budget-fraction",
        "budget-string",
        "flag-tol-nan",
        "flag-tol-negative",
        "label-list",
        "csv-int",
        "csv-null",
        "csv-subdirectory",
        "csv-absolute",
    ],
)
def test_malformed_shared_fields_exit_two_with_a_path(entry, flags, where, tmp_path, capsys):
    if entry is None:  # the shipped config, broken by a command-line override
        path = CONFIG_DIR / "neg_square_certify.json"
    else:
        path = tmp_path / "cfg.json"
        # {outside} is a directory next to --out, never inside it
        text = json.dumps({"mapping": {"family": "neg_square"}, "checks": [entry]})
        path.write_text(text.replace("{outside}", str(tmp_path)))
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(path)] + [flag.format(tmp=out_dir) for flag in flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # no verdict line: a malformed input is never a FAIL
    assert f"input error: {where}: " in captured.err
    assert not out_dir.exists() or list(out_dir.iterdir()) == []  # nothing written either
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "entry, where",
    [
        ({"op": "frechet", "seed": 1, "x0": [0.25], "epsilons": 5}, "checks[0].epsilons"),
        ({"op": "frechet", "seed": 1, "x0": [0.25], "epsilons": [1e-2, "x"]}, "checks[0].epsilons[1]"),
        ({"op": "derivative", "x0": [0.25], "h": [1.0], "ratio": "0.5"}, "checks[0].ratio"),
        ({"op": "derivative", "x0": [0.25], "h": [1.0], "max_depth": 40.0}, "checks[0].max_depth"),
        ({"op": "derivative", "x0": [0.25], "h": [1.0], "t0": [0.1]}, "checks[0].t0"),
        ({"op": "trace", "x0": [0.25], "h": [1.0], "depth": True}, "checks[0].depth"),
        ({"op": "gateaux", "seed": 1, "x0": [0.25], "n_directions": "8"}, "checks[0].n_directions"),
        ({"op": "gateaux-scan", "seed": 1, "n_points": 2.5}, "checks[0].n_points"),
        ({"op": "gateaux-scan", "seed": 1, "points": 5}, "checks[0].points"),
        ({"op": "scalarize", "seed": 1, "functionals": 5}, "checks[0].functionals"),
        ({"op": "derivative", "x0": [0.25], "h": [1.0], "upper_bound": "no"}, "checks[0].upper_bound"),
        ({"op": "falsify", "seed": 1, "refine": "yes"}, "checks[0].refine"),
        ({"op": "derivative", "x0": [0.0], "h": [1.0], "ratio": 1e-10}, "checks[0]"),
        ({"op": "trace", "x0": [0.0], "h": [1.0], "ratio": 1e-10}, "checks[0]"),
        ({"op": "derivative", "x0": ["0.25"], "h": [1.0]}, "checks[0].x0[0]"),
        ({"op": "derivative", "x0": [0.25], "h": [True]}, "checks[0].h[0]"),
        ({"op": "fact2", "seed": 1, "y_star": [True]}, "checks[0].y_star[0]"),
        ({"op": "scalarize", "seed": 1, "functionals": [[1.0], ["1"]]}, "checks[0].functionals[1][0]"),
        ({"op": "gateaux-scan", "seed": 1, "region": {"lo": [False], "hi": [0.5]}}, "checks[0].region.lo[0]"),
        ({"op": "frechet", "seed": 1, "x0": [0.25], "epsilons": []}, "checks[0].epsilons"),
        ({"op": "gateaux-scan", "seed": 1, "n_points": 0}, "checks[0].n_points"),
        ({"op": "gateaux-scan", "seed": 1, "n_points": -3}, "checks[0].n_points"),
        ({"op": "gateaux-scan", "seed": 1, "points": []}, "checks[0].points"),
        ({"op": "scalarize", "seed": 1, "functionals": []}, "checks[0].functionals"),
        ({"op": "check-paraconvex", "seed": 1, "budget": 0}, "checks[0].budget"),
        ({"op": "gateaux", "seed": 1, "x0": [0.25], "n_directions": -4}, "checks[0].n_directions"),
        ({"op": "frechet", "seed": 1, "x0": [0.25], "n_directions": 0}, "checks[0].n_directions"),
        ({"op": "frechet", "seed": 1, "x0": [0.25], "epsilons": [-1]}, "checks[0].epsilons[0]"),
        ({"op": "approx-convex", "seed": 1, "x0": [0.0], "epsilon": 0.1, "delta": -0.3}, "checks[0].delta"),
        ({"op": "trace", "x0": [0.25], "h": [1.0], "seed": 3}, "checks[0].seed"),
        ({"op": "fact2", "seed": 1, "form": "min"}, "checks[0].form"),
        ({"op": "gateaux", "seed": 1, "x0": [0.25], "budget": 64}, "checks[0].budget"),
        ({"op": "fact2", "seed": 1, "csv": "f.csv"}, "checks[0].csv"),
        ({"op": "check-paraconvex", "seed": 1, "tols": 1e-30}, "checks[0].tols"),
    ],
    ids=[
        "epsilons-int",
        "epsilons-string-entry",
        "ratio-string",
        "max-depth-float",
        "t0-list",
        "depth-bool",
        "n-directions-string",
        "n-points-fraction",
        "points-int",
        "functionals-int",
        "upper-bound-string",
        "refine-string",
        "derivative-grid-underflow",
        "trace-grid-underflow",
        "x0-string-entry",
        "h-bool-entry",
        "y-star-bool-entry",
        "functionals-string-entry",
        "region-bool-entry",
        "epsilons-empty",
        "n-points-zero",
        "n-points-negative",
        "points-empty",
        "functionals-empty",
        "budget-zero",
        "gateaux-n-directions-negative",
        "frechet-n-directions-zero",
        "epsilons-negative",
        "delta-negative",
        "seed-on-trace",
        "form-on-fact2",
        "budget-on-gateaux",
        "csv-on-fact2",
        "tols-misspelled",
    ],
)
def test_malformed_op_fields_exit_two_with_a_path(entry, where, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mapping": {"family": "neg_square"}, "checks": [entry]}))
    code = main(["run", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"input error: {where}: " in captured.err


def test_empty_generators_next_to_duals_exit_two(tmp_path, capsys):
    cone = {"generators": [], "dual_generators": [[1.0]]}
    spec = {"modulus": {"kind": "zero"}, "cone": cone, "k": [1.0], "C": 1.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mapping": {"family": "neg_abs"}, "spec": spec, "checks": TINY_CFG["checks"]}))
    assert main(["run", "--config", str(path)]) == 2
    assert "input error: spec.cone.generators: " in capsys.readouterr().err


_AFFINE_R2 = {
    "family": "affine",
    "params": {
        "matrix": [[1.0, 2.0], [0.5, -1.0]],
        "offset": [0.1, -0.2],
        "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    },
}
_AFFINE_CHECK = {"op": "check-paraconvex", "label": "scaled-cone", "budget": 200, "seed": 1, "tol": 1e-9}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("form", ["generators", "dual_generators"])
def test_a_cone_row_of_any_length_runs(form, scale, tmp_path, capsys):
    # the orthant with its first row written very long or very short: k =
    # (1, 1) is a member and an affine map PASSes, with the orthant's margin
    spec = {"modulus": {"kind": "zero"}, "cone": {form: [[scale, 0.0], [0.0, 1.0]]}, "k": [1.0, 1.0], "C": 0.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mapping": _AFFINE_R2, "spec": spec, "checks": [_AFFINE_CHECK]}))
    assert main(["run", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    spec["cone"] = {"orthant": 2}
    path.write_text(json.dumps({"mapping": _AFFINE_R2, "spec": spec, "checks": [_AFFINE_CHECK]}))
    assert main(["run", "--config", str(path)]) == 0
    assert out == capsys.readouterr().out
    assert out.startswith("[check-paraconvex] scaled-cone: PASS")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-200, 1e200])
def test_disagreeing_cone_forms_exit_two_at_any_scale(scale, tmp_path, capsys):
    # generators I and rows I plus (1, -0.02), written at one common scale
    cone = {
        "generators": [[scale, 0.0], [0.0, scale]],
        "dual_generators": [[scale, 0.0], [0.0, scale], [scale, -0.02 * scale]],
    }
    spec = {"modulus": {"kind": "zero"}, "cone": cone, "k": [1.0, 1.0], "C": 0.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mapping": _AFFINE_R2, "spec": spec, "checks": [_AFFINE_CHECK]}))
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: spec.cone: generator and inequality representations disagree" in captured.err


_SPEC = {"modulus": {"kind": "square"}, "cone": {"orthant": 1}, "k": [1.0], "C": 10.0}
_SEMICONVEX = {
    "family": "semiconvex_scalar",
    "params": {
        "initial_slope": -1.0,
        "kinks": [[0.0, 1.0]],
        "smooth": {"kind": "quadratic", "a": -0.5},
        "C": 0.5,
        "domain": {"lo": [-1.0], "hi": [1.0]},
    },
}


# the generator e_3 fails the last inequality by 0.3: no check may run on such a cone
_DISAGREEING_CONE = {"generators": np.eye(3).tolist(), "dual_generators": np.eye(3).tolist() + [[1.0, 1.0, -0.3]]}


def _set(obj: dict, where: str, value) -> dict:
    """A deep copy of obj with the dotted path where set to value."""
    out = copy.deepcopy(obj)
    *parents, last = where.split(".")
    node = out
    for key in parents:
        node = node[key]
    node[last] = value
    return out


_EXAMPLE1 = {"family": "example1", "params": {}}


@pytest.mark.parametrize(
    "edits, where",
    [
        ({"spec.cone.orthant": [1]}, "spec.cone.orthant"),
        ({"spec.cone.orthant": 1.7}, "spec.cone.orthant"),
        ({"spec.cone": {"random_simplicial": True, "dim": 2.5, "seed": 1}}, "spec.cone.dim"),
        ({"spec.cone": {"random_simplicial": True, "dim": 2, "seed": True}}, "spec.cone.seed"),
        ({"spec.modulus.scale": "2"}, "spec.modulus.scale"),
        ({"spec.modulus": {"kind": "power", "p": True}}, "spec.modulus.p"),
        ({"spec.modulus": {"kind": "table", "knots": [0.5, 0.25]}}, "spec.modulus.knots"),
        ({"spec.modulus": {"kind": "table", "knots": [[0.5, "x"]]}}, "spec.modulus.knots[0][1]"),
        ({"spec.modulus": {"kind": "table", "knots": [[0.5, True]]}}, "spec.modulus.knots[0][1]"),
        ({"spec.k": ["1.0"]}, "spec.k[0]"),
        ({"spec.k": [10**400]}, "spec.k[0]"),
        ({"spec.C": 10**400}, "spec.C"),
        ({"spec.cone": {"generators": [[1.0], [True]]}}, "spec.cone.generators[1][0]"),
        ({"spec.C": "10"}, "spec.C"),
        ({"spec.C1": True}, "spec.C1"),
        ({"spec.membership_tol": "1e-9"}, "spec.membership_tol"),
        ({"spec.membership_tol": 1e-9}, "spec.membership_tol"),
        ({"mapping": _SEMICONVEX, "mapping.params.initial_slope": "-1"}, "mapping.params.initial_slope"),
        ({"mapping": _SEMICONVEX, "mapping.params.kinks": [[0.0, 1.0, 2.0]]}, "mapping.params.kinks"),
        ({"mapping": _SEMICONVEX, "mapping.params.kinks": [0.0, 1.0]}, "mapping.params.kinks"),
        ({"mapping": _SEMICONVEX, "mapping.params.kinks": [[0.0, True]]}, "mapping.params.kinks[0][1]"),
        ({"mapping": _SEMICONVEX, "mapping.params.domain": {"lo": ["-1"], "hi": [1.0]}}, "mapping.params.domain.lo[0]"),
        ({"mapping": _SEMICONVEX, "mapping.params.C": None}, "mapping.params.C"),
        ({"mapping": _SEMICONVEX, "mapping.params.smooth.a": "-0.5"}, "mapping.params.smooth.a"),
        ({"mapping": _SEMICONVEX, "mapping.params.smooth": "quadratic"}, "mapping.params.smooth"),
        ({"mapping": _EXAMPLE1, "mapping.params.n": 3.0}, "mapping.params.n"),
        ({"mapping": _EXAMPLE1, "mapping.params.kinks_per_component": True}, "mapping.params.kinks_per_component"),
        ({"mapping": _EXAMPLE1, "mapping.params.C": "0.5"}, "mapping.params.C"),
        (
            {"mapping": {"family": "curved_cone", "params": {"cone": {"orthant": 2}, "seed": 1.5}}},
            "mapping.params.seed",
        ),
        ({"spekk": 1}, "spekk"),
        ({"mapping.paramz": {}}, "mapping.paramz"),
        ({"spec.zzz": 1}, "spec.zzz"),
        ({"spec.cone.orthnat": 1}, "spec.cone.orthnat"),
        ({"spec.cone": {"orthant": 1, "generators": [[1.0]]}}, "spec.cone.generators"),
        ({"spec.cone": {"random_simplicial": False, "dim": 2, "seed": 1}}, "spec.cone.random_simplicial"),
        ({"mapping": {"family": "smooth_r2_r3"}, "spec.k": [1.0] * 3, "spec.cone": _DISAGREEING_CONE}, "spec.cone"),
        ({"spec.modulus.scal": 2.0}, "spec.modulus.scal"),
        ({"spec.modulus": {"kind": "table", "knots": [[0.5, 0.25]], "scale": 2.0}}, "spec.modulus.scale"),
        ({"spec.modulus": {"scale": 2.0}}, "spec.modulus.kind"),
        ({"mapping": _SEMICONVEX, "mapping.params.smooth.aa": -0.5}, "mapping.params.smooth.aa"),
        ({"mapping": _SEMICONVEX, "mapping.params.smooth": {"kind": "cubic"}}, "mapping.params.smooth.kind"),
        ({"mapping": _SEMICONVEX, "mapping.params.domain.mid": [0.0]}, "mapping.params.domain.mid"),
        ({"mapping": _EXAMPLE1, "mapping.params.kinks": 5}, "mapping.params.kinks"),
        ({"mapping": {"family": "neg_abs", "params": {"C": 1.0}}}, "mapping.params.C"),
    ],
    ids=[
        "orthant-list",
        "orthant-fraction",
        "simplicial-dim-fraction",
        "simplicial-seed-bool",
        "scale-string",
        "power-p-bool",
        "knots-flat",
        "knots-string-entry",
        "knots-bool-entry",
        "k-string-entry",
        "k-huge-integer-entry",
        "C-huge-integer",
        "generators-bool-entry",
        "C-string",
        "C1-bool",
        "membership-tol-string",
        "membership-tol-unknown",
        "initial-slope-string",
        "kinks-triple",
        "kinks-flat",
        "kinks-bool-entry",
        "domain-string-entry",
        "semiconvex-C-null",
        "smooth-a-string",
        "smooth-not-object",
        "example1-n-float",
        "example1-kinks-bool",
        "example1-C-string",
        "curved-cone-seed-fraction",
        "top-level-typo",
        "mapping-params-typo",
        "spec-typo",
        "cone-typo",
        "cone-two-forms",
        "cone-simplicial-false",
        "cone-forms-disagree",
        "modulus-typo",
        "modulus-scale-on-table",
        "modulus-without-kind",
        "smooth-typo",
        "smooth-unknown-kind",
        "box-typo",
        "example1-typo",
        "plain-family-params",
    ],
)
def test_malformed_spec_and_mapping_fields_exit_two_with_a_path(edits, where, tmp_path, capsys):
    cfg = {"mapping": {"family": "neg_abs"}, "spec": _SPEC, "checks": TINY_CFG["checks"]}
    for at, value in edits.items():
        cfg = _set(cfg, at, value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no verdict line: a malformed input is never a FAIL
    assert f"input error: {where}: " in captured.err


@pytest.mark.parametrize("rows", [[[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.0]]], ids=["wider-wedge", "half-plane"])
def test_rows_wider_than_the_generators_exit_two(rows, tmp_path, capsys):
    # every given generator meets every given row here, so only the converse
    # inclusion (every ray of the rows inside the generators' cone) refuses
    # the cone; at a row-only reading it certified points outside the cone
    mapping = {
        "family": "affine",
        "params": {"matrix": [[1.0], [0.0]], "offset": [0.0, 0.0], "domain": {"lo": [-1.0], "hi": [1.0]}},
    }
    spec = {**_SPEC, "k": [1.0, 1.0], "cone": {"generators": np.eye(2).tolist(), "dual_generators": rows}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mapping": mapping, "spec": spec, "checks": TINY_CFG["checks"]}))
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: spec.cone: generator and inequality representations disagree" in captured.err


def test_roadmap_probe_exits_two_instead_of_certifying(tmp_path, capsys):
    # misspelled tol, mapping params and top-level key on a shipped config
    cfg = json.loads((CONFIG_DIR / "neg_square_certify.json").read_text())
    cfg["checks"][0]["tols"] = 1e-30
    cfg["mapping"]["paramz"] = {}
    cfg["spekk"] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(r"input error: (spekk|mapping\.paramz|checks\[0\]\.tols): unknown field", captured.err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "entry, where",
    [
        ({"op": "gateaux-scan", "seed": 1, "region": {"lo": [-0.5] * 3, "hi": [0.5] * 3}}, "checks[0].region"),
        ({"op": "gateaux-scan", "seed": 1, "points": [[0.1, 0.2], [0.1, 0.2, 0.3]]}, "checks[0].points[1]"),
        ({"op": "scalarize", "seed": 1, "functionals": [[1.0, 0.0]]}, "checks[0].functionals[0]"),
        ({"op": "fact2", "seed": 1, "y_star": [1.0, 1.0]}, "checks[0].y_star"),
        ({"op": "gateaux", "seed": 1, "x0": [0.1, -0.2, 0.0]}, "checks[0].x0"),
        ({"op": "trace", "x0": [0.1, -0.2], "h": [1.0]}, "checks[0].h"),
    ],
    ids=["region", "points", "functionals", "y-star", "x0", "h"],
)
def test_shape_checked_fields_name_their_field(entry, where, tmp_path, capsys):
    # smooth_r2_r3 maps R^2 to R^3: points and boxes need 2 coordinates, rows of functionals 3
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mapping": {"family": "smooth_r2_r3"}, "checks": [entry]}))
    assert main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    want = 3 if where.split(".")[1].startswith(("functionals", "y_star")) else 2
    assert f"input error: {where}: expected {want} coordinates" in captured.err


# a minimal valid entry of every op on neg_square
_MINIMAL = {
    "check-paraconvex": {"seed": 1, "budget": 16},
    "falsify": {"seed": 1, "budget": 16},
    "scalarize": {"seed": 1, "budget": 16},
    "fact2": {"seed": 1, "budget": 16},
    "approx-convex": {"seed": 1, "budget": 16, "x0": [0.0], "epsilon": 0.1, "delta": 0.3},
    "trace": {"x0": [0.25], "h": [1.0], "depth": 4, "csv": "t.csv"},
    "derivative": {"x0": [0.25], "h": [1.0]},
    "gateaux": {"seed": 1, "x0": [0.25], "n_directions": 2},
    "gateaux-scan": {"seed": 1, "n_points": 2, "n_directions": 2, "csv": "s.csv"},
    "frechet": {"seed": 1, "x0": [0.25], "n_directions": 2},
}

_SQUARE = {"modulus": {"kind": "square"}, "cone": {"orthant": 1}, "k": [1.0], "C": 10.0}

# a control of every op on which it must FAIL: (family, spec or None for the
# family's own claim, entry).  -|x| is not paraconvex under a square modulus;
# -x^2 claimed with C = 0 bends below its tangent, so its quotients fall and
# its derivative's upper bound is broken; |x| has no derivative at 0
_FAILING = {
    "check-paraconvex": ("neg_abs", _SQUARE, {"seed": 1, "budget": 64}),
    "falsify": ("neg_abs", _SQUARE, {"seed": 1, "budget": 64}),
    "scalarize": ("neg_abs", _SQUARE, {"seed": 1, "budget": 64}),
    "fact2": ("neg_abs", _SQUARE, {"seed": 1, "budget": 64}),
    "approx-convex": ("neg_abs", _SQUARE, {"seed": 1, "x0": [0.0], "epsilon": 0.1, "delta": 0.3}),
    "trace": ("neg_square", {**_SQUARE, "C": 0.0}, {"x0": [0.25], "h": [1.0], "depth": 8}),
    "derivative": ("neg_square", {**_SQUARE, "C": 0.0}, {"x0": [0.25], "h": [1.0]}),
    "gateaux": ("abs", None, {"seed": 1, "x0": [0.0]}),
    "gateaux-scan": ("abs", None, {"seed": 1, "points": [[0.0]]}),
    "frechet": ("abs", None, {"seed": 1, "x0": [0.0]}),
}


def test_every_op_has_a_failing_control():
    # an op that cannot FAIL certifies nothing
    assert _FAILING.keys() == OPERATIONS.keys()


@pytest.mark.parametrize("op", list(_FAILING))
def test_failing_control_exits_one(op, tmp_path, capsys):
    family, spec, entry = _FAILING[op]
    cfg = {"mapping": {"family": family}, "checks": [{"op": op, **entry}]}
    if spec is not None:
        cfg["spec"] = spec
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([op, "--config", str(path)]) == 1
    assert re.fullmatch(rf"\[{op}\] {op}-0: FAIL.*\n", capsys.readouterr().out)


@pytest.mark.parametrize("op", list(OPERATIONS))
def test_unknown_entry_field_exits_two_under_every_op(op, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    entry = {"op": op, **_MINIMAL[op]}
    path.write_text(json.dumps({"mapping": {"family": "neg_square"}, "checks": [entry]}))
    assert main(["run", "--config", str(path)]) in (0, 1)  # the entry itself is valid
    capsys.readouterr()
    path.write_text(json.dumps({"mapping": {"family": "neg_square"}, "checks": [{**entry, "zzz": 1}]}))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: checks[0].zzz: unknown field, expected one of op, label, " in captured.err
    assert not out_dir.exists()


def test_every_entry_is_read_before_any_runs(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    checks = [{"op": "trace", **_MINIMAL["trace"]}, {"op": "falsify", "seed": 1, "zzz": 1}]
    path.write_text(json.dumps({"mapping": {"family": "neg_square"}, "checks": checks}))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
    assert "input error: checks[1].zzz: unknown field" in capsys.readouterr().err
    assert not out_dir.exists()  # the trace entry wrote no csv


def test_an_entry_that_fails_at_run_time_leaves_no_output(monkeypatch, tmp_path, capsys):
    # the CSVs are written once every entry has run, through the module's
    # writers at that time, so a wrapper swapped in there still sees them
    written = []
    for name in ("write_trace_csv", "write_scan_csv"):
        writer = getattr(paracone.config, name)
        monkeypatch.setattr(paracone.config, name, lambda obj, path, w=writer: written.append(path.name) or w(obj, path))
    checks = [{"op": "trace", **_MINIMAL["trace"]}, {"op": "gateaux-scan", **_MINIMAL["gateaux-scan"]}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mapping": {"family": "neg_square"}, "checks": checks}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "good")]) == 0
    assert written == ["t.csv", "s.csv"]
    assert sorted(p.name for p in (tmp_path / "good").iterdir()) == ["manifest.json", "s.csv", "t.csv"]
    # x0 = 5 is outside neg_square's domain, which only running the entry finds
    checks.append({"op": "gateaux", "seed": 1, "x0": [5.0]})
    path.write_text(json.dumps({"mapping": {"family": "neg_square"}, "checks": checks}))
    capsys.readouterr()
    out_dir = tmp_path / "bad"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
    assert "input error: checks[2]: neg-square: test point outside the open domain" in capsys.readouterr().err
    assert not out_dir.exists()
    assert written == ["t.csv", "s.csv"]


def test_overrides_reach_only_ops_that_read_the_field():
    cfg = {
        "mapping": {"family": "neg_square"},
        "checks": [
            {"op": "trace", "x0": [0.25], "h": [1.0], "depth": 4},
            {"op": "fact2", "budget": 32},
            {"op": "check-paraconvex", "budget": 32},
        ],
    }
    overrides = {"seed": 5, "budget": 16, "tol": 1e-6, "form": "lambda"}
    reports = run_config(copy.deepcopy(cfg), overrides=overrides)["reports"]
    assert [r["pass"] for r in reports] == [True, True, True]
    assert reports[0]["report"]["monotone"]["tol"] == 1e-6  # trace reads tol, and nothing else of the flags
    assert (reports[1]["report"]["seed"], reports[1]["report"]["samples_used"]) == (5, 16)
    assert reports[2]["report"]["notes"] == "form=lambda"


@pytest.mark.parametrize("command", list(OPERATIONS))
def test_checks_that_is_not_a_list_exits_two_under_every_subcommand(command, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mapping": {"family": "neg_square"}, "checks": 5}))
    assert main([command, "--config", str(path)]) == 2
    assert "input error: checks: expected a non-empty list" in capsys.readouterr().err


def test_op_errors_name_their_entry(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(
        json.dumps(
            {
                "mapping": {"family": "neg_square"},
                "checks": [
                    {"op": "trace", "x0": [0.25], "h": [1.0], "depth": 4},
                    {"op": "derivative", "x0": [0.25], "h": [2.0]},
                ],
            }
        )
    )
    assert main(["run", "--config", str(p)]) == 2
    assert "input error: checks[1]: direction must be unit" in capsys.readouterr().err


_NEEDS_STRONG = ("derivative", "gateaux", "gateaux-scan", "frechet")


@pytest.mark.parametrize("op", list(OPERATIONS))
def test_weak_modulus_is_an_input_error_only_for_the_derivative_ops(op, tmp_path, capsys):
    # power p = 1 has modulus(t)/t = 1, outside the theorem but a valid paraconvexity claim
    spec = {"modulus": {"kind": "power", "p": 1.0}, "cone": {"orthant": 1}, "k": [1.0], "C": 1.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mapping": {"family": "neg_square"}, "spec": spec, "checks": [{"op": op, **_MINIMAL[op]}]}))
    code = main(["run", "--config", str(path)])
    captured = capsys.readouterr()
    if op in _NEEDS_STRONG:
        assert code == 2
        assert captured.out == ""
        assert "input error: checks[0]: " in captured.err
        assert "Modulus(kind='power', scale=1.0, p=1.0" in captured.err
    elif op == "fact2":  # its midpoint identity needs the square modulus, strong or not
        assert code == 2
        assert "input error: checks[0]: midpoint-convexity test needs the square-gap modulus" in captured.err
    else:
        assert code in (0, 1)
        assert re.fullmatch(rf"\[{op}\] {op}-0: (PASS|FAIL).*\n", captured.out)


@pytest.mark.parametrize("op", list(OPERATIONS))
def test_spec_cone_that_does_not_fit_the_codomain_exits_two(op, tmp_path, capsys):
    # neg_abs maps into R^1: a cone of R^2 would broadcast against its values,
    # so it is an input error, never a verdict
    spec = {**_SQUARE, "cone": {"orthant": 2}, "k": [1, 1]}
    path = tmp_path / "cfg.json"
    cfg = {"mapping": {"family": "neg_abs"}, "spec": spec, "checks": [{"op": op, **_MINIMAL[op]}]}
    path.write_text(json.dumps(cfg))
    assert main([op, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: spec.cone: dimension 2 does not match the mapping codomain 1" in captured.err


def test_internal_errors_are_not_input_errors(monkeypatch, tmp_path):
    # runners reach checks through the module global at call time, so the
    # stand-in runs; its TypeError is a bug, not an exit-2 input error
    def broken(*args, **kwargs):
        raise TypeError("internal bug")

    monkeypatch.setattr(paracone.config, "check_inequality", broken)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(TINY_CFG))
    with pytest.raises(TypeError, match="internal bug"):
        main(["run", "--config", str(p)])


def test_cli_subcommands_come_from_the_registry(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    listed = re.search(r"\{([a-z0-9,-]+,run)\}", capsys.readouterr().out).group(1).split(",")
    assert listed == [*OPERATIONS, "run"]


@pytest.mark.parametrize("command", [*OPERATIONS, "run"])
def test_cli_parses_every_command_and_refuses_bad_argv(command, monkeypatch, tmp_path):
    seen = []

    def capture(cfg, out_dir, overrides):
        seen.append(overrides)
        return {"reports": [], "exit_status": 0}

    monkeypatch.setattr(paracone.cli, "run_config", capture)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mapping": {"family": "neg_square"}, "checks": [{"op": op} for op in OPERATIONS]}))
    config = ["--config", str(path)]
    assert main([command, *config, "--seed", "3", "--budget", "7", "--tol", "1e-3", "--form", "lambda"]) == 0
    assert seen == [{"seed": 3, "budget": 7, "tol": 1e-3, "form": "lambda"}]
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    refused = [
        [*config],
        ["bounded", *config],
        [command],
        [command, *config, "--seed", "1.5"],
        [command, *config, "--budget", "x"],
        [command, *config, "--form", "max"],
    ]
    for argv in refused:
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2, argv


# ---------------------------------------------------------------------------
# README


README = (REPO_ROOT / "README.md").read_text()


@pytest.mark.parametrize("idx", range(len(re.findall(r"^```json$", README, flags=re.M))))
def test_readme_json_blocks_run(idx, tmp_path):
    block = re.findall(r"^```json\n(.*?)^```$", README, flags=re.M | re.S)[idx]
    cfg = json.loads(block)
    manifest = run_config(cfg, out_dir=tmp_path)
    assert len(manifest["reports"]) == len(cfg["checks"])
    assert (tmp_path / "manifest.json").exists()


def test_readme_operations_table_lists_the_registry():
    section = README.split("## Operations", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `([a-z0-9-]+)` +\|", section, flags=re.M) == list(OPERATIONS)
    # the per-op field table under Config format: | op | field | type | default |
    schema = README.split("## Config format", 1)[1].split("\n## ", 1)[0]
    listed, op = {}, None
    rows = re.findall(r"^\| (?:`([a-z0-9-]+)`)? *\| `(\w+)` +\|[^|]*\| (.*?) +\|$", schema, flags=re.M)
    for cell_op, field, default in rows:
        op = cell_op or op
        listed.setdefault(op, {})[field] = default
    assert {name: list(fields) for name, fields in listed.items()} == {
        name: list(operation.fields) for name, operation in OPERATIONS.items()
    }
    for name, operation in OPERATIONS.items():
        for field, (_, default, *_) in operation.fields.items():
            cell = listed[name][field]
            if isinstance(default, str) and not cell.startswith("`"):  # a required field
                assert cell == "required", (name, field)
            elif default is None:
                assert cell.startswith("none"), (name, field)
            else:
                value = json.loads(cell.strip("`"))
                assert value == (list(default) if isinstance(default, tuple) else default), (name, field)


def test_readme_verdict_table_names_every_op_once():
    section = README.split("## Exit codes and manifests", 1)[1].split("\n## ", 1)[0]
    first_cells = re.findall(r"^\| (`.*?) \|", section, flags=re.M)
    named = [op for cell in first_cells for op in re.findall(r"`([a-z0-9-]+)`", cell)]
    assert sorted(named) == sorted(OPERATIONS)


def test_cli_subprocess_help():
    proc = subprocess.run(
        [sys.executable, "-m", "paracone.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "certify or falsify" in proc.stdout


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # scipy is a test dependency only: the subprocess blocks it, so any scipy
    # import below fails.  The cli, every shipped config, and a cone given
    # only by generators, in R^2, R^3 or R^5, answer pointedness, membership
    # and the positive functional from their enumerated rows, and so do a
    # default fact2 y_star and the Frechet base
    runs = "".join(
        f"    main(['run', '--config', {str(path)!r}, '--out', {str(tmp_path / path.stem)!r}])\n"
        for path in sorted(CONFIG_DIR.glob("*.json"))
    )
    blocks = re.findall(r"^```json\n(.*?)^```$", README, flags=re.M | re.S)
    generator_block = next(b for b in blocks if '"generators"' in b)
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from paracone.cli import main\n"
        "from paracone import Box, check_inequality, check_vector_lipschitz, cone_from_generators, curved_cone_map\n"
        "from paracone import frechet_test, neg_square_1d, smooth_r2_r3\n"
        "from paracone.config import run_config\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + runs
        + f"assert run_config(json.loads({generator_block!r}))['exit_status'] == 0\n"
        "from paracone import strictly_positive_functional\n"
        "r5 = [[1, 0.5, 0, 0, 0], [1, 0, 0.5, 0, 0], [1, 0, 0, 0.5, 0], [1, 0, 0, 0, 0.5], [1, 0, 0, 0, 0], [1, 0.25, 0.25, 0.25, 0.25]]\n"
        "assert cone_from_generators(r5).pointed\n"
        "assert not cone_from_generators([[1.0, 0.0], [-1.0, 3e-9]]).pointed\n"
        "for rays in ([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]], r5):\n"
        "    h = curved_cone_map(cone_from_generators(rays), seed=3)\n"
        "    assert check_inequality(h, h.claimed, budget=200, seed=1).passed\n"
        "    assert min(h.claimed.cone.generators @ strictly_positive_functional(h.claimed.cone)) >= 1.0 - 1e-12\n"
        "    mapping = {'family': 'curved_cone', 'params': {'cone': {'generators': rays}, 'seed': 3}}\n"
        "    cfg = {'mapping': mapping, 'checks': [{'op': 'fact2', 'budget': 200, 'seed': 1}]}\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run_config(cfg)['exit_status'] == 0\n"
        "    assert frechet_test(h, h.claimed, [0.1, -0.2]).base_radius > 0.0\n"
        "f = smooth_r2_r3()\n"
        "assert frechet_test(f, f.claimed, [0.1, -0.2]).passed\n"
        "g = neg_square_1d()\n"
        "assert check_vector_lipschitz(g, g.claimed, Box(lo=[-0.5], hi=[0.5])).passed\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod is not None))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]
    assert len(list(tmp_path.glob("*/manifest.json"))) == 5
