"""Config loading, operation dispatch, manifests, and the CLI front end."""

import copy
import json
import re
import subprocess
import sys

import numpy as np
import pytest

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
    run_config,
    validate_operation,
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
    with pytest.raises(ConfigError, match=r"checks\[0\]\.op: unknown operation"):
        validate_operation({"op": "probe"}, "checks[0]")
    with pytest.raises(ConfigError, match=r"checks\[0\]\.seed: explicit seed required"):
        validate_operation({"op": "falsify"}, "checks[0]")
    with pytest.raises(ConfigError, match=r"seed: expected an integer"):
        validate_operation({"op": "falsify", "seed": 1.5}, "checks[0]")
    assert validate_operation({"op": "trace"}, "checks[0]") == "trace"


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
        ({"op": "derivative", "x0": [0.25], "h": [1.0], "upper_tol": NAN}, [], "checks[0].upper_tol"),
        ({"op": "falsify", "seed": True}, [], "checks[0].seed"),
        ({"op": "check-paraconvex", "seed": 1, "budget": True}, [], "checks[0].budget"),
        ({"op": "check-paraconvex", "seed": 1, "budget": 64.5}, [], "checks[0].budget"),
        ({"op": "check-paraconvex", "seed": 1, "budget": "64"}, [], "checks[0].budget"),
        (None, ["--tol", "nan"], "checks[0].tol"),
    ],
    ids=["tol-nan", "tol-inf", "upper-tol-nan", "seed-bool", "budget-bool", "budget-fraction", "budget-string", "flag-tol-nan"],
)
def test_malformed_shared_fields_exit_two_with_a_path(entry, flags, where, tmp_path, capsys):
    if entry is None:  # the shipped config, broken by a command-line override
        path = CONFIG_DIR / "neg_square_certify.json"
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mapping": {"family": "neg_square"}, "checks": [entry]}))
    code = main(["run", "--config", str(path)] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # no verdict line: a malformed input is never a FAIL
    assert f"input error: {where}: " in captured.err


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
        ({"spec.modulus": {"kind": "table", "knots": [[0.5, "x"]]}}, "spec.modulus.knots"),
        ({"spec.C": "10"}, "spec.C"),
        ({"spec.C1": True}, "spec.C1"),
        ({"spec.membership_tol": "1e-9"}, "spec.membership_tol"),
        ({"mapping": _SEMICONVEX, "mapping.params.initial_slope": "-1"}, "mapping.params.initial_slope"),
        ({"mapping": _SEMICONVEX, "mapping.params.kinks": [[0.0, 1.0, 2.0]]}, "mapping.params.kinks"),
        ({"mapping": _SEMICONVEX, "mapping.params.kinks": [0.0, 1.0]}, "mapping.params.kinks"),
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
        "C-string",
        "C1-bool",
        "membership-tol-string",
        "initial-slope-string",
        "kinks-triple",
        "kinks-flat",
        "semiconvex-C-null",
        "smooth-a-string",
        "smooth-not-object",
        "example1-n-float",
        "example1-kinks-bool",
        "example1-C-string",
        "curved-cone-seed-fraction",
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
    listed = re.search(r"\{([a-z0-9,-]+)\}", capsys.readouterr().out).group(1).split(",")
    assert listed == [*OPERATIONS, "run"]


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


def test_cli_subprocess_help():
    proc = subprocess.run(
        [sys.executable, "-m", "paracone.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "certify or falsify" in proc.stdout
