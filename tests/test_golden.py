"""Golden manifests and verdict lines: every shipped config must keep its
recorded results.

tests/golden/<config>.json holds the manifest each shipped config wrote at
its own seeds, minus the wall-clock field; tests/golden/<config>.stdout holds
what `paracone run --config configs/<config>.json` printed (no --out), and
is compared line for line, exactly.  Criterion 10 only compares two
runs of the same code; this compares against the recorded results, so a
change that moves a verdict or a margin fails here.  An intended change
regenerates the files and says why in CHANGES.md.

Verdicts, exit status, sample counts, labels and every other non-float
field must match exactly.  Floats (margins, witness coordinates, bounds)
must match to a relative 1e-12, so a last-bit BLAS difference on another
machine does not fail the test; the absolute floor of 1e-15 covers margins
that are themselves rounding noise (the affine family's exact equality
shows up as margins near -2e-16).
"""

import copy
import json
import math

import pytest

from paracone.cli import main
from paracone.config import load_config, run_config

from conftest import CONFIG_DIR, REPO_ROOT

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
REL_TOL = 1e-12
ABS_TOL = 1e-15


def _mismatches(got, want, path="manifest"):
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            yield f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            yield f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in sorted(set(got) & set(want)):
            yield from _mismatches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            yield f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _mismatches(g, w, f"{path}[{i}]")
    elif type(got) is not type(want) or got != want:
        yield f"{path}: {got!r} != {want!r}"


def test_every_shipped_config_has_a_golden_manifest():
    configs = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))
    assert configs and configs == sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))
    assert configs == sorted(p.stem for p in GOLDEN_DIR.glob("*.stdout"))


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_config_matches_golden_manifest(name, tmp_path):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    manifest = run_config(copy.deepcopy(load_config(CONFIG_DIR / f"{name}.json")), out_dir=tmp_path)
    got = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["exit_status"] == got["exit_status"]
    got.pop("wall_clock_s")
    bad = list(_mismatches(got, want))
    assert not bad, "\n".join(bad[:20])


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_config_matches_golden_stdout(name, capsys):
    want = (GOLDEN_DIR / f"{name}.stdout").read_text().splitlines()
    code = main(["run", "--config", str(CONFIG_DIR / f"{name}.json")])
    assert capsys.readouterr().out.splitlines() == want
    assert code == json.loads((GOLDEN_DIR / f"{name}.json").read_text())["exit_status"]


def test_golden_comparison_catches_moved_fields():
    want = {"pass": True, "samples_used": 10, "worst_margin": -1.0e-3, "witness": {"x": [0.25]}}
    assert not list(_mismatches(copy.deepcopy(want), want))
    assert not list(_mismatches({**want, "worst_margin": -1.0e-3 * (1 + 1e-14)}, want))
    assert list(_mismatches({**want, "pass": False}, want))
    assert list(_mismatches({**want, "samples_used": 11}, want))
    assert list(_mismatches({**want, "worst_margin": -1.0e-3 * (1 + 1e-9)}, want))
    assert list(_mismatches({**want, "witness": {"x": [0.25 + 1e-9]}}, want))
