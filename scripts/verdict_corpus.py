#!/usr/bin/env python3
"""Build the verdict corpus: every shipped config through the CLI, and the
testbed families through the library, at fixed seeds.

The config part runs `paracone run` in process (paracone.cli.main) on each
shipped config with no flags, with --seed 0 to 9, with four 31-bit seeds
(the per-sweep seeds the benchmark's configs workload draws for sweeps 0 and
1 at bench seeds 0 and 1), and with --seed 5 --budget 64 --tol 1e-6, and
keeps each run's exit code, its stderr and its manifest reports.  The library part runs every testbed family at its
claimed spec through check_inequality in both forms, falsify, and
gateaux_scan on the domain shrunk by 0.04, at seeds 0 to 4, and keeps each
report's JSON form.  On the two plane families (affine-2to3, smooth-r2-r3)
it also runs, at a seeded point of that shrunk domain and seeds 0 to 4,
gateaux_test along three seeded normal directions and one of length 4, and
check_sublinear at its default pairs; and frechet_test on smooth-r2-r3.

With --out PATH the corpus is written there as JSON; tests/golden/verdicts.json
is this file, and tests/test_golden.py compares a fresh build against it.
Without --out it prints how many runs and verdicts the corpus holds.
"""

import argparse
import contextlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from paracone import (
    check_inequality,
    check_sublinear,
    falsify,
    frechet_test,
    gateaux_scan,
    gateaux_test,
    testbed_families,
)
from paracone.cli import main as cli_main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
WIDE_SEEDS = (967688993, 1421543173, 1295943086, 1301153365)
FLAG_SETS = (
    [[]]
    + [["--seed", str(s)] for s in (*range(10), *WIDE_SEEDS)]
    + [["--seed", "5", "--budget", "64", "--tol", "1e-6"]]
)
LIBRARY_SEEDS = range(5)
SCAN_POINTS = 20
PLANE_FAMILIES = ("affine-2to3", "smooth-r2-r3")


def config_runs() -> list:
    runs = []
    for config in sorted(CONFIG_DIR.glob("*.json")):
        for flags in FLAG_SETS:
            with tempfile.TemporaryDirectory() as out:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli_main(["run", "--config", str(config), "--out", out, *flags])
                manifest = Path(out) / "manifest.json"
                reports = json.loads(manifest.read_text())["reports"] if manifest.exists() else None
            run = {"config": config.stem, "flags": flags, "exit": code, "stderr": err.getvalue(), "reports": reports}
            runs.append(run)
    return runs


def _point_and_directions(f, seed: int) -> tuple:
    """A seeded point of the domain shrunk by 0.04, three seeded normal
    directions, and 4 times the first axis."""
    rng = np.random.default_rng(seed)
    x0 = f.domain.shrink(0.04).sample(1, rng)[0]
    return x0, [*rng.normal(size=(3, f.domain.dim)), 4.0 * np.eye(f.domain.dim)[0]]


def library_results() -> list:
    results = []
    for f in testbed_families():
        spec = f.claimed
        ops = {
            "check_inequality/min": lambda seed: check_inequality(f, spec, form="min", seed=seed),
            "check_inequality/lambda": lambda seed: check_inequality(f, spec, form="lambda", seed=seed),
            "falsify": lambda seed: falsify(f, spec, seed=seed),
            "gateaux_scan": lambda seed: gateaux_scan(f, spec, f.domain.shrink(0.04), n_points=SCAN_POINTS, seed=seed),
        }
        if f.label in PLANE_FAMILIES:
            ops["gateaux_test"] = lambda seed: gateaux_test(f, spec, *_point_and_directions(f, seed), seed=seed)
            ops["check_sublinear"] = lambda seed: check_sublinear(f, spec, _point_and_directions(f, seed)[0], seed=seed)
        if f.label == "smooth-r2-r3":
            ops["frechet_test"] = lambda seed: frechet_test(f, spec, _point_and_directions(f, seed)[0], seed=seed)
        for op, run in ops.items():
            for seed in LIBRARY_SEEDS:
                results.append({"family": f.label, "op": op, "seed": seed, "report": run(seed).to_dict()})
    return results


def build() -> dict:
    return {"configs": config_runs(), "library": library_results()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="path of the corpus JSON to write")
    args = ap.parse_args(argv)

    corpus = build()
    if args.out:
        Path(args.out).write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    runs = corpus["configs"]
    codes = Counter(run["exit"] for run in runs)
    entries = Counter(entry["pass"] for run in runs for entry in run["reports"] or [])
    print(f"configs: {len(runs)} runs, exit codes {dict(sorted(codes.items()))}, "
          f"{entries[True]} entries PASS, {entries[False]} FAIL")
    for op in sorted({res["op"] for res in corpus["library"]}):
        reports = [res["report"] for res in corpus["library"] if res["op"] == op]
        if op == "gateaux_scan":
            points = [ok for rep in reports for ok in rep["pass"]]
            print(f"{op}: {len(reports)} scans, {sum(points)} of {len(points)} points pass")
        else:
            print(f"{op}: {len(reports)} reports, {sum(rep['pass'] for rep in reports)} PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
