"""Acceptance sweep.

Each test records exactly one verdict line of the form

    [acceptance] criterion NN PASS|FAIL: <what it certifies>

before asserting; conftest prints the scoreboard in the terminal summary,
where capture cannot swallow it, so the tee'd pytest log always carries
every verdict.
"""

import copy
import dataclasses
import math
from time import perf_counter

import numpy as np

from paracone import (
    ParaSpec,
    abs_1d,
    base_radius,
    check_alpha_monotone,
    check_inequality,
    check_upper_bound,
    build_trace,
    cone_from_generators,
    directional_derivative,
    dual_cone,
    example1_default,
    falsify,
    frechet_test,
    gateaux_scan,
    leq,
    neg_abs_1d,
    neg_square_1d,
    normality_constant,
    orthant,
    random_simplicial_cone,
    sample_triples,
    scalarize_check,
    smooth_r2_r3,
    square_modulus,
    strictly_positive_functional,
    curved_cone_map,
)
from paracone.config import load_config, run_config
from paracone.geometry import contains, ensure_generators, norm, sample_in_cone, unit_dual_generators
from paracone.mappings import known_directional

from conftest import ACCEPTANCE_VERDICTS, CONFIG_DIR, interior_pairs


def _verdict(num: int, ok: bool, desc: str) -> None:
    line = f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    ACCEPTANCE_VERDICTS.append(line)


def test_criterion_01_scalarization_route_agreement(families):
    ok = False
    try:
        start = perf_counter()
        agree = True
        for i in range(20):
            cone = random_simplicial_cone(3 + (i % 3), seed=100 + i)
            f = curved_cone_map(cone, seed=200 + i)
            triples = sample_triples(f.domain, 1000, seed=300 + i)
            direct = check_inequality(f, f.claimed, form="min", triples=triples)
            rows = list(unit_dual_generators(cone))
            scal = scalarize_check(f, f.claimed, rows, form="min", triples=triples)
            agree = agree and (direct.passed == scal.passed)
        worst_gap = 0.0
        for j, f in enumerate(families):
            triples = sample_triples(f.domain, 1000, seed=400 + j)
            direct = check_inequality(f, f.claimed, form="min", triples=triples)
            rows = list(unit_dual_generators(f.claimed.cone))
            scal = scalarize_check(f, f.claimed, rows, form="min", triples=triples)
            agree = agree and (direct.passed == scal.passed)
            worst_gap = max(worst_gap, abs(direct.worst_margin - scal.worst_margin))
        elapsed = perf_counter() - start
        ok = agree and worst_gap <= 1e-12 and elapsed < 30.0
    finally:
        _verdict(1, ok, "direct and scalarized checks agree over 20 random cones and the orthant testbed")
    assert agree
    assert worst_gap <= 1e-12
    assert elapsed < 30.0


def test_criterion_02_exact_constant_certification():
    ok = False
    try:
        start = perf_counter()
        f = neg_square_1d()
        min_rep = check_inequality(f, f.claimed, form="min", budget=10_000, seed=2, tol=1e-12)
        lam_rep = check_inequality(f, f.claimed, form="lambda", budget=10_000, seed=2, tol=1e-12)
        bad = dataclasses.replace(f.claimed, C1=0.99)
        hunt = falsify(f, bad, form="lambda", budget=10_000, seed=2, tol=1e-12)
        replay = check_inequality(f, bad, form="lambda", triples=[hunt.witness], tol=1e-12)
        elapsed = perf_counter() - start
        ok = (
            min_rep.passed
            and lam_rep.passed
            and not hunt.passed
            and not replay.passed
            and replay.worst_margin == hunt.worst_margin
            and elapsed < 5.0
        )
    finally:
        _verdict(2, ok, "tight allowance constant certified; undersized constant refuted with a replayable witness")
    assert min_rep.passed and lam_rep.passed
    assert not hunt.passed
    assert not replay.passed and replay.worst_margin == hunt.worst_margin
    assert elapsed < 5.0


def test_criterion_03_small_gap_refutation():
    ok = False
    try:
        start = perf_counter()
        f = neg_abs_1d()
        spec = ParaSpec(modulus=square_modulus(), k=np.array([1.0]), cone=orthant(1), C=10.0)
        rep = falsify(f, spec, form="min", budget=1000, seed=3)
        gap = abs(rep.witness.x[0] - rep.witness.y[0])
        elapsed = perf_counter() - start
        ok = (not rep.passed) and gap < 0.1 and "structured" in rep.notes and elapsed < 1.0
    finally:
        _verdict(3, ok, "dyadic small-gap schedule refutes the kinked concave family")
    assert not rep.passed
    assert gap < 0.1
    assert "structured" in rep.notes
    assert elapsed < 1.0


def test_criterion_04_quotient_monotonicity(families):
    ok = False
    try:
        start = perf_counter()
        all_passed = True
        for idx, f in enumerate(families):
            for x0, h in interior_pairs(f, 100, seed=40 + idx):
                tr = build_trace(f, f.claimed, x0, h, depth=40)
                rep = check_alpha_monotone(tr, tol=1e-9)
                all_passed = all_passed and rep.passed
        elapsed = perf_counter() - start
        ok = all_passed and elapsed < 60.0
    finally:
        _verdict(4, ok, "corrected quotients are monotone on every sampled trace of every family")
    assert all_passed
    assert elapsed < 60.0


def test_criterion_05_estimator_against_analytic_slopes(families):
    ok = False
    try:
        start = perf_counter()
        within_bound = True
        for idx, f in enumerate(families):
            rows = unit_dual_generators(f.claimed.cone)
            for x0, h in interior_pairs(f, 100, seed=50 + idx):
                est = directional_derivative(f, f.claimed, x0, h, tol=1e-6)
                oracle = known_directional(f, x0, h)
                dev = float(np.max(np.abs(rows @ (est.value - oracle))))
                within_bound = within_bound and est.converged and dev <= est.error_bound
        kink = directional_derivative(abs_1d(), abs_1d().claimed, [0.0], [1.0], tol=1e-9)
        kink_exact = abs(kink.value[0] - 1.0) <= 1e-9
        schedule_ok = True
        for idx, f in enumerate(families):
            x0, h = interior_pairs(f, 1, seed=55 + idx)[0]
            a = directional_derivative(f, f.claimed, x0, h, tol=1e-6, ratio=0.5)
            b = directional_derivative(f, f.claimed, x0, h, tol=1e-6, ratio=1.0 / 3.0)
            schedule_ok = schedule_ok and float(np.max(np.abs(a.value - b.value))) <= 2e-6
        elapsed = perf_counter() - start
        ok = within_bound and kink_exact and schedule_ok and elapsed < 60.0
    finally:
        _verdict(5, ok, "estimator matches analytic slopes within its reported bound, schedules agree")
    assert within_bound
    assert kink_exact
    assert schedule_ok
    assert elapsed < 60.0


def test_criterion_06_kink_detection_density():
    ok = False
    try:
        start = perf_counter()
        f = example1_default()
        region = f.domain.shrink(0.02)
        uniform = gateaux_scan(f, f.claimed, region, n_points=500, n_directions=4, tol=1e-6, seed=6)
        kinks = sorted(f.kink_locus)
        grid = list(kinks)
        grid += [(a + b) / 2.0 for a, b in zip(kinks, kinks[1:])]
        grid += [kinks[0] - 0.05, kinks[-1] + 0.05]
        probe = gateaux_scan(
            f, f.claimed, region, points=[[x] for x in grid], n_directions=4, tol=1e-6, seed=61
        )
        conf = probe.confusion
        elapsed = perf_counter() - start
        ok = (
            uniform.density == 1.0
            and conf == {"tp": len(kinks), "fp": 0, "fn": 0, "tn": len(grid) - len(kinks)}
            and elapsed < 120.0
        )
    finally:
        _verdict(6, ok, "sampled linearity density is one and grid failures land exactly on declared kinks")
    assert uniform.density == 1.0
    assert conf == {"tp": len(kinks), "fp": 0, "fn": 0, "tn": len(grid) - len(kinks)}
    assert elapsed < 120.0


def test_criterion_07_upper_bound_sweep(families):
    ok = False
    try:
        all_passed = True
        for idx, f in enumerate(families):
            for x0, h in interior_pairs(f, 100, seed=70 + idx):
                est = directional_derivative(f, f.claimed, x0, h, tol=1e-6)
                if not est.converged:
                    all_passed = False
                    continue
                rep = check_upper_bound(f, f.claimed, x0, h, est, tol=1e-9)
                all_passed = all_passed and rep.passed
        ok = all_passed
    finally:
        _verdict(7, ok, "estimated derivative stays below every corrected quotient, all families")
    assert all_passed


def test_criterion_08_uniform_residual_decomposition():
    ok = False
    try:
        start = perf_counter()
        f = smooth_r2_r3()
        rep = frechet_test(
            f, f.claimed, [0.1, -0.2], epsilons=(1e-2, 1e-3), n_directions=16, tol=1e-6, seed=8
        )
        deltas = [row["delta"] for row in rep.table]
        finite = all(d is not None and math.isfinite(d) and d > 0.0 for d in deltas)
        elapsed = perf_counter() - start
        ok = (
            rep.passed
            and len(deltas) == 2
            and finite
            and rep.residual_margin >= -1e-6
            and rep.max_base_norm <= 1.0 + 1e-9
            and elapsed < 30.0
        )
    finally:
        _verdict(8, ok, "smooth plane-to-space family gets finite admissible radii with cone residuals on base")
    assert rep.passed
    assert len(deltas) == 2 and finite
    assert rep.residual_margin >= -1e-6
    assert rep.max_base_norm <= 1.0 + 1e-9
    assert elapsed < 30.0


def test_criterion_09_cone_kernel():
    ok = False
    try:
        start = perf_counter()
        cones = [
            orthant(2),
            orthant(3),
            cone_from_generators([[1.0, 0.0], [1.0, 1.0]], name="wedge"),
            random_simplicial_cone(3, seed=91),
            random_simplicial_cone(4, seed=92),
        ]
        bipolar_ok = True
        axioms_ok = True
        for idx, cone in enumerate(cones):
            bp = dual_cone(dual_cone(cone))
            for g in ensure_generators(cone):
                bipolar_ok = bipolar_ok and contains(bp, g, tol=1e-9)
            for g in ensure_generators(bp):
                bipolar_ok = bipolar_ok and contains(cone, g, tol=1e-9)
            rng = np.random.default_rng(900 + idx)
            x = rng.normal(size=cone.dim)
            a, b = sample_in_cone(cone, 2, seed=910 + idx)
            axioms_ok = axioms_ok and leq(cone, x, x)
            axioms_ok = axioms_ok and leq(cone, x, x + a) and leq(cone, x + a, x + a + b)
            axioms_ok = axioms_ok and leq(cone, x, x + a + b)
            for g in ensure_generators(cone):
                u = g / norm(g, "two")
                # antisymmetry on pointed cones: no nonzero direction and its
                # negation are both members
                axioms_ok = axioms_ok and not contains(cone, -u, tol=1e-9)
        normality_ok = True
        for n in (2, 3, 4):
            for kind in ("one", "two", "sup"):
                gamma = normality_constant(orthant(n), norm_kind=kind, budget=400, seed=93)
                normality_ok = normality_ok and abs(gamma - 1.0) <= 1e-12
        base_ok = True
        for n in (2, 3):
            radius = base_radius(orthant(n), strictly_positive_functional(orthant(n)), norm_kind="one")
            base_ok = base_ok and abs(radius - 1.0) <= 1e-12
        elapsed = perf_counter() - start
        ok = bipolar_ok and axioms_ok and normality_ok and base_ok and elapsed < 10.0
    finally:
        _verdict(9, ok, "bipolar identity, order axioms, orthant normality one, unit simplex base radius")
    assert bipolar_ok
    assert axioms_ok
    assert normality_ok
    assert base_ok
    assert elapsed < 10.0


def test_criterion_10_reproducible_manifests(tmp_path):
    ok = False
    try:
        configs = sorted(CONFIG_DIR.glob("*.json"))
        assert configs, "no shipped configs found"
        identical = True
        for idx, cfg_path in enumerate(configs):
            cfg = load_config(cfg_path)
            dir_a = tmp_path / f"{idx}_a"
            dir_b = tmp_path / f"{idx}_b"
            run_config(copy.deepcopy(cfg), out_dir=dir_a)
            run_config(copy.deepcopy(cfg), out_dir=dir_b)
            # byte comparison of everything except the wall-clock line
            lines_a = [l for l in (dir_a / "manifest.json").read_text().splitlines() if "wall_clock_s" not in l]
            lines_b = [l for l in (dir_b / "manifest.json").read_text().splitlines() if "wall_clock_s" not in l]
            identical = identical and lines_a == lines_b
            # and the CSV side outputs, byte for byte
            for csv_a in sorted(dir_a.glob("*.csv")):
                csv_b = dir_b / csv_a.name
                identical = identical and csv_b.exists() and csv_a.read_bytes() == csv_b.read_bytes()
        ok = identical
    finally:
        _verdict(10, ok, "every shipped config reproduces a byte-identical manifest modulo wall clock")
    assert identical
