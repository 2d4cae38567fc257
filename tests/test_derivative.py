"""Difference-quotient traces, directional derivative estimation, and the
Gateaux/Frechet batteries."""

import dataclasses
import json
import math

import numpy as np
import pytest
from conftest import CONFIG_DIR, interior_pairs

from paracone import (
    ConvergenceError,
    DerivativeEstimate,
    ParaSpec,
    abs_1d,
    affine_mapping,
    build_trace,
    check_alpha_monotone,
    check_sublinear,
    check_upper_bound,
    cone_from_generators,
    curved_cone_map,
    directional_derivative,
    example1_default,
    frechet_test,
    gateaux_scan,
    gateaux_test,
    neg_abs_1d,
    neg_square_1d,
    orthant,
    smooth_r2_r3,
    square_modulus,
    zero_modulus,
)
from paracone.checks import _magnitude_scale
import paracone.checks
import paracone.derivative
import paracone.geometry
from paracone.derivative import GateauxReport, _default_t0, _geomspace, _prep_direction
from paracone.geometry import Box, norm, random_simplicial_cone, unit_dual_generators
from paracone.mappings import OutsideDomainError, VectorMapping, known_directional
from paracone.modulus import eval_modulus


# ---------------------------------------------------------------------------
# traces


def test_trace_requires_unit_direction():
    f = neg_square_1d()
    with pytest.raises(ValueError):
        build_trace(f, f.claimed, [0.0], [2.0], t0=0.1, depth=5)


def test_trace_normalizes_near_unit_direction():
    f = neg_square_1d()
    tr = build_trace(f, f.claimed, [0.0], [1.0 + 1e-10], t0=0.1, depth=5)
    assert abs(np.linalg.norm(tr.h) - 1.0) < 1e-15


def test_trace_rejects_bad_schedules():
    f = neg_square_1d()
    with pytest.raises(ValueError):
        build_trace(f, f.claimed, [0.5], [1.0], t0=0.6, depth=5)  # leaves the box
    with pytest.raises(ValueError):
        build_trace(f, f.claimed, [0.0], [1.0], t0=0.1, depth=1)
    with pytest.raises(ValueError):
        build_trace(f, f.claimed, [0.0], [1.0], t0=0.1, depth=5, ratio=1.0)
    # a NaN step is outside the admissible range, not a point outside the box
    with pytest.raises(ValueError, match="t0=nan leaves the domain"):
        build_trace(f, f.claimed, [0.0], [1.0], t0=float("nan"), depth=5)
    with pytest.raises(ValueError, match="t0=nan leaves the domain"):
        directional_derivative(f, f.claimed, [0.0], [1.0], t0=float("nan"))
    est = directional_derivative(f, f.claimed, [0.0], [1.0])
    for t_samples in ([0.01, float("nan")], [float("nan"), 0.02, 0.01]):
        with pytest.raises(ValueError, match="admissible range"):
            check_upper_bound(f, f.claimed, [0.0], [1.0], est, t_samples=t_samples)


def test_trace_quotients_match_closed_form():
    # f(x) = -x^2 from 0 along +1: quotient at t is -t, and the square-gap
    # correction C*t removes the curvature term entirely
    f = neg_square_1d()
    tr = build_trace(f, f.claimed, [0.0], [1.0], t0=0.25, depth=10)
    for t, raw, corr in zip(tr.t_grid, tr.raw[:, 0], tr.corrected[:, 0]):
        assert raw == pytest.approx(-t, abs=1e-15)
        assert abs(corr) <= 1e-15
    # steps decrease geometrically
    assert np.all(np.diff(tr.t_grid) < 0)


# ---------------------------------------------------------------------------
# monotonicity of corrected quotients


def test_alpha_monotone_spot_families(families):
    for f in families:
        h = np.zeros(f.domain.dim)
        h[0] = 1.0
        tr = build_trace(f, f.claimed, [0.0] * f.domain.dim, h, depth=30)
        rep = check_alpha_monotone(tr, tol=1e-9)
        assert rep.passed, f.label


def test_alpha_monotone_rejects_wrong_modulus_scale():
    # -|x| straddling its kink: no finite square-gap allowance makes the
    # corrected quotients monotone across the slope jump
    f = neg_abs_1d()
    lie = ParaSpec(modulus=square_modulus(), k=np.array([1.0]), cone=orthant(1), C=1.0)
    tr = build_trace(f, lie, [-0.05], [1.0], depth=20)
    rep = check_alpha_monotone(tr, tol=1e-9)
    assert not rep.passed
    assert rep.worst_margin < -0.4
    t_coarse, t_fine = rep.witness
    assert t_coarse > t_fine
    # started exactly at the kink the slope is stable and nothing can fail
    tr0 = build_trace(f, lie, [0.0], [1.0], depth=20)
    assert check_alpha_monotone(tr0, tol=1e-9).passed


# the plain two-norm of a quotient still warns of the overflow it met
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e150, 1e160, 1e200])
def test_a_huge_valued_concave_trace_still_fails(scale):
    # -s*x^2 from 0 under C = 1: its quotients fall by s - 1 per unit step.  The
    # margin scale once took np.linalg.norm of the quotients, which overflowed
    # to inf above about 1.34e154 and read every pair as a PASS at -0.0
    f = dataclasses.replace(neg_square_1d(), evaluator=lambda x: -scale * np.float_power(x, 2.0))
    spec = ParaSpec(modulus=square_modulus(), k=[1.0], cone=orthant(1), C=1.0, C1=1.0)
    rep = check_alpha_monotone(build_trace(f, spec, [0.0], [1.0], t0=0.5, depth=10))
    assert not rep.passed and rep.worst_margin < -0.99
    assert rep.witness == (0.5, 0.0009765625)


# ---------------------------------------------------------------------------
# directional derivative estimation


def test_estimator_abs_at_kink():
    f = abs_1d()
    est = directional_derivative(f, f.claimed, [0.0], [1.0], tol=1e-9)
    assert est.converged
    assert est.value[0] == 1.0  # quotient is exactly 1 at every step
    assert est.error_bound <= 1e-9


def test_estimator_affine_is_exact():
    f = affine_mapping(
        np.array([[2.0, -1.0], [0.0, 3.0]]),
        np.array([0.5, -0.5]),
        Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]),
    )
    h = np.array([0.6, 0.8])
    est = directional_derivative(f, f.claimed, [0.1, 0.1], h, tol=1e-9)
    oracle = known_directional(f, np.array([0.1, 0.1]), h)
    assert est.converged
    np.testing.assert_allclose(est.value, oracle, atol=1e-12)


def test_estimator_error_bound_is_honest():
    f = neg_square_1d()
    est = directional_derivative(f, f.claimed, [0.3], [1.0], tol=1e-6)
    assert est.converged
    assert abs(est.value[0] - (-0.6)) <= est.error_bound


def test_estimator_schedule_independence():
    f = neg_square_1d()
    tol = 1e-6
    a = directional_derivative(f, f.claimed, [0.3], [1.0], tol=tol, ratio=0.5)
    b = directional_derivative(f, f.claimed, [0.3], [1.0], tol=tol, ratio=1.0 / 3.0)
    assert a.converged and b.converged
    assert abs(a.value[0] - b.value[0]) <= 2.0 * tol


def _reference_estimate(f, spec, x0, h, tol, ratio, max_depth):
    """The level-by-level walk the one-batch estimator replaced, kept as the
    oracle: one evaluation per level, stopping at the first small bracket."""
    x0, h = _prep_direction(f, x0, h)
    t0 = _default_t0(f.domain.boundary_distance(x0, h))
    rows = unit_dual_generators(spec.cone)
    top_row_k = float(np.max(rows @ spec.k, initial=0.0))
    c_min = spec.min_constant()
    f0 = f.eval(x0)
    f0n = norm(f0, "two")
    prev_raw = None
    prev_noise = 0.0
    prev_t = 0.0
    best_bound = np.inf
    best = None
    x0n = norm(x0, "two")
    for j in range(max_depth):
        t = t0 * ratio**j
        ft = f.eval(x0 + t * h)
        raw = (ft - f0) / t
        noise = _magnitude_scale(float(np.linalg.norm(ft)), f0n, step=t)
        if prev_raw is not None:
            decrement = float(np.max(np.abs(rows @ (prev_raw - raw)))) if rows.size else 0.0
            corr = c_min * eval_modulus(spec.modulus, prev_t) / prev_t
            bound = decrement + corr * top_row_k + prev_noise + noise
            if bound < best_bound:
                best_bound = bound
                best = (raw, t, j + 1)
            if bound < tol:
                return DerivativeEstimate(raw, float(bound), float(t), j + 1, True, bool(t < 1e-8 * x0n))
        prev_raw, prev_noise, prev_t = raw, noise, t
    value, t_used, iters = best if best is not None else (prev_raw, prev_t, max_depth)
    return DerivativeEstimate(value, float(best_bound), float(t_used), iters, False, bool(t_used < 1e-8 * x0n))


def test_batched_estimator_reproduces_level_walk(families):
    rng = np.random.default_rng(17)
    outcomes = set()
    for f in families:
        inner = f.domain.shrink(0.05)
        for x0 in [inner.center] + list(inner.sample(3, rng)):
            h = rng.normal(size=f.domain.dim)
            h /= norm(h, f.domain_norm)
            for tol in (1e-6, 1e-9, 1e-13):
                for ratio, max_depth in ((0.5, 40), (1.0 / 3.0, 25), (0.5, 2), (0.9, 10)):
                    got = directional_derivative(f, f.claimed, x0, h, tol=tol, ratio=ratio, max_depth=max_depth)
                    want = _reference_estimate(f, f.claimed, x0, h, tol, ratio, max_depth)
                    assert got.value.tobytes() == want.value.tobytes(), (f.label, tol, ratio, max_depth)
                    assert got.error_bound.hex() == want.error_bound.hex()
                    assert (got.t_used, got.iterations) == (want.t_used, want.iterations)
                    assert (got.converged, got.cancellation_warning) == (want.converged, want.cancellation_warning)
                    outcomes.add((want.converged, max_depth == 2))
    assert outcomes == {(True, False), (False, False), (True, True), (False, True)}


def test_underflowing_step_grid_is_rejected():
    f = neg_square_1d()
    # t0 = 0.1 reaches 0 at the 33rd power of 1e-10
    with pytest.raises(ValueError, match=r"ratio=1e-10 underflows the step grid to t = 0 at depth 33 of 40"):
        directional_derivative(f, f.claimed, [0.0], [1.0], ratio=1e-10)
    with pytest.raises(ValueError, match=r"ratio=1e-10 underflows .* depth 33 of 35"):
        build_trace(f, f.claimed, [0.0], [1.0], ratio=1e-10, depth=35)
    # one level short of the underflow is still a grid
    assert build_trace(f, f.claimed, [0.0], [1.0], ratio=1e-10, depth=33).t_grid[-1] > 0.0
    with pytest.raises(ValueError, match="at least two grid levels"):
        directional_derivative(f, f.claimed, [0.0], [1.0], max_depth=1)


def test_estimator_requires_unit_direction():
    f = neg_square_1d()
    with pytest.raises(ValueError):
        directional_derivative(f, f.claimed, [0.0], [0.5], tol=1e-6)


def test_estimator_reports_unreachable_tolerance():
    # a claimed zero modulus gives no correction, so the curvature of -x^2
    # keeps the stopping bound near 1e-7 at every reachable step
    f = neg_square_1d()
    flat = ParaSpec(modulus=zero_modulus(), k=np.array([1.0]), cone=orthant(1), C=0.0)
    est = directional_derivative(f, flat, [0.3], [1.0], tol=1e-8)
    assert not est.converged
    assert est.error_bound > 1e-8
    # batteries treat the same failure as a hard error
    with pytest.raises(ConvergenceError):
        gateaux_test(f, flat, [0.3], tol=1e-8, seed=0)


def test_upper_bound_families(families):
    for f in families:
        x0 = [0.1] * f.domain.dim
        h = np.zeros(f.domain.dim)
        h[0] = 1.0
        est = directional_derivative(f, f.claimed, x0, h, tol=1e-6)
        assert est.converged, f.label
        rep = check_upper_bound(f, f.claimed, x0, h, est, tol=1e-9)
        assert rep.passed, f.label


def test_upper_bound_needs_converged_estimate():
    f = neg_square_1d()
    est = DerivativeEstimate(
        value=np.array([-0.6]),
        error_bound=np.inf,
        t_used=0.1,
        iterations=3,
        converged=False,
    )
    with pytest.raises(ValueError):
        check_upper_bound(f, f.claimed, [0.3], [1.0], est)


def test_upper_bound_fails_an_undersized_constant():
    # -x^2 claimed with C = C1 = 0 bends below its tangent: the derivative
    # exceeds the quotient at the top step, where the rule decides
    f = neg_square_1d()
    reports = []
    for spec in (dataclasses.replace(f.claimed, C=0.0, C1=0.0), f.claimed):
        est = directional_derivative(f, spec, [0.25], [1.0])
        assert est.converged
        reports.append(check_upper_bound(f, spec, [0.25], [1.0], est))
    undersized, claimed = reports
    assert not undersized.passed and undersized.witness == pytest.approx(0.1)
    assert undersized.worst_margin == pytest.approx(-0.0476, abs=5e-5)
    assert claimed.passed


def test_upper_bound_steps_are_numpys_geomspace_bit_for_bit():
    # the default steps come from _geomspace, numpy's arithmetic without its
    # dtype and sign handling: a numpy release that changes that arithmetic
    # fails here instead of moving upper-bound margins unseen
    rng = np.random.default_rng(20180402)
    compared = 0
    for i in range(1500):
        lo = 10.0 ** rng.uniform(-300.0, 1.0)
        hi = lo if i % 5 == 0 else 10.0 ** rng.uniform(math.log10(lo), 1.0)
        for n in (1, 2, 12, 40):
            want = np.geomspace(lo, hi, n)
            got = _geomspace(lo, hi, n)
            assert got.tobytes() == want.tobytes(), (lo.hex(), hi.hex(), n)
            compared += 1
    assert compared == 6000


@pytest.mark.parametrize("t_used", [0.0, -0.01, math.nan])
def test_upper_bound_refuses_a_step_outside_the_range_before_any_evaluation(t_used):
    calls = []
    base = neg_square_1d()
    f = dataclasses.replace(base, evaluator=lambda x: calls.append(len(x)) or base.evaluator(x))
    est = DerivativeEstimate(value=np.array([-0.4]), error_bound=0.0, t_used=t_used, iterations=3, converged=True)
    with pytest.raises(ValueError, match="admissible range"):
        check_upper_bound(f, f.claimed, [0.2], [1.0], est)
    assert calls == []


@pytest.mark.parametrize(
    "value", [[math.nan], [-0.4, -0.4], [math.inf], -0.4], ids=["nan", "two-vector", "inf", "scalar"]
)
def test_upper_bound_refuses_an_estimate_value_it_cannot_compare_before_any_evaluation(value):
    # a NaN value once FAILed with worst_margin nan after 13 evaluations, and
    # a 2-vector on a scalar mapping ended in a numpy reshape error
    calls = []
    base = neg_square_1d()
    f = dataclasses.replace(base, evaluator=lambda x: calls.append(len(x)) or base.evaluator(x))
    est = DerivativeEstimate(value=np.array(value), error_bound=0.0, t_used=0.01, iterations=3, converged=True)
    with pytest.raises(ValueError, match=r"estimate value must be a finite vector of shape \(1,\)"):
        check_upper_bound(f, f.claimed, [0.2], [1.0], est)
    assert calls == []


def test_the_allowance_direction_is_read_once_per_spec(monkeypatch):
    # y(k) is read when the spec is built; no estimate, battery or check
    # reads the cone on k again (each 1-D cone_values input would be k)
    f = smooth_r2_r3()
    spec = f.claimed
    assert spec.row_k.tobytes() == paracone.geometry.cone_values(spec.cone, spec.k).tobytes()
    assert not spec.row_k.flags.writeable
    shapes = []
    real = paracone.geometry.cone_values

    def recorded(cone, a):
        shapes.append(np.shape(a))
        return real(cone, a)

    for module in (paracone.derivative, paracone.checks):
        monkeypatch.setattr(module, "cone_values", recorded)
    est = directional_derivative(f, spec, [0.1, -0.2], [1.0, 0.0])
    check_upper_bound(f, spec, [0.1, -0.2], [1.0, 0.0], est)
    gateaux_test(f, spec, [0.1, -0.2], seed=1)
    check_sublinear(f, spec, [0.1, -0.2])
    paracone.checks.falsify(f, spec, budget=50)
    assert shapes and all(len(shape) > 1 for shape in shapes), shapes


# family -> (eval_batch calls, rows) over three seeded pairs, of
# directional_derivative at tol 1e-6 and at 1e-9, check_upper_bound of the
# 1e-6 estimates and build_trace at depth 40.  An estimate evaluates its base
# point and the levels a stop can read (24 at tol 1e-6), and one more batch on
# the full grid when it does not converge there, as the curved families do
# not at 1e-9; the upper bound evaluates its base point and 12 steps.  Rows
# are the quotient path's cost on any machine.
_QUOTIENT_COST = {
    "affine-2to3": ((3, 75), (3, 45), (3, 39), (3, 123)),
    "neg-square": ((3, 75), (6, 168), (3, 39), (3, 123)),
    "abs": ((3, 75), (3, 45), (3, 39), (3, 123)),
    "hinge-plus-quadratic": ((3, 75), (6, 168), (3, 39), (3, 123)),
    "stacked-scalars-8x5": ((3, 75), (6, 168), (3, 39), (3, 123)),
    "smooth-r2-r3": ((3, 75), (6, 168), (3, 39), (3, 123)),
}


@pytest.mark.parametrize("label", list(_QUOTIENT_COST))
def test_quotient_path_cost_in_rows(label, families):
    base = next(g for g in families if g.label == label)
    sizes = []
    f = dataclasses.replace(base, evaluator=lambda x: sizes.append(len(x)) or base.evaluator(x))
    pairs = interior_pairs(f, 3, seed=13)

    def cost(run) -> tuple:
        sizes.clear()
        out = [run(x0, h) for x0, h in pairs]
        return (len(sizes), sum(sizes)), out

    loose, estimates = cost(lambda x0, h: directional_derivative(f, f.claimed, x0, h, tol=1e-6))
    tight, _ = cost(lambda x0, h: directional_derivative(f, f.claimed, x0, h, tol=1e-9))
    bounds = iter(estimates)
    upper, reports = cost(lambda x0, h: check_upper_bound(f, f.claimed, x0, h, next(bounds), tol=1e-9))
    trace, _ = cost(lambda x0, h: build_trace(f, f.claimed, x0, h, depth=40))
    assert all(est.converged for est in estimates) and all(rep.passed for rep in reports)
    assert (loose, tight, upper, trace) == _QUOTIENT_COST[label]


def test_sublinear_along_rays():
    f1 = abs_1d()
    assert check_sublinear(f1, f1.claimed, [0.0], tol=1e-6, seed=2).passed
    f2 = neg_square_1d()
    assert check_sublinear(f2, f2.claimed, [0.25], tol=1e-6, seed=2).passed


def test_sublinear_fails_the_concave_kink():
    # D(h) = -|h| at the origin, so D(1) + D(-1) - D(0) = -2 leaves the orthant
    f = neg_abs_1d()
    spec = ParaSpec(modulus=square_modulus(), k=np.array([1.0]), cone=orthant(1), C=1.0, C1=1.0)
    rep = check_sublinear(f, spec, [0.0], tol=1e-6)
    assert not rep.passed and rep.worst_margin < -1.99
    assert [w.tolist() for w in rep.witness] == [[1.0], [-1.0]]
    assert check_sublinear(f, spec, [0.3], tol=1e-6).passed


def test_sublinear_reads_zero_vectors_as_zero():
    f = smooth_r2_r3()
    # every vector of the pair, its sum and the homogeneity re-estimates are zero: nothing is estimated
    rep = check_sublinear(f, f.claimed, [0.1, -0.2], direction_pairs=[([0, 0], [0, 0])], tol=1e-6)
    assert rep.passed and rep.worst_margin == 0.0
    assert [w.tolist() for w in rep.witness] == [[0, 0], [0, 0]]
    rep = check_sublinear(f, f.claimed, [0.1, -0.2], direction_pairs=[([0, 0], [0.6, 0.8])], tol=1e-6)
    assert rep.passed and rep.witness == ("homogeneity", 0.5)


# the plain two-norm of [1e308, 0] still warns of the overflow it met
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_sublinear_lays_each_grid_along_its_own_unit():
    # the homogeneity grids took their top step from the clearance along the
    # raw h1, not its unit: h1 = (0.1, 0) gave a top of 0.2, which leaves the
    # box along (1, 0) from x0 = (0.9, 0), and (1e150, 0) gave tops near
    # 1e-151, which never converged
    f = smooth_r2_r3()
    x0 = [0.9, 0.0]
    rep = check_sublinear(f, f.claimed, x0, direction_pairs=[([0.1, 0.0], [0.0, 1.0])], tol=1e-6)
    assert rep.passed and rep.witness == ("homogeneity", 0.5)
    # a pair is scored at the length of its longer vector, so these read as the unit pairs
    for pair, unit in (
        (([1e150, 0.0], [0.0, 1e150]), ([1.0, 0.0], [0.0, 1.0])),
        (([1e308, 0.0], [1e308, 0.0]), ([1.0, 0.0], [1.0, 0.0])),
        (([1e200, 0.0], [0.0, 1.0]), ([1.0, 0.0], [0.0, 1e-200])),
    ):
        got = check_sublinear(f, f.claimed, x0, direction_pairs=[pair], tol=1e-6)
        want = check_sublinear(f, f.claimed, x0, direction_pairs=[unit], tol=1e-6)
        assert got.passed == want.passed and got.worst_margin.hex() == want.worst_margin.hex(), pair


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_sublinear_verdict_does_not_depend_on_the_pair_length():
    # -|x| at its kink: D(c) + D(-c) - D(0) = -2|c|, scored as given a FAIL
    # at c = 1 and a PASS at c = 1e-7
    f = neg_abs_1d()
    spec = ParaSpec(modulus=square_modulus(), k=[1.0], cone=orthant(1), C=1.0, C1=1.0)
    unit = check_sublinear(f, spec, [0.0], direction_pairs=[([1.0], [-1.0])], tol=1e-6)
    assert not unit.passed and unit.worst_margin == -1.9999984182417108
    for c in (1e-300, 1e-7, 1e3, 1e300):
        rep = check_sublinear(f, spec, [0.0], direction_pairs=[([c], [-c])], tol=1e-6)
        assert rep.worst_margin.hex() == unit.worst_margin.hex() and not rep.passed, c
        assert [w.tolist() for w in rep.witness] == [[c], [-c]]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_directions_are_rejected_before_any_evaluation(bad):
    # a non-finite direction is an input error named before any evaluation:
    # never a report, and never a point outside the box at x0 + t*h
    calls = []

    def counted(f):
        return dataclasses.replace(f, evaluator=lambda x: calls.append(len(x)) or f.evaluator(x))

    f, g = counted(smooth_r2_r3()), counted(neg_square_1d())
    est = directional_derivative(f, f.claimed, [0.1, -0.2], [1.0, 0.0])
    calls.clear()
    h = [bad, 0.0]
    for run in (
        lambda: check_sublinear(f, f.claimed, [0.1, -0.2], direction_pairs=[(h, [0.0, 1.0])], tol=1e-6),
        lambda: check_sublinear(f, f.claimed, [0.1, -0.2], direction_pairs=[([0.6, 0.8], h)], tol=1e-6),
        lambda: check_sublinear(g, g.claimed, [0.25], direction_pairs=[([bad], [1.0])], tol=1e-6),
        lambda: directional_derivative(f, f.claimed, [0.1, -0.2], h),
        lambda: build_trace(f, f.claimed, [0.1, -0.2], h),
        lambda: check_upper_bound(f, f.claimed, [0.1, -0.2], h, est),
    ):
        with pytest.raises(ValueError, match=r"direction \[.*\] has no finite length"):
            run()
    assert calls == []


# ---------------------------------------------------------------------------
# Gateaux battery


def test_gateaux_flags_the_kink():
    f = abs_1d()
    rep = gateaux_test(f, f.claimed, [0.0], n_directions=8, tol=1e-6, seed=3)
    assert not rep.passed
    # D(+1) = D(-1) = 1, so the antisymmetry defect is |1 + 1| = 2 up to
    # estimator error
    assert 1.9 < rep.defect <= 2.0
    assert rep.margins["antisymmetry"] > 1.9
    for bad in ([[0.0]], [1.0], [[1.0, 0.0]], [[1.0], [1.0, 0.0]]):
        with pytest.raises(ValueError, match="directions"):
            gateaux_test(f, f.claimed, [0.0], directions=bad, tol=1e-6)


def _cbrt_sum():
    """cbrt(x1^3 + x2^3): positively homogeneous and odd, so its one-sided
    derivative at the origin is the map itself, which is not additive."""
    return VectorMapping(
        domain=Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]),
        codomain_dim=1,
        evaluator=lambda x: np.cbrt(x[:, 0] ** 3 + x[:, 1] ** 3)[:, None],
        label="cbrt-sum",
    )


def test_gateaux_additivity_alone_flags_a_homogeneous_kink():
    f = _cbrt_sum()
    spec = ParaSpec(modulus=zero_modulus(), k=np.array([1.0]), cone=orthant(1), C=0.0)
    rep = gateaux_test(f, spec, [0.0, 0.0], n_directions=8, tol=1e-6, seed=0)
    assert not rep.passed
    assert rep.defect == rep.margins["additivity"] > 0.5
    # D(-h) = -D(h) and D(lam*h) = lam*D(h) hold exactly at the origin
    assert max(rep.margins["antisymmetry"], rep.margins["homogeneity"], rep.margins["continuity"]) <= 1e-6
    assert gateaux_test(f, spec, [0.3, -0.2], n_directions=8, tol=1e-6, seed=0).passed


def _log_wobble(r):
    """x*sin(2*pi*log2|x|) on (-r, r), with f(0) = 0.  Its quotient from the
    origin at step t is sin(2*pi*log2(t)), the same at every level of a
    dyadic grid, so each grid reports a converged "derivative" set by the
    phase of its top step: no one-sided derivative exists."""

    def evaluator(x):
        safe = np.where(x == 0.0, 1.0, x)  # keeps the discarded branch finite at 0
        return np.where(x == 0.0, 0.0, x * np.sin(2.0 * np.pi * np.log2(np.abs(safe))))

    return VectorMapping(domain=Box(lo=[-r], hi=[r]), codomain_dim=1, evaluator=evaluator, label="log-wobble")


def test_gateaux_homogeneity_alone_flags_a_log_periodic_wobble():
    spec = ParaSpec(modulus=zero_modulus(), k=np.array([1.0]), cone=orthant(1), C=0.0)
    # on (-0.3, 0.3) the lam = 2 grid is clipped to 0.147, off the base grid's phase
    rep = gateaux_test(_log_wobble(0.3), spec, [0.0], n_directions=8, tol=1e-6, seed=0)
    assert not rep.passed
    assert rep.defect == rep.margins["homogeneity"] > 1.0
    assert max(rep.margins["antisymmetry"], rep.margins["additivity"], rep.margins["continuity"]) <= 1e-6
    # on (-1, 1) both lam-scaled grids sit on the base grid's phase (tops 0.05 and 0.2)
    assert gateaux_test(_log_wobble(1.0), spec, [0.0], n_directions=8, tol=1e-6, seed=0).passed


def _count_batches(monkeypatch):
    """A list that grows by the row count of every VectorMapping.eval_batch call."""
    rows = []
    inner = VectorMapping.eval_batch

    def counted(self, points):
        rows.append(len(points))
        return inner(self, points)

    monkeypatch.setattr(VectorMapping, "eval_batch", counted)
    return rows


def test_batteries_evaluate_one_quotient_batch(monkeypatch):
    f = smooth_r2_r3()
    x0 = [0.1, -0.2]
    batches = _count_batches(monkeypatch)
    # every estimate of the battery in one batch
    for n_directions in (2, 8, 16):
        batches.clear()
        gateaux_test(f, f.claimed, x0, n_directions=n_directions, tol=1e-6, seed=1)
        assert len(batches) == 1
    batches.clear()
    check_sublinear(f, f.claimed, x0, tol=1e-6, seed=1)
    assert len(batches) == 1
    # the linearity precondition, then every direction's residuals at once
    batches.clear()
    frechet_test(f, f.claimed, x0, n_directions=16, tol=1e-6, seed=1)
    assert len(batches) == 2
    assert batches[-1] == 1 + 16 * 20
    # the point and the 24 levels whose brackets can reach tol, of 30
    batches.clear()
    directional_derivative(f, f.claimed, x0, [0.6, 0.8], tol=1e-6, max_depth=30)
    assert batches == [25]
    # an estimate that does not converge on those levels is evaluated again
    # on its full grid: without an allowance, -x^2 never gets below 1e-8
    flat = ParaSpec(modulus=zero_modulus(), k=np.array([1.0]), cone=orthant(1), C=0.0)
    batches.clear()
    assert not directional_derivative(neg_square_1d(), flat, [0.3], [1.0], tol=1e-8).converged
    assert batches == [1 + 17, 1 + 40]
    # and in a block only those traces, from only their points: each of the 4
    # points has 4 traces (+1, -1 and the two homogeneity grids), the lam = 2
    # grid's top step 0.2 lets one more level reach tol, and only the points
    # on the curved side of max(x, 0)^2 do not converge
    g = VectorMapping(Box(lo=[-1.0], hi=[1.0]), 1, lambda x: np.maximum(x, 0.0) ** 2, "half-square")
    batches.clear()
    rep = gateaux_scan(g, flat, g.domain, points=[[-0.5], [0.5], [-0.4], [0.45]], n_directions=2, tol=1e-8, seed=0)
    assert rep.passed == [True, False, True, False]
    assert batches == [4 + 4 * 4 * 18, 2 + 2 * 4 * 40]


def test_gateaux_passes_on_smooth_point():
    f = abs_1d()
    rep = gateaux_test(f, f.claimed, [0.3], n_directions=8, tol=1e-6, seed=3)
    assert rep.passed
    assert rep.defect <= 1e-5


def test_batteries_pass_a_smooth_map_on_a_generator_cone_in_r5():
    # the estimates' error bounds are in the row measure max_y |y(v)| over the
    # unit rows; read in the two norm instead, the same estimates gave this
    # smooth point an antisymmetry excess of +1.71e-6 at tol 1e-6
    cone = cone_from_generators(np.vstack([np.eye(5) + 0.5, np.ones((1, 5))]))
    f = curved_cone_map(cone, seed=3)
    rep = gateaux_test(f, f.claimed, [0.1, -0.2], n_directions=4, tol=1e-6, seed=0)
    assert rep.passed
    assert rep.margins["antisymmetry"] < 0.0
    assert frechet_test(f, f.claimed, [0.1, -0.2], tol=1e-6).passed


def test_gateaux_report_is_json_ready():
    f = neg_square_1d()
    rep = gateaux_test(f, f.claimed, [0.2], n_directions=4, tol=1e-6, seed=4)
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload["pass"] is True
    assert set(payload["margins"]) >= {"antisymmetry", "additivity", "homogeneity", "continuity"}


def test_continuity_margin_never_decides(families, monkeypatch):
    """L is at least max_y |y(D(+-u))| / y(k), so by the triangle inequality
    the continuity margin is below 0 and never a point's defect: checked on
    every report of the scan, at sampled points and declared kinks, of the
    testbed families and seeded curved-cone maps.  No estimate converges at
    tol 0 (its stop rule asks for a bracket below 0), so that scan has no
    report."""
    kernel = paracone.derivative._gateaux_reports
    reports = {}

    def recorded(f, spec, x0s, base_dirs, seeds, tol):
        out = kernel(f, spec, x0s, base_dirs, seeds, tol)
        reports.setdefault(tol, []).extend(rep for rep in out if isinstance(rep, GateauxReport))
        return out

    monkeypatch.setattr(paracone.derivative, "_gateaux_reports", recorded)
    curved = [curved_cone_map(random_simplicial_cone(m, seed=40 + m), seed=m) for m in (2, 3, 4)]
    curved.append(curved_cone_map(cone_from_generators(np.vstack([np.eye(5) + 0.5, np.ones((1, 5))])), seed=5))
    for f in list(families) + curved:
        region = f.domain.shrink(0.05)
        kinks = [[k] for k in (f.kink_locus or ()) if region.contains(np.array([k]))]
        for tol in (1e-6, 1e-9, 0.0):
            gateaux_scan(f, f.claimed, region, n_points=40, n_directions=4, tol=tol, seed=7)
            if kinks:
                gateaux_scan(f, f.claimed, region, points=kinks, n_directions=4, tol=tol, seed=7)
    assert len(reports[1e-6]) > 400 and reports[1e-9] and not reports.get(0.0)
    assert {rep.passed for rep in reports[1e-6]} == {True, False}
    assert max(rep.margins["continuity"] for reps in reports.values() for rep in reps) < 0.0


def test_scan_confusion_on_known_kinks():
    f = abs_1d()
    rep = gateaux_scan(
        f,
        f.claimed,
        f.domain,
        points=[[-0.2], [0.0], [0.3]],
        n_directions=6,
        tol=1e-6,
        seed=5,
    )
    assert rep.density == pytest.approx(2.0 / 3.0)
    assert rep.confusion == {"tp": 1, "fp": 0, "fn": 0, "tn": 2}


def test_scan_density_is_seed_stable():
    f = neg_square_1d()
    pts = [[-0.4], [0.0], [0.4]]
    r1 = gateaux_scan(f, f.claimed, f.domain, points=pts, n_directions=4, tol=1e-6, seed=9)
    r2 = gateaux_scan(f, f.claimed, f.domain, points=pts, n_directions=4, tol=1e-6, seed=9)
    assert r1.density == r2.density == 1.0


def test_scan_rejects_escaping_region():
    f = neg_square_1d()
    with pytest.raises(ValueError):
        gateaux_scan(f, f.claimed, Box(lo=[-2.0], hi=[0.5]), n_points=2, seed=0)


def test_scan_rejects_an_empty_point_set():
    f = neg_square_1d()
    for kwargs in ({"n_points": 0}, {"n_points": -1}, {"points": []}):
        with pytest.raises(ValueError):
            gateaux_scan(f, f.claimed, f.domain.shrink(0.1), seed=0, **kwargs)


@pytest.mark.parametrize("bad", [[0.1, 0.2], [float("nan")], [1.0]], ids=["shape", "non-finite", "outside"])
def test_scan_checks_every_point_before_evaluating(bad):
    f = neg_square_1d()
    unevaluable = dataclasses.replace(f, evaluator=lambda pts: pytest.fail("evaluated before every point was checked"))
    message = rf"neg-square: points\[2\] = \[{bad[0]}.*\] is not a point of the open domain"
    with pytest.raises(OutsideDomainError, match=message):
        gateaux_scan(unevaluable, f.claimed, f.domain, points=[[0.1], [-0.2], bad, [0.3]], n_directions=2, seed=0)


@pytest.mark.parametrize("x0", [[5.0, 0.0], [1.0, 0.0]], ids=["outside", "on-the-face"])
def test_sublinear_checks_its_point_before_evaluating(x0):
    # the point rule of gateaux_test: a point off the open domain is an
    # OutsideDomainError naming it, before any draw or evaluation
    f = smooth_r2_r3()
    unevaluable = dataclasses.replace(f, evaluator=lambda pts: pytest.fail("evaluated before the point was checked"))
    with pytest.raises(OutsideDomainError, match="smooth-r2-r3: test point outside the open domain"):
        check_sublinear(unevaluable, f.claimed, x0, tol=1e-6)


def test_shipped_scan_evaluates_one_batch_per_block():
    (entry,) = json.loads((CONFIG_DIR / "example1_scan.json").read_text())["checks"]
    f = example1_default()
    rows = []
    evaluator = f.evaluator
    f = dataclasses.replace(f, evaluator=lambda pts: rows.append(len(pts)) or evaluator(pts))
    rep = gateaux_scan(
        f, f.claimed, f.domain.shrink(0.04), n_points=entry["n_points"], n_directions=entry["n_directions"], tol=entry["tol"], seed=entry["seed"]
    )
    # ten points per batch, 101 rows each: the point and the 25 levels whose
    # brackets can reach tol, of 40, along +1, -1 and each homogeneity grid
    # (the additivity sum 1 + (-1) is zero and not evaluated); a point at a
    # time took 80 calls, and every level 161 rows a point
    assert rows == [10 * 101] * 4
    assert sum(rows) == 4_040
    assert rep.density == 1.0


def test_scan_draws_the_points_of_one_row_draws():
    for region in (Box(lo=[-0.9], hi=[0.4]), Box(lo=[-0.5, 0.1], hi=[0.5, 0.9])):
        f = affine_mapping(np.ones((1, region.dim)), np.zeros(1), Box(lo=[-1.0] * region.dim, hi=[1.0] * region.dim))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            one_by_one = [region.sample(1, rng)[0] for _ in range(6)]
            rep = gateaux_scan(f, f.claimed, region, n_points=6, n_directions=2, seed=seed)
            assert np.array_equal(np.array(rep.points), np.array(one_by_one))


# ---------------------------------------------------------------------------
# Frechet battery


def test_frechet_rejects_empty_epsilons():
    f = neg_square_1d()
    with pytest.raises(ValueError):
        frechet_test(f, f.claimed, [0.2], epsilons=(), tol=1e-6, seed=8)


def test_frechet_reports_gateaux_precondition_failure():
    f = abs_1d()
    rep = frechet_test(f, f.claimed, [0.0], epsilons=(1e-2,), tol=1e-6, seed=6)
    assert not rep.passed
    assert "precondition" in rep.notes
    assert rep.gateaux_defect == pytest.approx(2.0, abs=0.1)
    assert rep.table == []


def test_frechet_affine_delta_table_closed_form():
    f = affine_mapping(
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        np.zeros(3),
        Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]),
    )
    # keep the true map but overstate the claimed curvature: the residual
    # under the sum functional becomes lam_t = t * sqrt(3) exactly, so the
    # admissible radius for eps is the largest scheduled t with t*sqrt(3) <= eps
    spec = dataclasses.replace(f.claimed, modulus=square_modulus(), C=1.0, C1=2.0)
    rep = frechet_test(f, spec, [0.0, 0.0], epsilons=(1e-2, 1e-3), tol=1e-6, seed=7)
    assert rep.passed
    deltas = [row["delta"] for row in rep.table]
    assert deltas == pytest.approx([0.003125, 3.90625e-4])
    assert rep.max_base_norm == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)
    assert rep.max_base_norm <= rep.base_radius + 1e-9
    assert rep.residual_margin >= -1e-6
    for row in rep.table:
        assert row["epsilon"] in (1e-2, 1e-3)


def _flat_neg_square():
    """(-x^2, 0) on (-1, 1) under the orthant of R^2 with k = (1, 1): it meets
    its square-modulus claim at C = C1 = 1 exactly, and (-2x*h, 0) is its derivative."""
    spec = ParaSpec(modulus=square_modulus(), cone=orthant(2), k=np.ones(2), C=1.0, C1=1.0)
    return VectorMapping(
        domain=Box(lo=[-1.0], hi=[1.0]),
        codomain_dim=2,
        evaluator=lambda x: np.column_stack([-x[:, 0] ** 2, np.zeros(len(x))]),
        label="flat-neg-square",
        claimed=spec,
        analytic_directional=lambda x0, h: np.array([-2.0 * x0[0] * h[0], 0.0]),
    )


@pytest.mark.parametrize("x0", [0.3, -0.45, 0.7])
def test_frechet_passes_an_exact_map_whose_base_norm_rounds_past_the_radius(x0):
    # the residual's first coordinate is rounding noise around 0, so its base
    # point r/e*(r) lands a few ulps-over-lambda outside the base; the residual
    # stays in the cone within its allowance, and the verdict reads only that
    f = _flat_neg_square()
    rep = frechet_test(f, f.claimed, [x0], seed=0, tol=1e-6)
    assert rep.passed
    assert rep.gateaux_defect == 0.0 and rep.residual_margin >= 0.0
    assert all(row["delta"] is not None for row in rep.table)
    assert rep.base_radius == 1.0 < rep.max_base_norm < 1.0 + 1e-4


def test_frechet_fails_an_undersized_constant_on_the_residual_rule():
    # the smooth family at a quarter of its claimed constant: a linearity
    # point with finite deltas, whose residual leaves the cone
    f = smooth_r2_r3()
    small = dataclasses.replace(f.claimed, C=0.25, C1=0.25)
    rep = frechet_test(f, small, [0.1, -0.2], seed=31)
    assert not rep.passed
    assert rep.gateaux_defect == 0.0
    assert all(row["delta"] is not None and math.isfinite(row["delta"]) for row in rep.table)
    assert rep.residual_margin == pytest.approx(-0.0242, abs=5e-5)
    assert frechet_test(f, f.claimed, [0.1, -0.2], seed=31).passed


def test_frechet_report_serializes():
    f = neg_square_1d()
    rep = frechet_test(f, f.claimed, [0.2], epsilons=(1e-2,), tol=1e-6, seed=8)
    payload = json.loads(json.dumps(rep.to_dict()))
    assert "table" in payload and "gateaux_defect" in payload
