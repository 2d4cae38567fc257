"""Inequality checkers, falsification, and the scalar side conditions."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracone import (
    Box,
    ParaSpec,
    PolyCone,
    SampleTriple,
    Triples,
    affine_mapping,
    build_trace,
    check_alpha_monotone,
    check_approx_convex,
    check_fact2,
    check_inequality,
    check_sublinear,
    check_upper_bound,
    check_vector_lipschitz,
    cone_from_generators,
    curved_cone_map,
    directional_derivative,
    dyadic_small_gap_triples,
    falsify,
    frechet_test,
    gateaux_scan,
    gateaux_test,
    neg_abs_1d,
    neg_square_1d,
    orthant,
    random_simplicial_cone,
    sample_triples,
    scalarize_check,
    smooth_r2_r3,
    square_modulus,
    zero_modulus,
)
import paracone.checks
import paracone.geometry
from paracone.checks import _ball_pairs, _coordinate_moves, _margins, _paired_moves, _pattern_search, _search_plan
from paracone.derivative import FrechetReport, GateauxReport
from paracone.geometry import row_norms, unit_dual_generators
from paracone.mappings import OutsideDomainError
from paracone.reports import CheckReport, worst_report


def _generator_only_curved_map():
    # positive rays whose enumerated dual rows are not exactly unit length
    # after a second normalization: the scalarized route once drifted here
    rays = np.random.default_rng(9).uniform(0.1, 1.0, size=(4, 3))
    return curved_cone_map(cone_from_generators(rays), seed=9)


# ---------------------------------------------------------------------------
# sampling


def test_sample_triples_deterministic_and_in_box():
    box = Box(lo=[-1.0, 0.0], hi=[1.0, 2.0])
    a = sample_triples(box, 200, seed=5)
    b = sample_triples(box, 200, seed=5)
    assert len(a) == 200
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.x, tb.x) and np.array_equal(ta.y, tb.y) and ta.lam == tb.lam
        assert box.contains(ta.x) and box.contains(ta.y)
        assert 0.0 <= ta.lam <= 1.0
    c = sample_triples(box, 200, seed=6)
    assert any(not np.array_equal(ta.x, tc.x) for ta, tc in zip(a, c))


def _schedule_triples(box):
    """The per-triple dyadic schedule the array builder replaced, kept as the
    oracle of the head: midpoint triples at box fractions 1/2, 1/4, 3/4 along
    the axes and the diagonal, with gaps halving 14 times."""
    d = box.dim
    dirs = [np.eye(d)[i] for i in range(d)]
    diag = np.ones(d) / math.sqrt(d)
    if not any(np.allclose(diag, u) for u in dirs):
        dirs.append(diag)
    triples = []
    for frac in (0.5, 0.25, 0.75):
        c = box.lo + frac * (box.hi - box.lo)
        for u in dirs:
            span = 0.9 * min(box.boundary_distance(c, u), box.boundary_distance(c, -u))
            for j in range(1, 15):
                t = span * 2.0**-j
                triples.append(SampleTriple(x=c - t * u, y=c + t * u, lam=0.5))
    return triples


def test_dyadic_head_matches_the_schedule():
    rng = np.random.default_rng(2018)
    for d in (1, 2, 3, 4, 5):
        for _ in range(6):
            lo = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3)
            box = Box(lo=lo, hi=lo + rng.uniform(1e-3, 5.0, size=d) * 10.0 ** rng.uniform(-3, 3))
            # 3 anchors, the axes and (for d > 1) the diagonal, 14 gaps each
            n_dyadic = 3 * (d + (d > 1)) * 14
            head, schedule = dyadic_small_gap_triples(box), _schedule_triples(box)
            assert len(head) == n_dyadic == len(schedule)
            assert head.x.tobytes() == np.array([t.x for t in schedule]).tobytes()
            assert head.y.tobytes() == np.array([t.y for t in schedule]).tobytes()
            assert np.all(head.lam == 0.5)
            for budget in (1, n_dyadic - 1, n_dyadic, n_dyadic + 5):
                got = sample_triples(box, budget, seed=int(rng.integers(2**31)))
                n_head = min(budget, n_dyadic)
                assert len(got) == budget and got.structured == n_head
                assert got.x[:n_head].tobytes() == head.x[:n_head].tobytes()
                assert got.y[:n_head].tobytes() == head.y[:n_head].tobytes()


def _fill(t):
    return t.x[t.structured :], t.y[t.structured :], t.lam[t.structured :]


def test_fill_is_rows_of_one_draw():
    # the frozen statement of the seeded stream: fill triple j is row j of
    # default_rng(seed).random((n, 2d + 2)), and every third is contracted
    for d in (1, 2, 3, 4):
        box = Box(lo=-0.5 * np.arange(1, d + 1), hi=0.25 + np.arange(1, d + 1))
        n_dyadic = len(dyadic_small_gap_triples(box))
        for seed in range(20):
            for budget in (n_dyadic + 1, n_dyadic + 2, n_dyadic + 3, n_dyadic + 40 + seed):
                n = budget - n_dyadic
                u = np.random.default_rng(seed).random((n, 2 * d + 2))
                x = box.lo + (box.hi - box.lo) * u[:, :d]
                y = box.lo + (box.hi - box.lo) * u[:, d : 2 * d]
                for j in range(2, n, 3):
                    e = 1 + math.floor(11.0 * u[j, -1])
                    y[j] = x[j] + (y[j] - x[j]) * 2.0**-e
                got_x, got_y, got_lam = _fill(sample_triples(box, budget, seed))
                assert got_x.tobytes() == x.tobytes(), (d, seed, budget)
                assert got_y.tobytes() == y.tobytes(), (d, seed, budget)
                assert got_lam.tobytes() == u[:, 2 * d].tobytes(), (d, seed, budget)


def test_fill_is_prefix_stable(monkeypatch):
    # a smaller budget's fill is the first rows of a larger one's
    for d in (1, 2, 3):
        box = Box(lo=-np.ones(d), hi=np.ones(d))
        n_dyadic = len(dyadic_small_gap_triples(box))
        for seed in range(10):
            big = _fill(sample_triples(box, n_dyadic + 500, seed))
            for m in (1, 2, 3, 4, 7, 100, 499):
                small = _fill(sample_triples(box, n_dyadic + m, seed))
                for a, b in zip(small, big):
                    assert a.tobytes() == b[:m].tobytes(), (d, seed, m)
    # and a head of another length only shortens it: the fill's row index,
    # and so which rows are contracted, does not count the head
    box = Box(lo=[-1.0, 0.0], hi=[1.0, 2.0])
    n_dyadic = len(dyadic_small_gap_triples(box))
    full = _fill(sample_triples(box, n_dyadic + 60, seed=8))
    schedule = paracone.checks.dyadic_small_gap_triples
    for n_head in (0, 1, 2, 4, 5):
        monkeypatch.setattr(paracone.checks, "dyadic_small_gap_triples", lambda b: schedule(b)[:n_head])
        t = sample_triples(box, n_head + 60, seed=8)
        assert t.structured == n_head
        for a, b in zip(_fill(t), full):
            assert a.tobytes() == b.tobytes(), n_head


def test_contracted_fill_rows_and_exponents():
    box = Box(lo=[-1.0, 0.0], hi=[1.0, 2.0])
    n_dyadic = len(dyadic_small_gap_triples(box))
    n = 30000
    x, y, _ = _fill(sample_triples(box, n_dyadic + n, seed=3))
    u = np.random.default_rng(3).random((n, 6))
    y_drawn = box.lo + (box.hi - box.lo) * u[:, 2:4]
    moved = np.any(y != y_drawn, axis=1)
    # only fill rows 2 mod 3 are contracted, and each of them is
    assert np.array_equal(np.flatnonzero(moved), np.arange(2, n, 3))
    ratio = np.abs(y - x)[moved] / np.abs(y_drawn - x)[moved]
    exponents = np.unique(np.round(-np.log2(ratio)))
    assert exponents.tolist() == list(range(1, 12))


def test_triples_record_acts_like_a_list():
    box = Box(lo=[-1.0, 0.0], hi=[1.0, 2.0])
    t = sample_triples(box, 200, seed=5)
    assert isinstance(t, Triples) and isinstance(t[3], SampleTriple)
    assert np.array_equal(t[-1].x, t.x[-1]) and t[7].lam == t.lam[7]
    head = t[:10]
    assert isinstance(head, Triples) and len(head) == 10 and head.structured == 10
    for cut in (slice(None, None, 2), slice(1, None, 7), slice(None, None, -1), slice(-30, None), slice(-5, 3, -3)):
        part = t[cut]
        kept = list(range(len(t)))[cut]
        assert np.array_equal(part.x, t.x[cut]) and np.array_equal(part.lam, t.lam[cut])
        assert part.structured == sum(k < t.structured for k in kept), cut
    assert [tr.lam for tr in t][150:] == t.lam[150:].tolist()


def test_margin_does_not_depend_on_batch(families):
    for f in families + (_generator_only_curved_map(),):
        spec = f.claimed
        rows = unit_dual_generators(spec.cone)
        t = sample_triples(f.domain, 2000, seed=11)
        for form in ("min", "lambda"):
            batch = _margins(f, spec, rows, form, t.x, t.y, t.lam)
            alone = [check_inequality(f, spec, form=form, triples=[t[i]]).worst_margin for i in range(len(t))]
            assert batch.tolist() == alone, f"{f.label} {form}"


def test_dyadic_head_is_built_once_per_box_and_read_only():
    box = Box(lo=[-1.0, 0.0], hi=[1.0, 2.0])
    head = dyadic_small_gap_triples(box)
    for arr in (head.x, head.y, head.lam):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7.0
    # an equal box, built apart, gets the same bits; another box or gap count its own schedule
    again = dyadic_small_gap_triples(Box(lo=np.array([-1.0, 0.0]), hi=(1.0, 2.0)))
    for a, b in zip((head.x, head.y, head.lam), (again.x, again.y, again.lam)):
        assert a.tobytes() == b.tobytes()
    assert again.structured == head.structured == len(head)
    assert len(dyadic_small_gap_triples(box, n_gaps=6)) == 6 * len(head) // 14
    wider = dyadic_small_gap_triples(Box(lo=[-2.0, 0.0], hi=[1.0, 2.0]))
    assert wider.x.tobytes() != head.x.tobytes()
    # sampling copies the head, so its triples are writable and the cache keeps its bits
    t = sample_triples(box, len(head) + 10, seed=1)
    t.x[0] = 7.0
    assert dyadic_small_gap_triples(box).x.tobytes() == again.x.tobytes() != t.x.tobytes()


def test_dyadic_schedule_halves_gaps():
    box = Box(lo=[-1.0], hi=[1.0])
    triples = dyadic_small_gap_triples(box, n_gaps=6)
    gaps = [abs(t.x[0] - t.y[0]) for t in triples[:6]]
    for wide, narrow in zip(gaps, gaps[1:]):
        assert narrow == pytest.approx(0.5 * wide)
    assert all(box.contains(t.x) and box.contains(t.y) and t.lam == 0.5 for t in triples)


def test_sample_triple_validation():
    with pytest.raises(ValueError):
        SampleTriple(x=np.zeros(1), y=np.zeros(1), lam=1.5)
    t = SampleTriple(x=np.array([0.0]), y=np.array([1.0]), lam=0.25)
    assert t.mid[0] == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# direct and scalarized inequality checks


def test_exact_constant_is_tight_in_lambda_form():
    f = neg_square_1d()
    rep = check_inequality(f, f.claimed, form="lambda", budget=3000, seed=1, tol=1e-12)
    assert rep.passed
    # the allowance exactly cancels the concavity defect, so the worst slack
    # is floating-point residue around zero
    assert abs(rep.worst_margin) < 1e-13


def test_min_form_dominates_lambda_form():
    f = neg_square_1d()
    rep = check_inequality(f, f.claimed, form="min", budget=3000, seed=1, tol=1e-12)
    assert rep.passed
    assert rep.worst_margin >= -1e-15


def test_undersized_constant_is_rejected():
    f = neg_square_1d()
    bad = dataclasses.replace(f.claimed, C1=0.99)
    rep = check_inequality(f, bad, form="lambda", budget=3000, seed=1, tol=1e-12)
    assert not rep.passed
    assert rep.worst_margin < -1e-6
    assert isinstance(rep.witness, SampleTriple)


@pytest.mark.parametrize(
    "run",
    [
        lambda f, spec, form: check_inequality(f, spec, form=form, budget=16),
        lambda f, spec, form: scalarize_check(f, spec, unit_dual_generators(spec.cone), form=form, budget=16),
        lambda f, spec, form: falsify(f, spec, form=form, budget=16),
    ],
    ids=["check_inequality", "scalarize_check", "falsify"],
)
def test_form_and_its_constant_are_checked_by_the_spec(run):
    f = neg_square_1d()
    with pytest.raises(ValueError, match="unknown allowance form 'quadratic'; expected 'min' or 'lambda'"):
        run(f, f.claimed, "quadratic")
    with pytest.raises(ValueError, match="spec carries no lambda-form constant C1"):
        run(f, dataclasses.replace(f.claimed, C=1.0, C1=None), "lambda")
    with pytest.raises(ValueError, match="spec carries no min-form constant C$"):
        run(f, dataclasses.replace(f.claimed, C=None, C1=1.0), "min")


def test_margin_symmetric_under_weight_flip():
    f = neg_square_1d()
    spec = f.claimed
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, y = rng.uniform(-0.9, 0.9, size=2)
        lam = float(rng.uniform())
        t1 = SampleTriple(x=np.array([x]), y=np.array([y]), lam=lam)
        t2 = SampleTriple(x=np.array([y]), y=np.array([x]), lam=1.0 - lam)
        m1 = check_inequality(f, spec, form="min", triples=[t1]).worst_margin
        m2 = check_inequality(f, spec, form="min", triples=[t2]).worst_margin
        assert m1 == pytest.approx(m2, abs=1e-13)


def test_scalarized_route_agrees_bitwise_on_orthant(families):
    for f in families:
        spec = f.claimed
        triples = sample_triples(f.domain, 300, seed=9)
        direct = check_inequality(f, spec, form="min", triples=triples)
        rows = list(unit_dual_generators(spec.cone))
        scal = scalarize_check(f, spec, rows, form="min", triples=triples)
        assert direct.passed == scal.passed
        assert direct.worst_margin == scal.worst_margin  # same kernel, same floats


def test_orthant_rows_scalarized_match_the_direct_check_bit_for_bit(families, monkeypatch):
    # the direct check reads the orthant in closed form (cone_values), the
    # scalarized one its unit rows, the identity, as values + 0.0 (_margins):
    # every triple's margin, and so every report, is the same bits in either form
    for f in families:
        spec = f.claimed
        rows = unit_dual_generators(spec.cone)
        triples = sample_triples(f.domain, 400, seed=17)
        for form in ("min", "lambda"):
            closed = _margins(f, spec, None, form, triples.x, triples.y, triples.lam)
            product = _margins(f, spec, rows, form, triples.x, triples.y, triples.lam)
            assert closed.tobytes() == product.tobytes(), (f.label, form)
            direct = check_inequality(f, spec, form=form, triples=triples)
            scal = scalarize_check(f, spec, list(rows), form=form, triples=triples)
            assert direct.worst_margin.hex() == scal.worst_margin.hex(), (f.label, form)
            assert (direct.witness.x.tobytes(), direct.witness.lam) == (scal.witness.x.tobytes(), scal.witness.lam)
    # the direct check and falsify never reach the product on the orthant
    def product(mat, a):
        raise AssertionError("the orthant read its rows through matvec_rows")

    monkeypatch.setattr(paracone.geometry, "matvec_rows", product)
    for f in families:
        check_inequality(f, f.claimed, budget=50)
        falsify(f, f.claimed, budget=50)


def test_identity_functionals_match_the_direct_check_on_every_orthant_family(families):
    # identity rows are read as values + 0.0 and k + 0.0 (matvec_rows), and
    # every report is check_inequality's, bit for bit
    orthant_families = [f for f in families if f.claimed.cone._identity]
    assert len(orthant_families) == len(families)
    for f in orthant_families:
        eye = np.eye(f.codomain_dim)
        for seed in range(3):
            for form in ("min", "lambda"):
                direct = check_inequality(f, f.claimed, form=form, budget=300, seed=seed)
                scal = scalarize_check(f, f.claimed, eye, form=form, budget=300, seed=seed)
                assert direct.worst_margin.hex() == scal.worst_margin.hex(), (f.label, seed, form)


def test_identity_functionals_over_a_generator_cone_match_the_product(monkeypatch):
    # a generator cone inside the orthant has every e_i in its dual, so the
    # identity rows are legal functionals of a cone that is not the orthant;
    # their closed form is the product's bits, margin for margin
    rays = np.random.default_rng(21).uniform(0.1, 1.0, size=(5, 3))
    f = curved_cone_map(cone_from_generators(rays), seed=21)
    assert not f.claimed.cone._identity
    eye = paracone.geometry.unit_rows(np.eye(3))
    for seed in range(4):
        triples = sample_triples(f.domain, 400, seed=seed)
        for form in ("min", "lambda"):
            closed = _margins(f, f.claimed, eye, form, triples.x, triples.y, triples.lam)
            with monkeypatch.context() as m:
                m.setattr(paracone.geometry, "_is_identity", lambda rows: False)
                product = _margins(f, f.claimed, eye, form, triples.x, triples.y, triples.lam)
            assert closed.tobytes() == product.tobytes(), (seed, form)
            scal = scalarize_check(f, f.claimed, np.eye(3), form=form, triples=triples)
            assert scal.worst_margin.hex() == float(closed.min()).hex()


def test_scalarized_route_agrees_bitwise_on_generator_only_cone():
    f = _generator_only_curved_map()
    rows = list(unit_dual_generators(f.claimed.cone))
    for seed in range(5):
        triples = sample_triples(f.domain, 300, seed=seed)
        direct = check_inequality(f, f.claimed, form="min", triples=triples)
        scal = scalarize_check(f, f.claimed, rows, form="min", triples=triples)
        assert direct.worst_margin.hex() == scal.worst_margin.hex()


def test_scalarize_audits_functionals():
    f = neg_square_1d()
    with pytest.raises(ValueError):
        scalarize_check(f, f.claimed, [np.array([-1.0])], budget=10, seed=0)
    # a zero functional of the wrong length is malformed too, not skipped into numpy's matmul
    g = smooth_r2_r3()
    with pytest.raises(ValueError, match="dimension mismatch"):
        scalarize_check(g, g.claimed, [[0.0, 0.0]], budget=10, seed=0)
    with pytest.raises(ValueError, match=r"functionals must be an array of shape \(\*, 3\) of numbers"):
        scalarize_check(g, g.claimed, [[1.0], [1.0, 0.0, 0.0]], budget=10, seed=0)


def test_scalarize_needs_a_functional():
    f = neg_square_1d()
    with pytest.raises(ValueError, match="at least one functional"):
        scalarize_check(f, f.claimed, [], budget=10, seed=0)
    # a zero functional inside a non-empty list stays legal, with an identically zero slack
    rep = scalarize_check(f, f.claimed, [np.array([0.0])], budget=10, seed=0)
    assert rep.passed and rep.worst_margin == 0.0


def test_dimension_mismatch_is_rejected():
    f = neg_square_1d()
    spec3 = ParaSpec(modulus=square_modulus(), k=np.ones(3), cone=orthant(3), C=1.0)
    with pytest.raises(ValueError):
        check_inequality(f, spec3, budget=10, seed=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda f, spec: check_inequality(f, spec, budget=16),
        lambda f, spec: scalarize_check(f, spec, [[1.0, 0.0]], budget=16),
        lambda f, spec: falsify(f, spec, budget=16),
        lambda f, spec: check_fact2(f, spec, [1.0, 1.0], budget=16),
        lambda f, spec: build_trace(f, spec, [0.25], [1.0]),
        lambda f, spec: directional_derivative(f, spec, [0.25], [1.0]),
        lambda f, spec: check_sublinear(f, spec, [0.25]),
        lambda f, spec: gateaux_test(f, spec, [0.25]),
        lambda f, spec: gateaux_scan(f, spec, f.domain.shrink(0.1), n_points=2),
        lambda f, spec: frechet_test(f, spec, [0.25]),
    ],
    ids=["check", "scalarize", "falsify", "fact2", "trace", "derivative", "sublinear", "gateaux", "scan", "frechet"],
)
def test_spec_that_does_not_fit_the_codomain_raises_before_any_evaluation(call):
    # a cone of R^2 on a map into R^1 would broadcast the quotients against k
    calls = []
    base = neg_abs_1d()
    f = dataclasses.replace(base, evaluator=lambda x: calls.append(len(x)) or base.evaluator(x))
    spec2 = ParaSpec(modulus=square_modulus(), k=np.ones(2), cone=orthant(2), C=1.0)
    with pytest.raises(ValueError, match="spec cone dimension does not match the mapping codomain"):
        call(f, spec2)
    assert calls == []


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=10_000))
def test_affine_margins_never_negative(seed):
    """Equality families pass both forms regardless of the sampling seed."""
    from paracone import affine_mapping

    rng = np.random.default_rng(seed)
    f = affine_mapping(
        rng.normal(size=(2, 2)),
        rng.normal(size=2),
        Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]),
    )
    for form in ("min", "lambda"):
        rep = check_inequality(f, f.claimed, form=form, budget=64, seed=seed, tol=1e-9)
        assert rep.passed


# ---------------------------------------------------------------------------
# falsification


def test_falsify_finds_small_gap_violation():
    f = neg_abs_1d()
    spec = ParaSpec(modulus=square_modulus(), k=np.array([1.0]), cone=orthant(1), C=10.0)
    rep = falsify(f, spec, form="min", budget=1000, seed=3)
    assert not rep.passed
    gap = abs(rep.witness.x[0] - rep.witness.y[0])
    assert gap < 0.1
    assert "structured" in rep.notes


def test_falsify_witness_replays_identically():
    f = neg_abs_1d()
    spec = ParaSpec(modulus=square_modulus(), k=np.array([1.0]), cone=orthant(1), C=10.0)
    rep = falsify(f, spec, form="min", budget=500, seed=3)
    replay = check_inequality(f, spec, form="min", triples=[rep.witness])
    assert not replay.passed
    assert replay.worst_margin == rep.worst_margin


def test_falsify_passes_on_convex_family():
    from paracone import abs_1d

    f = abs_1d()
    rep = falsify(f, f.claimed, form="min", budget=400, seed=4)
    assert rep.passed
    assert "no violation" in rep.notes


def test_falsify_scans_the_sampled_triples():
    f = neg_abs_1d()
    spec = ParaSpec(modulus=square_modulus(), k=np.array([1.0]), cone=orthant(1), C=10.0)
    for seed, budget in ((3, 30), (3, 500), (8, 500)):
        scan = falsify(f, spec, budget=budget, seed=seed, refine=False)
        check = check_inequality(f, spec, budget=budget, seed=seed)
        assert scan.worst_margin == check.worst_margin and scan.samples_used == check.samples_used
        assert np.array_equal(scan.witness.x, check.witness.x) and np.array_equal(scan.witness.y, check.witness.y)
    # a witness from the dyadic head keeps its source label
    assert "structured-dyadic" in falsify(f, spec, budget=30, seed=3, refine=False).notes


def test_refinement_only_sharpens():
    f = neg_abs_1d()
    spec = ParaSpec(modulus=square_modulus(), k=np.array([1.0]), cone=orthant(1), C=10.0)
    raw = falsify(f, spec, budget=500, seed=3, refine=False)
    sharp = falsify(f, spec, budget=500, seed=3, refine=True)
    assert sharp.worst_margin <= raw.worst_margin


# (family, form, constant factor or C) -> (eval_batch calls, rows) of falsify
# at budget 1000, seed 7: one scan batch of 3 * 1000 rows, then the pattern
# search's kernel calls.  Rows are the search's cost on any machine.
_SEARCH_COST = {
    ("neg-abs", "min", 10.0): (9, 4056),
    ("neg-abs", "min", 20.0): (8, 3954),
    ("neg-abs", "min", 50.0): (7, 3792),
    ("neg-square", "lambda", 0.9): (14, 5496),
    ("neg-square", "lambda", 0.99): (14, 5496),
    ("hinge-plus-quadratic", "lambda", 0.9): (24, 7260),
    ("hinge-plus-quadratic", "lambda", 0.99): (24, 7260),
}


@pytest.mark.parametrize("case", list(_SEARCH_COST), ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_falsify_search_cost_in_rows(case, families):
    label, form, constant = case
    if label == "neg-abs":
        base = neg_abs_1d()
        spec = ParaSpec(modulus=square_modulus(), k=[1.0], cone=orthant(1), C=constant)
    else:
        base = next(g for g in families + (neg_square_1d(),) if g.label == label)
        spec = dataclasses.replace(base.claimed, C1=constant * base.claimed.C1)  # undersized
    sizes = []
    f = dataclasses.replace(base, evaluator=lambda x: sizes.append(len(x)) or base.evaluator(x))
    rep = falsify(f, spec, form=form, budget=1000, seed=7)
    assert not rep.passed and "+refined" in rep.notes
    assert (len(sizes), sum(sizes)) == _SEARCH_COST[case]


def _reference_pattern_search(f, spec, form, start, moves, rounds=50):
    """The sequential search the batched one replaced, kept as the oracle:
    one candidate per kernel call, in the order of the move table, with best
    moving in the middle of a round.  start and the result are (x, y, lam,
    value); also returns the number of moves accepted."""
    rows = unit_dual_generators(spec.cone)
    box = f.domain
    inset = 1e-9 * (box.hi - box.lo)
    lo, hi = box.lo + inset, box.hi - inset
    x, y, lam, best_val = start
    dx, dy, dlam = moves
    step = 0.05
    accepted = 0
    for _ in range(rounds):
        improved = False
        for i in range(dlam.shape[0]):
            cx = np.clip(x + step * dx[i], lo, hi)
            cy = np.clip(y + step * dy[i], lo, hi)
            clam = float(np.clip(lam + step * dlam[i], 0.0, 1.0))
            val = float(_margins(f, spec, rows, form, cx[None, :], cy[None, :], np.array([clam]))[0])
            if val < best_val:
                x, y, lam, best_val = cx, cy, clam, val
                improved = True
                accepted += 1
        if not improved:
            step *= 0.5
            if step < 1e-6:
                break
    return (x, y, lam, best_val), accepted


def test_move_tables_list_the_documented_order():
    width = np.array([2.0, 3.0])
    dx, dy, dlam = _coordinate_moves(width)
    # per axis and sign: the x move, then the y move; then lam up and down
    want = [([2, 0], [0, 0], 0), ([0, 0], [2, 0], 0), ([-2, 0], [0, 0], 0), ([0, 0], [-2, 0], 0),
            ([0, 3], [0, 0], 0), ([0, 0], [0, 3], 0), ([0, -3], [0, 0], 0), ([0, 0], [0, -3], 0),
            ([0, 0], [0, 0], 1), ([0, 0], [0, 0], -1)]
    assert np.array_equal(dx, [w[0] for w in want]) and np.array_equal(dy, [w[1] for w in want])
    assert np.array_equal(dlam, [w[2] for w in want])
    dx, dy, dlam = _paired_moves(width)
    # per axis and sign: x and y together, then apart (y against the move)
    want = [([2, 0], [2, 0]), ([2, 0], [-2, 0]), ([-2, 0], [-2, 0]), ([-2, 0], [2, 0]),
            ([0, 3], [0, 3]), ([0, 3], [0, -3]), ([0, -3], [0, -3]), ([0, -3], [0, 3])]
    assert np.array_equal(dx, [w[0] for w in want]) and np.array_equal(dy, [w[1] for w in want])
    assert np.array_equal(dlam, np.zeros(8))


def _plan(box, moves):
    return _search_plan(box.lo.tobytes(), box.hi.tobytes(), moves)


_PLAN_BOX = Box(lo=[-1.0, 0.5, 0.0], hi=[2.0, 3.0, 1e-3])
_EACH_PASS = pytest.mark.parametrize("moves", [_coordinate_moves, _paired_moves], ids=["coordinate", "paired"])


@_EACH_PASS
def test_search_plan_is_read_only(moves):
    lo, hi, table, _ = _plan(_PLAN_BOX, moves)
    for a in (lo, hi, table):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


@_EACH_PASS
def test_search_plan_is_built_once_per_box_and_pass(moves):
    plan = _plan(_PLAN_BOX, moves)
    # an equal box built anew reads the same plan object
    assert _plan(Box(lo=_PLAN_BOX.lo.copy(), hi=_PLAN_BOX.hi.copy()), moves) is plan
    other = _coordinate_moves if moves is _paired_moves else _paired_moves
    assert _plan(_PLAN_BOX, other) is not plan


@_EACH_PASS
def test_search_plan_is_the_ladder_of_the_move_table_bit_for_bit(moves):
    lo, hi, table, n = _plan(_PLAN_BOX, moves)
    width = _PLAN_BOX.hi - _PLAN_BOX.lo
    dx, dy, dlam = moves(width)
    assert n == dlam.shape[0]
    # the sequential loop's arithmetic: bounds inset by 1e-9 of the width,
    # and a step that starts at 0.05 and halves once per rung
    inset = 1e-9 * width
    assert lo.tobytes() == np.concatenate([_PLAN_BOX.lo + inset, _PLAN_BOX.lo + inset, [0.0]]).tobytes()
    assert hi.tobytes() == np.concatenate([_PLAN_BOX.hi - inset, _PLAN_BOX.hi - inset, [1.0]]).tobytes()
    want, step = [], 0.05
    for _ in range(16):
        want += [np.concatenate([step * dx[i], step * dy[i], [step * dlam[i]]]) for i in range(n)]
        step *= 0.5
    assert table.shape == (16 * n, 2 * width.shape[0] + 1)
    assert table.tobytes() == np.array(want).tobytes()


@_EACH_PASS
def test_search_plan_of_a_box_one_bit_apart_is_its_own(moves):
    plan = _plan(_PLAN_BOX, moves)
    for side in ("lo", "hi"):
        for axis in range(_PLAN_BOX.dim):
            bounds = {"lo": _PLAN_BOX.lo.copy(), "hi": _PLAN_BOX.hi.copy()}
            bounds[side][axis] = np.nextafter(bounds[side][axis], np.inf)
            near = Box(**bounds)
            got = _plan(near, moves)
            assert got is not plan and got is _plan(near, moves)
            # its bounds are read from its own box
            inset = 1e-9 * (near.hi - near.lo)
            assert got[1][: near.dim].tobytes() == (near.hi - inset).tobytes()
            assert got[0][: near.dim].tobytes() == (near.lo + inset).tobytes()


def _search_cases(families):
    """(mapping, spec, form, seed): every testbed family and a generator-only
    cone map with both constants shrunk to 0.9 of the claimed ones, both
    forms, and -|x| across the constant sweep."""
    cases = []
    for f in families + (_generator_only_curved_map(),):
        spec = dataclasses.replace(f.claimed, C=0.9 * f.claimed.C, C1=0.9 * f.claimed.C1)
        cases += [(f, spec, form, seed) for form in ("min", "lambda") for seed in (0, 5, 11)]
    f = neg_abs_1d()
    for c in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        spec = ParaSpec(modulus=square_modulus(), k=[1.0], cone=orthant(1), C=c)
        cases += [(f, spec, "min", seed) for seed in (0, 3, 7)]
    return cases


def _scan_start(f, spec, form, seed):
    scan = falsify(f, spec, form=form, budget=200, seed=seed, refine=False)
    return scan.witness.x, scan.witness.y, scan.witness.lam, scan.worst_margin


def _batched_objective(f, spec, form, calls):
    rows = unit_dual_generators(spec.cone)

    def objective(x, y, lam):
        calls.append(lam.shape[0])
        return _margins(f, spec, rows, form, x, y, lam)

    return objective


def _assert_search_matches_the_loop(f, spec, form, start, moves, rounds, where):
    """_pattern_search against the one-candidate loop, by float.hex of the
    margin, x, y and lam, and its cost: at most one objective call per
    accepted move plus one, none of more than 17 tables of rows (the rest of
    a round, its repeat and the 15 halved steps)."""
    ref, accepted = _reference_pattern_search(f, spec, form, start, moves(f.domain.hi - f.domain.lo), rounds)
    calls = []
    got = _pattern_search(f.domain, _batched_objective(f, spec, form, calls), start, moves, rounds)
    assert got[3].hex() == ref[3].hex(), where
    assert [v.hex() for v in got[0]] == [v.hex() for v in ref[0]], where
    assert [v.hex() for v in got[1]] == [v.hex() for v in ref[1]], where
    assert float(got[2]).hex() == ref[2].hex(), where
    assert len(calls) <= accepted + 1, where
    assert max(calls, default=0) <= 17 * moves(f.domain.hi - f.domain.lo)[2].shape[0], where


_CAPS = (1, 2, 3, 7, 50)


def test_batched_coordinate_search_reproduces_the_sequential_loop(families):
    for f, spec, form, seed in _search_cases(families):
        start = _scan_start(f, spec, form, seed)
        moves = _coordinate_moves
        for rounds in _CAPS:
            where = f"{f.label} {form} seed={seed} C={spec.C} rounds={rounds}"
            _assert_search_matches_the_loop(f, spec, form, start, moves, rounds, where)


def test_batched_paired_search_reproduces_the_sequential_loop(families):
    # the polish pass of falsify, from the coordinate pass's result
    for f, spec, form, seed in _search_cases(families):
        start = _scan_start(f, spec, form, seed)
        objective = _batched_objective(f, spec, form, [])
        for rounds in _CAPS:
            where = f"{f.label} {form} seed={seed} C={spec.C} rounds={rounds}"
            coord = _pattern_search(f.domain, objective, start, _coordinate_moves, rounds)
            _assert_search_matches_the_loop(f, spec, form, coord, _paired_moves, rounds, where)


def test_polish_pass_never_returns_a_shallower_witness(families):
    deeper = 0
    for f, spec, form, seed in _search_cases(families):
        start = _scan_start(f, spec, form, seed)
        objective = _batched_objective(f, spec, form, [])
        coord = _pattern_search(f.domain, objective, start, _coordinate_moves)
        polished = _pattern_search(f.domain, objective, coord, _paired_moves)
        assert polished[3] <= coord[3]
        deeper += polished[3] < coord[3]
        rep = falsify(f, spec, form=form, budget=200, seed=seed)
        if not rep.passed:
            assert rep.worst_margin == polished[3] and rep.worst_margin <= start[3]
    assert deeper  # the polish pass bites somewhere


def _neg_abs_closed_form(c):
    """Symmetric-pair depth of -|x| under the square modulus at gap 1/(2C),
    on the checker's relative scale."""
    g = 1.0 / (2.0 * c)
    return (-g / 2.0 + c * g * g / 2.0) / (1.0 + g)


@pytest.mark.parametrize("c", [10.0, 20.0, 50.0])
def test_falsify_witness_reaches_the_closed_form(c):
    f = neg_abs_1d()
    spec = ParaSpec(modulus=square_modulus(), k=[1.0], cone=orthant(1), C=c)
    for seed in (0, 7):
        rep = falsify(f, spec, form="min", budget=1000, seed=seed)
        assert rep.worst_margin <= _neg_abs_closed_form(c), f"seed={seed}"


# ---------------------------------------------------------------------------
# midpoint convexity of the shifted scalarization


def test_fact2_shift_exactly_cancels():
    f = neg_square_1d()
    rep = check_fact2(f, f.claimed, np.array([1.0]), budget=800, seed=5)
    assert rep.passed
    assert abs(rep.worst_margin) < 1e-12  # g is identically zero here


def test_fact2_detects_undersized_constant():
    f = neg_square_1d()
    bad = dataclasses.replace(f.claimed, C=None, C1=0.99)
    rep = check_fact2(f, bad, np.array([1.0]), budget=800, seed=5)
    assert not rep.passed


def test_fact2_requires_square_modulus():
    from paracone import abs_1d

    f = abs_1d()  # claimed modulus is zero
    with pytest.raises(ValueError):
        check_fact2(f, f.claimed, np.array([1.0]), budget=10, seed=0)


def test_fact2_audits_functional():
    f = neg_square_1d()
    with pytest.raises(ValueError):
        check_fact2(f, f.claimed, np.array([-1.0]), budget=10, seed=0)


# ---------------------------------------------------------------------------
# approximate convexity


def test_approx_convex_gap_regimes():
    f = neg_square_1d()
    eps = 0.1
    # within a ball of radius eps/2 the gap stays at or below eps, so the
    # linear allowance beats the quadratic defect
    assert check_approx_convex(f, [0.0], epsilon=eps, delta=eps / 2.0, budget=600, seed=6).passed
    # at radius eps the axis probes reach gaps near 2*eps and the defect wins
    rep = check_approx_convex(f, [0.0], epsilon=eps, delta=eps, budget=600, seed=6)
    assert not rep.passed
    assert abs(rep.witness.x[0] - rep.witness.y[0]) > eps


def test_approx_convex_trivial_for_convex():
    from paracone import abs_1d

    rep = check_approx_convex(abs_1d(), [0.2], epsilon=0.01, delta=0.05, budget=300, seed=7)
    assert rep.passed


# the plain two-norm of f(x) still warns of the overflow it met
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e150, 1e160, 1e200, 1e300])
def test_a_huge_valued_concave_kink_still_fails(scale):
    # above about 1.34e154 the plain two-norm of f(x) overflowed to inf, and the
    # margin scale 1 + ||f(x)|| + ||f(y)|| turned every margin into a PASS at -0.0
    f = dataclasses.replace(neg_abs_1d(), evaluator=lambda x: -scale * np.abs(x))
    assert f.codomain_norm == "two"
    spec = ParaSpec(modulus=square_modulus(), k=[1.0], cone=orthant(1), C=1.0, C1=1.0)
    for rep in (check_inequality(f, spec, budget=200, seed=0), falsify(f, spec, budget=200, seed=0)):
        assert not rep.passed and rep.worst_margin == -0.5


@pytest.mark.parametrize(
    "x0, error, message",
    [
        ([math.nan], ValueError, "point has non-finite coordinates"),
        ([0.1, 0.2], ValueError, "dimension mismatch: point has 2 coordinates, expected 1"),
        ([1.0], OutsideDomainError, "neg-square: ball center outside the open domain"),
    ],
    ids=["non-finite", "shape", "on-the-face"],
)
def test_approx_convex_checks_its_point_before_any_draw(x0, error, message, monkeypatch):
    f = neg_square_1d()
    unevaluable = dataclasses.replace(f, evaluator=lambda pts: pytest.fail("evaluated before the point was checked"))
    monkeypatch.setattr(
        paracone.checks, "_ball_pairs", lambda *args: pytest.fail("drew pairs before the point was checked")
    )
    with pytest.raises(error, match=message):
        check_approx_convex(unevaluable, x0, epsilon=0.1, delta=0.1, budget=10, seed=0)


def test_approx_convex_preconditions():
    f = neg_square_1d()
    with pytest.raises(ValueError):
        check_approx_convex(f, [0.95], epsilon=0.1, delta=0.2, budget=10, seed=0)
    with pytest.raises(ValueError):
        check_approx_convex(f, [0.0], epsilon=-0.1, delta=0.1, budget=10, seed=0)
    with pytest.raises(ValueError):
        check_approx_convex(smooth_r2_r3(), [0.0, 0.0], epsilon=0.1, delta=0.1, budget=10, seed=0)
    # a NaN delta kept no ball candidate, and a NaN epsilon read as a FAIL at a
    # NaN margin; budget 1 draws only the d + 1 probes
    for name, bad in (("delta", math.nan), ("delta", math.inf), ("epsilon", math.nan), ("epsilon", math.inf)):
        with pytest.raises(ValueError, match=name):
            check_approx_convex(f, [0.0], **{"epsilon": 0.1, "delta": 0.1, name: bad}, budget=1, seed=0)


def test_ball_pairs_are_seeded_prefix_stable_and_inside():
    scalars = [neg_square_1d()] + [
        affine_mapping(np.arange(1.0, d + 1.0)[None, :], [0.5], Box(lo=-np.ones(d), hi=np.ones(d))) for d in (2, 3)
    ]
    delta = 0.3
    for f in scalars:
        d = f.domain.dim
        for kind in ("sup", "one", "two"):
            g = dataclasses.replace(f, domain_norm=kind)
            for seed in range(3):
                x0 = 0.1 * np.random.default_rng(seed).uniform(-1.0, 1.0, d)
                big = _ball_pairs(g, x0, delta, 400, np.random.default_rng(seed))
                again = _ball_pairs(g, x0, delta, 400, np.random.default_rng(seed))
                assert all(a.tobytes() == b.tobytes() for a, b in zip(big, again))
                x, y, lam = big
                assert x.shape == y.shape == (400, d) and lam.shape == (400,)
                assert np.all(row_norms(x - x0, kind) < delta) and np.all(row_norms(y - x0, kind) < delta)
                assert np.all((lam >= 0.0) & (lam <= 1.0))
                # the d + 1 maximal-gap probes come first, each nearly 2 delta long
                gaps = row_norms(x - y, kind)
                assert np.all(lam[: d + 1] == 0.5) and np.all(gaps[: d + 1] > 2.0 * delta * (1.0 - 1e-8))
                for budget in (1, 2, d + 1, d + 2, 7, 64):
                    small = _ball_pairs(g, x0, delta, budget, np.random.default_rng(seed))
                    for a, b in zip(small, big):
                        assert a.tobytes() == b[:budget].tobytes(), (g.label, d, kind, budget, seed)


def test_ball_pairs_are_kept_rows_of_the_draw():
    # the stream: candidate rows of rng.random(( ., 2d + 1)), v then w then
    # lam, kept when both v and w lie within r_in
    f = dataclasses.replace(affine_mapping([[1.0, 2.0]], [0.5], Box(lo=-np.ones(2), hi=np.ones(2))), domain_norm="two")
    x0, delta = np.array([0.05, -0.1]), 0.3
    x, y, lam = _ball_pairs(f, x0, delta, 50, np.random.default_rng(4))
    u = np.random.default_rng(4).random((200, 5))
    v, w = -delta + 2.0 * delta * u[:, :2], -delta + 2.0 * delta * u[:, 2:4]
    r_in = delta * (1.0 - 1e-9)
    keep = np.flatnonzero((row_norms(v) <= r_in) & (row_norms(w) <= r_in))[:47]
    assert x[3:].tobytes() == (x0 + v[keep]).tobytes()
    assert y[3:].tobytes() == (x0 + w[keep]).tobytes()
    assert lam[3:].tobytes() == u[keep, 4].tobytes()


# ---------------------------------------------------------------------------
# Lipschitz sandwich


def test_lipschitz_constant_oracle():
    f = neg_square_1d()
    region = Box(lo=[-0.5], hi=[0.5])
    rep = check_vector_lipschitz(f, f.claimed, region, budget=512, seed=10)
    assert rep.passed
    big_l = rep.extras["L"]
    # |u^2 - x^2| = |u + x| * |u - x| with |u + x| < 1 on this region
    assert 0.7 <= big_l <= 1.0 + 1e-12
    assert rep.extras == {"L": big_l}


def test_lipschitz_passes_a_smooth_map_under_any_codomain_norm():
    # the order sandwich does not give the norm form ||df|| <= gamma*L*gap*||k||
    # with a sampled gamma: this smooth map breaks it in the sup norm.  The
    # order form alone does not read the codomain norm
    f = curved_cone_map(random_simplicial_cone(3, 3), seed=3)
    region = f.domain.shrink(0.04)
    reports = [
        check_vector_lipschitz(dataclasses.replace(f, codomain_norm=kind), f.claimed, region, budget=512, seed=0)
        for kind in ("sup", "one", "two")
    ]
    assert all(rep.passed for rep in reports)
    assert len({rep.extras["L"] for rep in reports}) == 1
    assert reports[0].worst_margin >= -1e-15


def test_lipschitz_rejects_a_cone_that_is_not_pointed():
    f = affine_mapping(np.array([[1.0], [2.0]]), np.zeros(2), Box(lo=[-1.0], hi=[1.0]))
    halfplane = PolyCone(2, dual_generators=[[0.0, 1.0]])
    spec = ParaSpec(cone=halfplane, k=np.array([0.0, 1.0]), modulus=zero_modulus(), C=0.0)
    with pytest.raises(ValueError, match="not pointed"):
        check_vector_lipschitz(f, spec, Box(lo=[-0.5], hi=[0.5]), budget=16, seed=0)


def test_lipschitz_region_must_stay_inside():
    f = neg_square_1d()
    with pytest.raises(ValueError):
        check_vector_lipschitz(f, f.claimed, Box(lo=[-2.0], hi=[0.5]), budget=16, seed=0)


# ---------------------------------------------------------------------------
# reports


def test_report_serialization_roundtrip():
    import json

    f = neg_square_1d()
    rep = check_inequality(f, f.claimed, budget=50, seed=11)
    payload = json.dumps(rep.to_dict())
    back = json.loads(payload)
    assert back["pass"] is True
    assert back["samples_used"] == 50
    assert "witness" in back


_REPORT_FIELDS = {
    CheckReport: dict(worst_margin=0.0, witness=None, samples_used=1, tol=1e-9),
    GateauxReport: dict(x0=np.zeros(1), defect=0.0, margins={}, tol=1e-6),
    FrechetReport: dict(
        x0=np.zeros(1), table=[], residual_margin=0.0, max_base_norm=0.0, base_radius=1.0, gateaux_defect=0.0, tol=1e-6
    ),
}


@pytest.mark.parametrize("report_type", list(_REPORT_FIELDS), ids=lambda t: t.__name__)
def test_reports_derive_their_verdict(report_type):
    assert "passed" not in inspect.signature(report_type).parameters
    fields = _REPORT_FIELDS[report_type]
    assert isinstance(report_type(**fields).passed, bool)
    with pytest.raises(TypeError):
        report_type(passed=True, **fields)


def test_check_report_verdict_is_worst_margin_at_least_minus_tol():
    def report(margin):
        return CheckReport(worst_margin=margin, witness=None, samples_used=1, tol=1e-9)

    assert report(-1e-9).passed
    assert not report(-2e-9).passed
    assert not report(float("nan")).passed
    assert report(-1e-9).to_dict()["pass"] is True
    gateaux = dict(x0=np.zeros(1), margins={}, tol=1e-6)
    assert GateauxReport(defect=1e-6, **gateaux).passed
    assert not GateauxReport(defect=2e-6, **gateaux).passed
    frechet = dict(x0=np.zeros(1), max_base_norm=0.5, base_radius=1.0, gateaux_defect=0.0, tol=1e-6)
    row = {"epsilon": 1e-2, "delta": 0.1, "max_lambda": 0.0}
    assert FrechetReport(table=[row], residual_margin=-1e-6, **frechet).passed
    assert not FrechetReport(table=[], residual_margin=0.0, **frechet).passed
    assert not FrechetReport(table=[{**row, "delta": None}], residual_margin=0.0, **frechet).passed
    assert not FrechetReport(table=[row], residual_margin=-2e-6, **frechet).passed


def test_worst_report_takes_the_first_of_tied_minima():
    calls = []

    def witness(i):
        calls.append(i)
        return f"sample {i}"

    margins = np.array([0.5, -1.0, 2.0, -1.0])
    rep = worst_report(margins, 1e-9, witness, samples_used=4, seed=3, notes="tied")
    assert calls == [1]
    assert (rep.worst_margin, rep.witness, rep.seed, rep.notes) == (-1.0, "sample 1", 3, "tied")
    assert not rep.passed
    # on tied zeros the first one's bits are kept, as Python's min over a list keeps them
    slacks = [0.0, -0.0, 1.0]
    rep = worst_report(np.array(slacks), 1e-9, lambda i: i, samples_used=3)
    assert rep.witness == min(range(3), key=slacks.__getitem__) == 0
    assert rep.worst_margin.hex() == min(slacks).hex() == "0x0.0p+0"
    assert rep.passed


# ---------------------------------------------------------------------------
# counts


def _converged_estimate(f, x0, h):
    est = directional_derivative(f, f.claimed, x0, h)
    assert est.converged
    return est


_BAD_COUNTS = {
    "lipschitz-budget-negative": (
        "budget",
        lambda f: check_vector_lipschitz(f, f.claimed, Box(lo=[-0.5], hi=[0.5]), budget=-5, seed=1),
    ),
    "lipschitz-budget-zero": (
        "budget",
        lambda f: check_vector_lipschitz(f, f.claimed, Box(lo=[-0.5], hi=[0.5]), budget=0, seed=1),
    ),
    "approx-convex-budget": ("budget", lambda f: check_approx_convex(f, [0.0], 0.1, 0.3, budget=0)),
    "upper-bound-n-samples": (
        "n_samples",
        lambda f: check_upper_bound(f, f.claimed, [0.2], [1.0], _converged_estimate(f, [0.2], [1.0]), n_samples=0),
    ),
    "upper-bound-t-samples": (
        "t_samples",
        lambda f: check_upper_bound(f, f.claimed, [0.2], [1.0], _converged_estimate(f, [0.2], [1.0]), t_samples=[]),
    ),
    "frechet-t-schedule": ("t_schedule", lambda f: frechet_test(f, f.claimed, [0.2], t_schedule=[])),
    "frechet-negative-epsilon": ("epsilons", lambda f: frechet_test(f, f.claimed, [0.2], epsilons=[-1])),
    "frechet-infinite-epsilon": ("epsilons", lambda f: frechet_test(f, f.claimed, [0.2], epsilons=[1e-3, math.inf])),
    "frechet-nan-epsilon": ("epsilons", lambda f: frechet_test(f, f.claimed, [0.2], epsilons=[math.nan])),
    "frechet-n-directions": ("n_directions", lambda f: frechet_test(f, f.claimed, [0.2], n_directions=0)),
    "gateaux-n-directions": ("n_directions", lambda f: gateaux_test(f, f.claimed, [0.2], n_directions=-4)),
    "gateaux-directions": ("directions", lambda f: gateaux_test(f, f.claimed, [0.2], directions=[])),
    "sublinear-direction-pairs": ("direction_pairs", lambda f: check_sublinear(f, f.claimed, [0.2], direction_pairs=[])),
}


@pytest.mark.parametrize("case", list(_BAD_COUNTS))
def test_library_calls_reject_counts_they_cannot_certify_from(case):
    name, call = _BAD_COUNTS[case]
    with pytest.raises(ValueError, match=name):
        call(neg_square_1d())


def _trace_then_monotone(f, tol):
    trace = build_trace(neg_square_1d(), f.claimed, [0.2], [1.0])  # an uncounted mapping builds the trace
    return check_alpha_monotone(trace, tol=tol)


def _estimate_then_upper_bound(f, tol):
    est = _converged_estimate(neg_square_1d(), [0.2], [1.0])  # an uncounted mapping makes the estimate
    return check_upper_bound(f, f.claimed, [0.2], [1.0], est, tol=tol)



_TOL_CALLS = {
    "check_inequality": lambda f, tol: check_inequality(f, f.claimed, budget=16, tol=tol),
    "scalarize_check": lambda f, tol: scalarize_check(f, f.claimed, [[1.0]], budget=16, tol=tol),
    "falsify": lambda f, tol: falsify(f, f.claimed, budget=16, tol=tol),
    "check_fact2": lambda f, tol: check_fact2(f, f.claimed, [1.0], budget=16, tol=tol),
    "check_approx_convex": lambda f, tol: check_approx_convex(f, [0.0], 0.1, 0.3, budget=16, tol=tol),
    "check_vector_lipschitz": lambda f, tol: check_vector_lipschitz(f, f.claimed, Box(lo=[-0.5], hi=[0.5]), tol=tol),
    "check_alpha_monotone": _trace_then_monotone,
    "directional_derivative": lambda f, tol: directional_derivative(f, f.claimed, [0.2], [1.0], tol=tol),
    "check_upper_bound": _estimate_then_upper_bound,
    "check_sublinear": lambda f, tol: check_sublinear(f, f.claimed, [0.2], tol=tol),
    "gateaux_test": lambda f, tol: gateaux_test(f, f.claimed, [0.2], tol=tol),
    "gateaux_scan": lambda f, tol: gateaux_scan(f, f.claimed, f.domain.shrink(0.1), n_points=2, tol=tol),
    "frechet_test": lambda f, tol: frechet_test(f, f.claimed, [0.2], tol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("name", list(_TOL_CALLS))
def test_a_malformed_tol_raises_before_any_evaluation(name, tol):
    # a tolerance that is not finite and >= 0 is an input error, never a verdict
    calls = []
    base = neg_square_1d()
    f = dataclasses.replace(base, evaluator=lambda x: calls.append(len(x)) or base.evaluator(x))
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        _TOL_CALLS[name](f, tol)
    assert calls == []


def test_every_check_that_reads_tol_is_in_the_malformed_tol_table():
    reading = {
        name
        for name in paracone.__all__
        if inspect.isfunction(fn := getattr(paracone, name))
        and fn.__module__ in ("paracone.checks", "paracone.derivative")
        and "tol" in inspect.signature(fn).parameters
    }
    assert reading == set(_TOL_CALLS)
