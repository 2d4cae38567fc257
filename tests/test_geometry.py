"""Cone kernel: points, norms, membership, duality, bases."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracone import (
    Box,
    Modulus,
    ParaSpec,
    PolyCone,
    as_point,
    base_radius,
    check_inequality,
    cone_from_generators,
    cone_from_inequalities,
    contains,
    curved_cone_map,
    dual_cone,
    dual_functional,
    leq,
    norm,
    normality_constant,
    orthant,
    random_simplicial_cone,
    strictly_positive_functional,
)
from paracone import geometry
from paracone.checks import check_fact2
from paracone.geometry import (
    cone_margins,
    cone_values,
    ensure_dual_generators,
    ensure_generators,
    generator_direction,
    matvec_rows,
    row_norms,
    row_reduce,
    unit_dual_generators,
)

from conftest import sample_in_cone

WEDGE = cone_from_generators([[1.0, 0.0], [1.0, 1.0]], name="wedge")

finite_coords = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


# ---------------------------------------------------------------------------
# points and norms


def test_as_point_roundtrip_and_readonly():
    v = as_point([1.0, 2.5, -3.0])
    assert v.shape == (3,)
    assert not v.flags.writeable


def test_as_point_rejects_bad_input():
    with pytest.raises(ValueError):
        as_point([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_point([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_point([1.0, 2.0], dim=3)
    with pytest.raises(ValueError):
        as_point([])


def test_norm_oracle_values():
    v = [3.0, -4.0]
    assert norm(v, "two") == 5.0
    assert norm(v, "one") == 7.0
    assert norm(v, "sup") == 4.0
    with pytest.raises(ValueError):
        norm(v, "three")


def test_two_norms_neither_overflow_nor_underflow():
    # the plain two-norm squares each entry, so 3 * 2^600 overflows to inf and
    # 3 * 2^-600 underflows to 0; a power-of-two scale is exact, so the norm
    # of a scaled row is the row's norm times the scale, bit for bit
    base = np.array([[3.0, -4.0], [0.6, 0.8], [1e-3, 2.0]])
    for scale in (2.0**-1000, 2.0**-600, 2.0**600, 2.0**1000):
        rows = base * scale
        want = (row_norms(base) * scale).tolist()
        assert row_norms(rows).tolist() == want == [norm(v) for v in rows], scale
    # a norm past the largest float is inf, and a zero row stays 0
    assert row_norms(np.array([[1.5e308, 1.5e308], [0.0, 0.0]])).tolist() == [np.inf, 0.0]
    # the other rows of a stack keep the bits of their plain pass
    mixed = np.vstack([base, [[1e200, 0.0], [1e-170, 1e-170]]])
    assert row_norms(mixed)[:3].tolist() == row_norms(base).tolist()


@given(finite_coords, finite_coords)
def test_norm_triangle_inequality(a, b):
    n = min(len(a), len(b))
    x = np.array(a[:n])
    y = np.array(b[:n])
    for kind in ("sup", "one", "two"):
        assert norm(x + y, kind) <= norm(x, kind) + norm(y, kind) + 1e-9 * (
            1.0 + norm(x, kind) + norm(y, kind)
        )


def _cone_rows(rng, shape, ties):
    """Seeded rows of the given shape: normal draws with about half the
    entries replaced by +-0.0, +-inf and NaN, or with ties only by +-0.0 and
    +-1.0, where the order of a min's comparisons decides the sign bit."""
    specials = np.array([0.0, -0.0, 1.0, -1.0] if ties else [0.0, -0.0, np.inf, -np.inf, np.nan])
    a = rng.normal(size=shape)
    return np.where(rng.random(shape) < 0.5, rng.choice(specials, size=shape), a)


def _sequential_fold(a, fold):
    """Every row of a folded left to right, one row at a time, by fold calls
    on one float each: (..., r) -> (...)."""
    out = []
    for row in a.reshape(-1, a.shape[-1]):
        acc = row[0]
        for v in row[1:]:
            acc = fold(acc, v)
        out.append(acc)
    return np.array(out, dtype=float).reshape(a.shape[:-1])


def _reduce_shapes(width):
    """1-D, 2-D and 3-D batches from one row to hundreds, on both sides of
    the size that splits the running fold from the column fold."""
    edge = geometry._COLUMN_ROWS * width
    return [(), (0,), (1,), (5,), (edge - 1,), (edge,), (edge + 1,), (200,), (2, 3), (3, 11), (4, 50)]


@pytest.mark.parametrize("width", range(1, 9))
def test_row_reduce_is_the_sequential_fold_bit_for_bit(width):
    # every row is its own left-to-right fold, whatever batch holds it:
    # +-0.0 ties, +-inf and NaN included, so a row's bits never depend on
    # the rows beside it
    rng = np.random.default_rng(width)
    for lead in _reduce_shapes(width):
        for trial in range(20):
            a = _cone_rows(rng, lead + (width,), ties=trial % 2 == 1)
            a = np.where(np.isnan(a) & (rng.random(a.shape) < 0.5), -np.nan, a)  # NaNs of both signs
            got = row_reduce(a)
            assert got.tobytes() == _sequential_fold(a, np.minimum).tobytes(), (lead, trial)
            assert row_reduce(a, "sup").tobytes() == _sequential_fold(np.abs(a), np.maximum).tobytes(), (lead, trial)
            assert got.shape == lead and isinstance(got, np.ndarray) == bool(lead)
            for i in range(0, a.reshape(-1, width).shape[0], 7):  # a row alone has its bits in any batch
                assert row_reduce(a.reshape(-1, width)[i]).tobytes() == got.reshape(-1)[i].tobytes()


@pytest.mark.parametrize("width", range(1, 9))
def test_row_reduce_is_numpys_reduce_where_order_cannot_matter(width):
    # without a +-0.0 tie a row's min is one value whatever order finds it,
    # and |v| has no -0.0: there the fold is numpy's reduce bit for bit (its
    # NaNs are +NaN: numpy's reduce can clear a negative NaN's sign, where
    # np.minimum keeps it)
    rng = np.random.default_rng(100 + width)
    for lead in _reduce_shapes(width):
        for trial in range(10):
            a = _cone_rows(rng, lead + (width,), ties=False)
            b = np.where(a == 0.0, 0.0, a)  # one zero, +0.0
            assert row_reduce(b).tobytes() == b.min(axis=-1).tobytes(), (lead, trial)
            want = np.abs(a).max(axis=-1, initial=0.0)
            assert row_reduce(a, "sup").tobytes() == want.tobytes(), (lead, trial)


@pytest.mark.parametrize("width", [9, 12, 16, 40])
def test_row_reduce_past_eight_entries_is_numpys_reduce(width):
    # wider rows keep numpy's reduce, whose SIMD tree can break a +-0.0 tie
    # another way than a sequential fold
    rng = np.random.default_rng(width)
    for rows in (1, 31, 200):
        for ties in (True, False):
            a = _cone_rows(rng, (rows, width), ties)
            assert row_reduce(a).tobytes() == a.min(axis=-1).tobytes()
            assert row_reduce(a, "sup").tobytes() == np.abs(a).max(axis=-1, initial=0.0).tobytes()


def test_row_reduce_of_rows_without_entries_and_of_an_unknown_kind():
    assert row_reduce(np.zeros((40, 0)), "sup").tolist() == [0.0] * 40
    assert row_norms(np.zeros((3, 0)), "sup").tolist() == [0.0] * 3
    with pytest.raises(ValueError):
        row_reduce(np.zeros((40, 0)))  # a min of no entries has no value
    with pytest.raises(ValueError, match="unknown row reduction"):
        row_reduce(np.zeros((2, 2)), "max")


# ---------------------------------------------------------------------------
# boxes


def test_box_membership_is_strict():
    box = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    assert box.contains([0.5, 0.0])
    assert not box.contains([1.0, 0.0])  # boundary excluded
    assert not box.contains([1.5, 0.0])
    with pytest.raises(ValueError):
        box.contains([0.0])


def test_box_boundary_distance():
    box = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    x = np.array([0.5, 0.0])
    assert box.boundary_distance(x, np.array([1.0, 0.0])) == pytest.approx(0.5)
    assert box.boundary_distance(x, np.array([-1.0, 0.0])) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        box.boundary_distance(np.array([2.0, 0.0]), np.array([1.0, 0.0]))


def test_box_validation():
    with pytest.raises(ValueError):
        Box(lo=[0.0], hi=[0.0])
    with pytest.raises(ValueError):
        Box(lo=[0.0, 0.0], hi=[1.0])
    with pytest.raises(ValueError):
        Box(lo=[float("inf")], hi=[1.0])


def test_box_shrink_keeps_center():
    box = Box(lo=[-1.0], hi=[3.0])
    inner = box.shrink(0.25)
    assert inner.lo[0] == pytest.approx(0.0)
    assert inner.hi[0] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# cones and membership


def test_orthant_is_standard():
    c = orthant(3)
    assert c.pointed
    assert contains(c, [1.0, 0.0, 2.0])
    assert not contains(c, [1.0, -1e-6, 0.0])


def test_generator_only_membership_uses_feasibility():
    c = cone_from_generators([[1.0, 0.0], [1.0, 1.0]])
    assert c.dual_generators is None
    assert contains(c, [2.0, 1.0])
    assert contains(c, [1.0, 1.0])
    assert not contains(c, [0.0, 1.0])
    assert not contains(c, [-1.0, 0.0])


def test_inequality_only_membership():
    c = cone_from_inequalities([[0.0, 1.0], [1.0, -1.0]])  # wedge by its supports
    assert contains(c, [2.0, 1.0])
    assert not contains(c, [0.0, 1.0], tol=1e-12)


def test_representation_cross_audit_rejects_mismatch():
    with pytest.raises(ValueError):
        PolyCone(2, generators=np.eye(2), dual_generators=np.array([[1.0, 0.0], [0.0, -1.0]]))


# cones whose given generator e_d fails one given inequality, by 0.3 and by
# 0.02: a check of sampled generator combinations misses both, since the
# other generators' positive slack hides the violation
DISAGREEING_FORMS = {
    "3d": (np.eye(3), np.vstack([np.eye(3), [1.0, 1.0, -0.3]])),
    "2d": (np.eye(2), np.vstack([np.eye(2), [1.0, -0.02]])),
}


@pytest.mark.parametrize("gens, rows", DISAGREEING_FORMS.values(), ids=DISAGREEING_FORMS.keys())
def test_every_generator_meets_every_given_inequality(gens, rows):
    dim = gens.shape[1]
    with pytest.raises(ValueError, match="generator and inequality representations disagree"):
        PolyCone(dim, generators=gens, dual_generators=rows)
    # cones given in both forms whose forms agree still build
    for seed in range(10):
        assert dual_cone(random_simplicial_cone(dim, seed=seed)).pointed and dual_cone(_pointed_cone(seed)).pointed
    assert orthant(dim).pointed and dual_cone(orthant(dim)).pointed


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-200, 1e200])
def test_the_dual_audit_reads_angles_only(scale):
    # the 2d forms at any common scale: the generator e_2 and the row
    # (1, -0.02) have a cosine near -0.02 however long either is written, so
    # the forms never name one cone, though at 1e-3 their product is -2e-8
    gens, rows = DISAGREEING_FORMS["2d"]
    with pytest.raises(ValueError, match="generator and inequality representations disagree"):
        PolyCone(2, generators=scale * gens, dual_generators=scale * rows)
    with pytest.raises(ValueError, match="not in the dual cone"):
        dual_functional(cone_from_generators(scale * gens), scale * rows[-1])
    assert dual_functional(cone_from_generators(scale * gens), scale * rows[0]).tobytes() == (scale * rows[0]).tobytes()


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("make", [cone_from_generators, cone_from_inequalities], ids=["generators", "rows"])
def test_a_row_of_any_length_names_the_same_ray(make, scale):
    # the orthant with its first row written very long or very short: a row
    # with a nonzero entry is no zero row, and its unit row is e_1
    c = make([[scale, 0.0], [0.0, 1.0]])
    assert c.pointed
    assert contains(c, [1.0, 1.0]) and not contains(c, [-1.0, 1.0])
    assert unit_dual_generators(c).tobytes() == unit_dual_generators(make(np.eye(2))).tobytes()


def test_contains_agrees_with_the_unit_row_margins():
    # a raw row of length 1e6 scales a -1e-12 margin to -1e-6, far outside tol
    cone = cone_from_inequalities([[1e6, 0.0], [0.0, 1.0]])
    v = np.array([-1e-12, 1.0])
    assert cone_margins(cone, v) == -1e-12
    assert contains(cone, v) and leq(cone, np.zeros(2), v)
    assert not contains(cone, np.array([-2e-9, 1.0]))


def test_contains_validates_input():
    c = orthant(2)
    with pytest.raises(ValueError):
        contains(c, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        contains(c, [1.0, float("nan")])


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9], ids=["nan", "inf", "negative"])
def test_membership_and_order_refuse_a_malformed_tol(tol):
    # a NaN tol read [1, 1] as outside the orthant and an infinite one read
    # [-5, 1] as inside: membership keeps the one tol rule of the checks
    c = orthant(2)
    for call in (
        lambda: contains(c, [1.0, 1.0], tol=tol),
        lambda: contains(c, [-5.0, 1.0], tol=tol),
        lambda: leq(c, [0.0, 0.0], [1.0, 1.0], tol=tol),
        lambda: leq(c, [5.0, 0.0], [0.0, 1.0], tol=tol),
    ):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            call()
    assert contains(c, [1.0, 1.0], tol=0.0) and not contains(c, [-5.0, 1.0], tol=1.0)


def test_trivial_cone_is_read_through_its_rows():
    # {0} has no generators and the supporting rows +-e_i: membership bounds
    # every coordinate by tol, and the dual is the whole space
    zero = PolyCone(2, generators=np.zeros((0, 2)))
    assert contains(zero, [1e-9, -1e-9])
    assert not contains(zero, [2e-9, 0.0])
    assert dual_functional(zero, [3.0, -4.0]) @ [1.0, 1.0] == -1.0


THIN_WEDGE = cone_from_generators([[1.0, 0.0], [1.0, 1e-3]], name="thin wedge")
# the wedge between the rays at angles 0 and 1e-5, by its supports
THIN_INEQUALITY_WEDGE = cone_from_inequalities([[0.0, 1.0], [np.sin(1e-5), -np.cos(1e-5)]])


def test_representation_agreement_on_random_points():
    """Both membership routes answer identically on sampled points, and on
    points just outside the apex, where a distance to the cone and the unit
    row margins part: -1e-7 along the thin wedge's axis is 1e-7 from the
    wedge but has margin -1e-10, inside tol."""
    rng = np.random.default_rng(4)
    for cone in (orthant(3), random_simplicial_cone(3, seed=5), THIN_WEDGE):
        gens_only = cone_from_generators(ensure_generators(cone).copy())
        duals_only = cone_from_inequalities(ensure_dual_generators(cone).copy())
        d = cone.dim
        apex = [-1e-7 * generator_direction(cone), -1e-10 * generator_direction(cone)]
        apex += list(1e-9 * rng.normal(size=(100, d))) + list(-1e-7 * ensure_generators(cone))
        pts = list(rng.normal(size=(500, d))) + list(sample_in_cone(cone, 500, seed=6)) + apex
        for v in pts:
            a = contains(gens_only, v)
            b = contains(duals_only, v)
            assert a == b == (cone_margins(duals_only, v) >= -1e-9), v
    assert contains(THIN_WEDGE, [-1e-7, 0.0])


def test_pointedness_classification():
    assert orthant(4).pointed
    assert WEDGE.pointed
    halfplane = cone_from_generators([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert not halfplane.pointed
    halfspace = cone_from_inequalities([[1.0, 0.0]])
    assert not halfspace.pointed


def _lp_pointed(gens):
    """The pointedness LP that once decided generator-only cones, frozen as
    the oracle."""
    from scipy.optimize import linprog

    res = linprog(
        np.zeros(gens.shape[1]),
        A_ub=-gens,
        b_ub=-np.ones(gens.shape[0]),
        bounds=[(None, None)] * gens.shape[1],
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return res.status == 0


def _counting_linprog(monkeypatch):
    import scipy.optimize

    calls = []
    solve = scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: calls.append(1) or solve(*a, **k))
    return calls


def test_pointedness_certificate_agrees_with_the_lp():
    rng = np.random.default_rng(41)
    decided = {True: 0, False: 0}
    for dim in (1, 2, 3, 4):
        for n_gens in (1, 2, dim + 1, dim + 3):
            for _ in range(12):
                gens = rng.normal(size=(n_gens, dim))
                got = cone_from_generators(gens).pointed
                decided[got] += 1
                assert got == _lp_pointed(gens), gens
    assert sum(decided.values()) == 192
    assert min(decided.values()) >= 10, decided


def test_pointedness_on_lines_and_lopsided_rays():
    cases = {
        "line": ([[1.0, 0.0], [-1.0, 0.0]], False),
        "half-plane": ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], False),
        # pointed, but three rays near (1, 0) pull the unit sum off the fourth
        "lopsided": ([[1.0, 0.0], [0.99, 0.1], [0.98, 0.2], [-1.0, 0.01]], True),
    }
    for name, (gens, pointed) in cases.items():
        assert cone_from_generators(gens).pointed is pointed, name
        assert _lp_pointed(np.array(gens)) is pointed, name
    # nearly a line: the LP, exact on these floats, calls it pointed, but its
    # two supporting rays lie 3e-9 rad apart and merge into (0, 1), so
    # membership, like pointedness, reads the line through (1, 0)
    nearly = [[1.0, 0.0], [-1.0, 3e-9]]
    assert _lp_pointed(np.array(nearly))
    cone = cone_from_generators(nearly)
    assert not cone.pointed
    assert contains(cone, [1.0, 0.0]) and contains(cone, [-1.0, 0.0])


def test_pointedness_agrees_with_membership_on_thin_wedges():
    # the wedge of (1, 0) and (-cos t, sin t) holds no line, but below the
    # merge angle of _polar_rays (about 1.4e-6 rad) its two supporting rays
    # are one, and membership accepts both (1, 0) and (-1, 0)
    e1 = np.array([1.0, 0.0])
    verdicts = set()
    for theta in (1e-2, 1e-4, 1e-6, 1e-7, 1e-9):
        cone = cone_from_generators([e1, [-np.cos(theta), np.sin(theta)]])
        assert cone.pointed == (not (contains(cone, e1) and contains(cone, -e1))), theta
        verdicts.add(cone.pointed)
    assert verdicts == {True, False}


def _pairwise_merge(rays):
    """The merge _polar_rays ran before it had a helper: each row compared
    with every kept one, dropped at a cosine above 1 - 1e-12."""
    kept = []
    for row in rays:
        if not any(row @ k > 1.0 - 1e-12 for k in kept):
            kept.append(row)
    return np.array(kept).reshape(-1, rays.shape[1])


def test_distinct_rays_is_the_pairwise_merge():
    rng = np.random.default_rng(16)
    merged = kept_apart = 0
    for d in (1, 2, 3, 5, 16, 64, 300):
        base = geometry.unit_rows(rng.normal(size=(12, d)))
        # copies pushed off by 1e-7 to 3e-6: the merge distance sqrt(2e-12)
        # is about 1.41e-6, so some copies merge and some stay apart
        push = rng.normal(size=(24, d)) * (np.geomspace(1e-7, 3e-6, 24) / np.sqrt(d))[:, None]
        rays = geometry.unit_rows(np.vstack([base, base[rng.integers(0, 12, 24)] + push]))
        rays = rays[rng.permutation(rays.shape[0])]
        got, want = geometry._distinct_rays(rays), _pairwise_merge(rays)
        assert got.tobytes() == want.tobytes(), d
        merged += rays.shape[0] - got.shape[0]
        kept_apart += got.shape[0] - 12
    assert merged and kept_apart
    # about 1,000 rows in d = 3: exact repeats, pushed copies and chains of
    # 1e-6 rad links, so the cosine table decides hundreds of merges
    base = geometry.unit_rows(rng.normal(size=(300, 3)))
    repeats = base[rng.integers(0, 300, 300)]
    pushed = base[rng.integers(0, 300, 200)] + rng.normal(size=(200, 3)) * np.geomspace(1e-7, 3e-6, 200)[:, None] / 2.0
    starts = base[rng.integers(0, 300, 50)]
    across = geometry.unit_rows(np.cross(starts, rng.normal(size=(50, 3))))
    links = np.arange(1.0, 5.0)[:, None, None] * 1e-6
    chains = (np.cos(links) * starts + np.sin(links) * across).reshape(-1, 3)
    rays = geometry.unit_rows(np.vstack([base, repeats, pushed, chains]))
    rays = rays[rng.permutation(rays.shape[0])]
    got = geometry._distinct_rays(rays)
    assert got.tobytes() == _pairwise_merge(rays).tobytes()
    assert rays.shape[0] - got.shape[0] >= 400
    # a chain 1e-6 rad a link: the middle row repeats the first, and the
    # last repeats only the dropped middle one, so it is kept
    phi = np.array([0.0, 1e-6, 2e-6])
    chain = np.column_stack([np.cos(phi), np.sin(phi)])
    assert geometry._distinct_rays(chain).tobytes() == chain[[0, 2]].tobytes()
    # rows that repeat nothing keep their order and bits, given or enumerated
    rows = geometry.unit_rows(rng.normal(size=(7, 4)))
    assert unit_dual_generators(cone_from_inequalities(rows)).tobytes() == rows.tobytes()
    assert unit_dual_generators(orthant(300)).tobytes() == np.eye(300).tobytes()


def test_a_repeated_row_is_one_ray_in_either_form():
    # given rows merge by the rule the enumeration uses: the first is kept
    theta = 1e-7
    rows = [[0.0, 1.0], [np.sin(theta), np.cos(theta)]]
    by_rows = cone_from_inequalities(rows)
    assert unit_dual_generators(by_rows).tobytes() == np.array([rows[0]]).tobytes()
    assert not by_rows.pointed and contains(by_rows, [-1.0, 0.0])
    assert unit_dual_generators(cone_from_inequalities([[2.0], [3.0]])).tobytes() == np.ones((1, 1)).tobytes()


def test_pointedness_holds_at_any_scale():
    # the rank of the unit supporting rows sees neither the generators' scale
    # nor the length of a given row, which contains does not see either
    for scale in (1e-12, 1e-10, 1.0, 1e10):
        assert cone_from_generators(scale * np.array([[1.0, 1.0], [1.0, 2.0]])).pointed
    short_row = cone_from_inequalities([[1.0, 0.0], [0.0, 1e-20]])
    assert short_row.pointed
    assert not contains(short_row, [0.0, -1.0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PolyCone(2, generators=[[1.0, np.nan], [0.0, 1.0]]), "generators contains non-finite entries"),
        (lambda: PolyCone(2, dual_generators=[[1.0, 0.0], [0.0, 0.0]]), "dual_generators contains a zero row"),
        (lambda: PolyCone(0, generators=[[1.0]]), "cone dimension must be a positive integer"),
        (lambda: PolyCone(2), "cone needs generators, dual generators, or both"),
    ],
    ids=["non-finite", "zero-row", "dimension-zero", "no-form"],
)
def test_malformed_cone_input_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# ---------------------------------------------------------------------------
# duality


def _ray_set(rows):
    rows = np.asarray(rows, dtype=float)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _same_ray_sets(a, b, tol=1e-9):
    a, b = _ray_set(a), _ray_set(b)
    if a.shape[0] != b.shape[0]:
        return False
    return all(min(float(np.linalg.norm(r - s)) for s in b) <= tol for r in a)


def _polar_rays_by_active_sets(mat, feas_tol=1e-9):
    """The active-set enumeration geometry._polar_rays ran before double
    description, frozen as its oracle: one null vector per independent
    (rank - 1)-subset of the unit rows, kept when feasible."""
    g, d = mat.shape
    scaled = geometry.unit_rows(mat)
    _, s, vt = np.linalg.svd(scaled, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
    rays = []

    def _push(candidate):
        n = np.linalg.norm(candidate)
        if n >= 1e-12 and all((candidate / n) @ kept <= 1.0 - 1e-12 for kept in rays):
            rays.append(candidate / n)

    if rank > 0:
        q = vt[:rank].T
        a = scaled @ q
        if rank == 1:
            for sign in (1.0, -1.0):
                if np.all(a[:, 0] * sign >= -feas_tol):
                    _push(q[:, 0] * sign)
        else:
            for subset in itertools.combinations(range(g), rank - 1):
                _, sb, vbt = np.linalg.svd(a[list(subset)], full_matrices=True)
                if sb.size < rank - 1 or sb[rank - 2] < 1e-10:
                    continue
                for sign in (1.0, -1.0):
                    if np.all(a @ (vbt[-1] * sign) >= -feas_tol):
                        _push(q @ (vbt[-1] * sign))
    for row in vt[rank:]:
        _push(row)
        _push(-row)
    if not rays:
        return np.zeros((0, d))
    return np.array(sorted(rays, key=lambda r: tuple(np.round(r, 9))))


def _seeded_row_set(seed):
    """Random, positive, integer, repeated or rank-deficient rows in R^2 to R^4."""
    rng = np.random.default_rng([48, seed])
    d, g = int(rng.integers(2, 5)), int(rng.integers(1, 9))
    kind = seed % 5
    if kind == 0:
        return rng.normal(size=(g, d))
    if kind == 1:
        return rng.uniform(0.05, 1.0, size=(g, d))
    if kind == 2:
        rows = rng.integers(-2, 3, size=(g, d)).astype(float)
        rows = rows[np.any(rows != 0.0, axis=1)]
        return rows if rows.shape[0] else np.eye(d)
    if kind == 3:
        base = rng.normal(size=(max(1, g // 2), d))
        return base[rng.integers(0, base.shape[0], size=g)] * rng.uniform(0.5, 2.0, size=(g, 1))
    k = int(rng.integers(1, d))
    return rng.normal(size=(g, k)) @ rng.normal(size=(k, d))


def test_double_description_matches_the_active_set_oracle():
    row_sets = [_seeded_row_set(seed) for seed in range(1000)]
    row_sets += [THIN_WEDGE.generators, THIN_INEQUALITY_WEDGE.dual_generators, np.array([[1.0, 0.0], [-1.0, 3e-9]])]
    for rows in row_sets:
        got, want = geometry._polar_rays(rows), _polar_rays_by_active_sets(rows)
        assert _same_ray_sets(got, want), rows


def test_wedge_dual_oracle():
    dual = dual_cone(WEDGE)
    expected = np.array([[0.0, 1.0], [1.0, -1.0]])
    assert _same_ray_sets(dual.generators, expected)


def test_dual_of_orthant_is_orthant():
    d = dual_cone(orthant(3))
    assert _same_ray_sets(d.generators, np.eye(3))


def test_bipolar_identity_rays():
    rng = np.random.default_rng(47)
    cones = [
        cone_from_generators(np.eye(3)),
        cone_from_generators([[1.0, 0.0], [1.0, 1.0]]),
        cone_from_generators(ensure_generators(random_simplicial_cone(2, seed=9)).copy()),
        cone_from_generators(ensure_generators(random_simplicial_cone(3, seed=10)).copy()),
        cone_from_generators(ensure_generators(random_simplicial_cone(4, seed=11)).copy()),
        cone_from_generators(rng.uniform(0.1, 1.0, size=(7, 5))),
        cone_from_generators(rng.uniform(0.1, 1.0, size=(8, 6))),
    ]
    for c in cones:
        # forget the cross representation so the second dual re-enumerates
        d1 = cone_from_generators(ensure_generators(dual_cone(c)).copy())
        dd = dual_cone(d1)
        assert _same_ray_sets(ensure_generators(dd), ensure_generators(c))


def test_bipolar_identity_sampled_membership():
    for c in (orthant(3), random_simplicial_cone(3, seed=12)):
        gens_only = cone_from_generators(ensure_generators(c).copy())
        dd = dual_cone(cone_from_generators(ensure_generators(dual_cone(gens_only)).copy()))
        rng = np.random.default_rng(13)
        pts = list(rng.normal(size=(500, 3))) + list(sample_in_cone(c, 500, seed=14))
        for v in pts:
            assert contains(c, v) == contains(dd, v)


def test_dual_cone_requires_generators():
    # the trivial cone {0}, by its inequalities, has no nonzero generator
    with pytest.raises(ValueError, match="without nonzero generators"):
        dual_cone(cone_from_inequalities(np.vstack([np.eye(2), -np.eye(2)])))
    # any other cone given only by inequalities swaps its enumerated generators in
    dual = dual_cone(cone_from_inequalities([[0.0, 1.0], [1.0, -1.0]]))
    assert _same_ray_sets(dual.generators, [[0.0, 1.0], [1.0, -1.0]])
    assert _same_ray_sets(dual.dual_generators, WEDGE.generators)


def _cones_past_dimension_four():
    rng = np.random.default_rng(45)
    for dim in range(5, 9):
        yield cone_from_generators(rng.uniform(0.1, 1.0, size=(dim + 1, dim)), name=f"generators{dim}")
        rows = np.vstack([np.eye(dim), rng.uniform(-0.3, 1.0, size=(2, dim))])
        yield cone_from_inequalities(rows, name=f"inequalities{dim}")


def test_ray_enumeration_dimension_limit():
    # every reader of a form the cone was not given enumerates it, in any dimension
    for c in _cones_past_dimension_four():
        k = generator_direction(c)
        ParaSpec(Modulus("zero"), k, c, C=1.0)  # its check that k is a member reads the enumerated rows
        assert contains(c, k) and not contains(c, -k), c
        assert leq(c, -k, k) and not leq(c, k, -k), c
        assert np.all(cone_values(c, k) > 0), c
        e = strictly_positive_functional(c)
        assert dual_functional(c, e) @ k > 0.0
        with pytest.raises(ValueError, match="not in the dual cone"):
            dual_functional(c, -e)
        h = curved_cone_map(c, seed=3)
        assert check_inequality(h, h.claimed, budget=200, seed=1).passed, c
        assert check_fact2(h, h.claimed, e, budget=200, seed=1).passed, c


def test_ray_enumeration_past_the_bound_raises_quickly():
    # the cone over the cross-polytope of R^11 has 22 rays and 2**11 facets
    dim = 12
    rows = np.zeros((2 * (dim - 1), dim))
    rows[:, -1] = 1.0
    rows[np.arange(2 * (dim - 1)), np.repeat(np.arange(dim - 1), 2)] = np.tile([1.0, -1.0], dim - 1)
    assert 2 ** (dim - 1) > geometry._MAX_RAYS
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"more than {geometry._MAX_RAYS} rays"):
        cone_from_generators(rows)
    assert time.perf_counter() - start < 1.0


def test_random_simplicial_duality_is_exact():
    c = random_simplicial_cone(4, seed=15)
    prod = c.generators @ c.dual_generators.T
    assert np.allclose(prod, np.eye(4), atol=1e-9)


# ---------------------------------------------------------------------------
# order relation


def test_leq_matches_componentwise_on_orthant():
    c = orthant(3)
    x = np.array([0.1, -0.5, 2.0])
    assert leq(c, x, x + np.array([0.0, 1.0, 0.5]))
    assert not leq(c, x, x + np.array([0.0, -1e-3, 0.5]))


def test_order_axioms_on_samples():
    for cone in (orthant(3), WEDGE, random_simplicial_cone(3, seed=16)):
        rng = np.random.default_rng(17)
        us = sample_in_cone(cone, 60, seed=18)
        vs = sample_in_cone(cone, 60, seed=19)
        for u, v in zip(us, vs):
            x = rng.normal(size=cone.dim)
            assert leq(cone, x, x)  # reflexive
            assert leq(cone, x, x + u)
            assert leq(cone, x + u, x + u + v)
            assert leq(cone, x, x + u + v)  # transitive closure of the chain


def test_antisymmetry_on_pointed_cones():
    """For a pointed cone a nonzero member never has its negation inside."""
    for cone in (orthant(3), WEDGE, random_simplicial_cone(3, seed=20)):
        gens = ensure_generators(cone)
        rng = np.random.default_rng(21)
        for _ in range(40):
            combo = rng.uniform(0.1, 1.0, size=gens.shape[0])
            u = combo @ gens
            assert contains(cone, u)
            assert not contains(cone, -u)


def test_order_refuses_points_of_different_shapes():
    with pytest.raises(ValueError, match="order test on points of different shapes"):
        leq(orthant(2), [0.0, 0.0], [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# normality, functionals, bases


def test_orthant_normality_exactly_one():
    for dim in (2, 3):
        for kind in ("sup", "one", "two"):
            gamma = normality_constant(orthant(dim), kind, budget=1000, seed=22)
            assert abs(gamma - 1.0) <= 1e-12


def test_normality_at_least_one_and_monotone_in_budget():
    cone = cone_from_generators([[1.0, 0.0], [-1.0, 1.0]])
    small = normality_constant(cone, "one", budget=100, seed=23)
    large = normality_constant(cone, "one", budget=4000, seed=23)
    assert small >= 1.0
    assert large >= small  # same seed, sequential draws
    # the supremum for this cone under the one norm is 2: flat pairs x=(b,-b)+...
    assert 1.2 <= large <= 2.0 + 1e-9


def test_normality_constant_rejects_a_cone_that_is_not_pointed():
    # each holds a line, along which the ratio ||x|| / ||y|| is unbounded
    whole = PolyCone(2, dual_generators=np.zeros((0, 2)), name="R2")
    halfplane = cone_from_generators([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    nearly_a_line = cone_from_generators([[1.0, 0.0], [-1.0, 3e-9]])
    for cone in (whole, halfplane, cone_from_inequalities([[1.0, 0.0]]), nearly_a_line):
        assert not cone.pointed
        with pytest.raises(ValueError, match="not pointed"):
            normality_constant(cone, "two", budget=16, seed=0)


def _reference_normality(cone, norm_kind, budget, seed):
    """The per-pair loop the one-draw estimate replaced, kept as the oracle."""
    gens = ensure_generators(cone)
    best = 1.0
    rng = np.random.default_rng(seed)
    g = gens.shape[0]
    for _ in range(budget - 1):
        cx = rng.uniform(0.0, 1.0, size=g) * (2.0 ** rng.uniform(-4.0, 4.0))
        cw = rng.uniform(0.0, 1.0, size=g) * (2.0 ** rng.uniform(-4.0, 4.0))
        x = cx @ gens
        y = x + cw @ gens
        ny = norm(y, norm_kind)
        if ny <= 0.0:
            continue
        ratio = norm(x, norm_kind) / ny
        if ratio > best:
            best = ratio
    return float(best)


def _normality_cones(dim):
    cones = [orthant(dim), random_simplicial_cone(dim, seed=dim)]
    if dim > 1:  # more generators than dimensions
        cones.append(cone_from_generators(np.vstack([np.eye(dim), np.r_[1.0, np.full(dim - 1, -0.5)]])))
    return cones


def test_one_draw_normality_reproduces_per_pair_stream():
    above_one = 0
    for dim in (1, 2, 3, 4):
        for cone in _normality_cones(dim):
            for kind in ("sup", "one", "two"):
                for budget in (1, 2, 7, 256):
                    for seed in range(4):
                        got = normality_constant(cone, kind, budget=budget, seed=seed)
                        want = _reference_normality(cone, kind, budget, seed)
                        assert got.hex() == want.hex(), (cone.name, kind, budget, seed)
                        above_one += want > 1.0
    assert above_one >= 50  # the comparison is not all floors


def _sampled_normality(cone, norm_kind, budget, seed):
    """The one-draw sampled estimate normality_constant makes, frozen as the
    oracle for it."""
    gens = ensure_generators(cone)
    g = gens.shape[0]
    u = np.random.default_rng(seed).random((budget - 1, 2 * g + 2))
    cx = u[:, :g] * np.float_power(2.0, -4.0 + 8.0 * u[:, g : g + 1])
    cw = u[:, g + 1 : -1] * np.float_power(2.0, -4.0 + 8.0 * u[:, -1:])
    x = matvec_rows(gens.T, cx)
    y = x + matvec_rows(gens.T, cw)
    ny = row_norms(y, norm_kind)
    return float(np.max(row_norms(x, norm_kind)[ny > 0.0] / ny[ny > 0.0], initial=1.0))


def test_orthant_normality_is_the_sampled_estimate():
    for dim in range(1, 9):
        cone = orthant(dim)
        for kind in ("sup", "one", "two"):
            for budget in (1, 2, 10, 100, 1000):
                for seed in range(6):
                    got = normality_constant(cone, kind, budget=budget, seed=seed)
                    # the true constant, which the estimate reaches without a branch for the orthant
                    assert got == 1.0
                    assert got.hex() == _sampled_normality(cone, kind, budget, seed).hex(), (dim, kind, budget, seed)


def test_orthant_normality_still_checks_its_arguments():
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget"):
            normality_constant(orthant(2), "two", budget=budget)
    with pytest.raises(ValueError, match="unknown norm"):
        normality_constant(orthant(2), "max", budget=10)


def test_normality_nondecreasing_at_every_budget():
    rising = 0
    for dim in (2, 3):
        for cone in _normality_cones(dim)[1:]:
            for kind in ("sup", "one", "two"):
                gammas = [normality_constant(cone, kind, budget=b, seed=31) for b in range(1, 301)]
                assert gammas[0] == 1.0
                assert all(a <= b for a, b in zip(gammas, gammas[1:])), (cone.name, kind)
                rising += gammas[-1] > 1.0
    assert rising >= 6


def test_strictly_positive_functional_orthant_is_ones():
    e = strictly_positive_functional(orthant(3))
    assert np.array_equal(e, np.ones(3))
    assert e @ [2.0, 0.0, 1.0] == 3.0


def _lp_positive_functional(cone):
    """The l1-minimal LP strictly_positive_functional once solved, frozen as
    the oracle for its answer on the orthant."""
    from scipy.optimize import linprog

    gens = ensure_generators(cone)
    g, d = gens.shape
    a_ub = np.block([[-gens, np.zeros((g, d))], [np.eye(d), -np.eye(d)], [-np.eye(d), -np.eye(d)]])
    b_ub = np.concatenate([-np.ones(g), np.zeros(2 * d)])
    res = linprog(
        np.concatenate([np.zeros(d), np.ones(d)]),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * d + [(0, None)] * d,
        method="highs",
    )
    assert res.success
    return res.x[:d]


def test_orthant_positive_functional_is_the_lp_answer(monkeypatch):
    calls = _counting_linprog(monkeypatch)
    for dim in range(1, 9):
        got = strictly_positive_functional(orthant(dim))
        want = _lp_positive_functional(orthant(dim))
        assert [c.hex() for c in got] == [c.hex() for c in want], dim
    assert len(calls) == 8  # the oracle's solves only


def test_strictly_positive_functional_rejects_non_pointed():
    halfplane = cone_from_generators([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    nearly_a_line = cone_from_generators([[1.0, 0.0], [-1.0, 3e-9]])
    for cone in (halfplane, nearly_a_line):
        with pytest.raises(ValueError, match="not pointed"):
            strictly_positive_functional(cone)


LOPSIDED = [[1.0, 0.0], [0.99, 0.1], [0.98, 0.2], [-1.0, 0.01]]


def test_lps_answer_at_every_scale():
    # HiGHS drops matrix entries below 1e-9; the pointedness LP sees the rays
    # scaled by a power of two into [1, 2), so a cone of tiny or huge rays is
    # pointed, and the functional, read off the unit rows, is that of its
    # unit-scale copy, scaled back
    for gens in ([[1.0, 1.0], [1.0, 2.0]], LOPSIDED):
        want = strictly_positive_functional(cone_from_generators(gens))
        for scale in (1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e10):
            cone = cone_from_generators(scale * np.array(gens))
            assert cone.pointed, (gens, scale)
            got = strictly_positive_functional(cone)
            assert np.allclose(scale * got, want, rtol=1e-9, atol=0.0), (gens, scale, got)


def _pointed_cone(seed):
    """A seeded pointed cone of dimension 2 to 8: rotated positive rays, a
    random simplicial cone, or rotated positive inequality rows."""
    rng = np.random.default_rng([46, seed])
    dim = 2 + seed % 7
    rotation = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    rows = rng.uniform(0.05, 1.0, size=(dim + seed % 4, dim)) @ rotation
    if seed % 3 == 1:
        return random_simplicial_cone(dim, seed=seed)
    return cone_from_generators(rows) if seed % 3 == 0 else cone_from_inequalities(rows)


def test_positive_functional_is_one_at_its_lowest_generator():
    for seed in range(300):
        cone = _pointed_cone(seed)
        assert cone.pointed, seed
        coeffs = strictly_positive_functional(cone)
        # at least 1 on every generator and 1 on the lowest, up to rounding
        assert np.min(ensure_generators(cone) @ coeffs) == pytest.approx(1.0, rel=1e-12, abs=0.0), seed
        dual_functional(cone, coeffs)  # the audit passes
    for dim in range(1, 9):
        assert strictly_positive_functional(orthant(dim)).tobytes() == np.ones(dim).tobytes()


def test_dual_functional_audit():
    with pytest.raises(ValueError):
        dual_functional(orthant(2), np.array([1.0, -1.0]))
    # negative on the enumerated ray at angle 1e-5, positive on (1, 0)
    with pytest.raises(ValueError):
        dual_functional(THIN_INEQUALITY_WEDGE, [0.4e-5, -1.0])
    ok = dual_functional(orthant(2), np.array([2.0, 0.0]))
    assert ok @ [1.5, 7.0] == 3.0


def test_base_radius_oracles():
    # simplex base of the orthant: vertices are the basis rays
    e3 = strictly_positive_functional(orthant(3))
    assert abs(base_radius(orthant(3), e3, norm_kind="one") - 1.0) <= 1e-12
    assert abs(base_radius(orthant(3), e3, norm_kind="two") - 1.0) <= 1e-12
    # wedge sliced by the first coordinate: vertices (1,0) and (1,1)
    assert base_radius(WEDGE, np.array([1.0, 0.0]), norm_kind="two") == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_base_rejects_functional_vanishing_on_a_ray():
    with pytest.raises(ValueError):
        base_radius(WEDGE, np.array([0.0, 1.0]))


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e-200, 1e200])
def test_base_radius_reads_angles_only(scale):
    # the orthant with its first generator written at any length: (1, 1)
    # slices the same base, whose vertices are e_1 and e_2
    cone = cone_from_generators([[scale, 0.0], [0.0, 1.0]])
    assert base_radius(cone, [1.0, 1.0]) == 1.0
    # zero on a generator, negative on one, or the zero functional: refused at every scale
    for coeffs in ([0.0, 1.0], [1.0, 0.0], [-1.0, 1.0], [1.0, -1e-3], [0.0, 0.0]):
        with pytest.raises(ValueError, match="not strictly positive"):
            base_radius(cone, coeffs)


@pytest.mark.parametrize("scale", [1e-320, 1e-312, 1.0, 1e300])
def test_base_radius_of_a_subnormal_or_huge_generator(scale):
    # (1e-10, 1) slices the orthant at the vertices (1e10, 0) and (0, 1), at
    # whatever length its first generator is written: at 1e-320 the plain
    # product g @ c underflows to 0, at 1e-312 to a subnormal that lost
    # bits, and that vertex is taken again on the unit generator, with no
    # warning of a division (a RuntimeWarning fails a test; the plain pass
    # of a length may still warn of an overflow, as in row_norms)
    cone = cone_from_generators([[scale, 0.0], [0.0, 1.0]])
    unit = cone_from_generators([[1.0, 0.0], [0.0, 1.0]])
    for kind in ("two", "sup", "one"):
        radius = base_radius(cone, [1e-10, 1.0], norm_kind=kind)
        assert radius == pytest.approx(1e10, rel=1e-15)
        if scale != 1e300:  # 1e300 / fl(1e300 * fl(1e-10)) may round another way
            assert radius == base_radius(unit, [1e-10, 1.0], norm_kind=kind)
    # every finite vertex keeps the bits of the plain quotient
    assert base_radius(cone, [1.0, 1.0]) == 1.0


def test_base_points_respect_level_and_radius():
    for cone in (orthant(3), WEDGE, random_simplicial_cone(3, seed=24)):
        e = strictly_positive_functional(cone)
        radius = base_radius(cone, e, norm_kind="two")
        for u in sample_in_cone(cone, 200, seed=25):
            lam = e @ u
            if lam <= 1e-9:
                continue
            pt = np.asarray(u, dtype=float) / lam
            assert abs(e @ pt - 1.0) <= 1e-9
            assert norm(pt, "two") <= radius + 1e-12


def test_generator_direction_is_the_unit_generator_sum():
    k0 = generator_direction(WEDGE)
    assert k0.tobytes() == (np.array([2.0, 1.0]) / np.sqrt(5.0)).tobytes()
    assert np.all(cone_values(WEDGE, k0) > 0.0)  # interior, as the wedge is full-dimensional
    with pytest.raises(ValueError, match="sum to zero"):
        generator_direction(cone_from_generators([[1.0, 0.0], [-1.0, 0.0]]))


def test_unit_dual_generators_are_normalized():
    rows = unit_dual_generators(random_simplicial_cone(3, seed=26))
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_simplicial_cone_generators_are_members(seed):
    cone = random_simplicial_cone(3, seed=seed)
    for g in cone.generators:
        assert contains(cone, g, tol=1e-9)


@pytest.mark.parametrize(
    "call, message",
    [
        (normality_constant, "normality constant of the trivial cone is undefined"),
        (lambda c: base_radius(c, [1.0, 1.0]), "trivial cone has no base"),
        (strictly_positive_functional, "trivial cone has no strictly positive functional at level one"),
    ],
    ids=["normality-constant", "base-radius", "positive-functional"],
)
def test_the_trivial_cone_has_no_base(call, message):
    # {0} is pointed, by its rows +-e_i, but has no generator to scale
    zero = PolyCone(2, generators=np.zeros((0, 2)))
    assert zero.pointed
    with pytest.raises(ValueError, match=message):
        call(zero)


# ---------------------------------------------------------------------------
# the cone-margin kernel


KERNEL_CONES = {
    "orthant": orthant(3),
    "simplicial": random_simplicial_cone(3, seed=4),
    "generator-only": cone_from_generators(np.random.default_rng(9).uniform(0.1, 1.0, size=(4, 3))),
}


@pytest.mark.parametrize("n", [1, 7, 1000])
@pytest.mark.parametrize("kind", sorted(KERNEL_CONES))
def test_cone_values_of_a_row_do_not_depend_on_its_batch(kind, n):
    cone = KERNEL_CONES[kind]
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    values = cone_values(cone, a)
    assert values.shape == (n, unit_dual_generators(cone).shape[0])
    for i in range(n):
        assert values[i].tobytes() == cone_values(cone, a[i]).tobytes()
    assert cone_margins(cone, a).tobytes() == np.min(values, axis=1).tobytes()
    # (2, n, 3) input: each (n, 3) slice has the values it has alone
    stacked = cone_values(cone, np.stack([a, -a]))
    assert stacked[0].tobytes() == values.tobytes()
    assert stacked[1].tobytes() == cone_values(cone, -a).tobytes()
    assert cone_margins(cone, np.stack([a, -a])).shape == (2, n)


def test_cone_values_on_the_orthant_are_the_coordinates():
    a = np.random.default_rng(0).normal(size=(50, 3))
    assert np.array_equal(cone_values(orthant(3), a), a)


def test_whole_space_cone_has_zero_margins():
    whole = PolyCone(2, dual_generators=np.zeros((0, 2)), name="R2")
    a = np.random.default_rng(0).normal(size=(5, 2))
    assert cone_values(whole, a).shape == (5, 0)
    assert np.array_equal(cone_margins(whole, a), np.zeros(5))
    assert cone_margins(whole, a[0]).shape == ()
    assert np.all(cone_values(whole, a[0]) > 0)


# ---------------------------------------------------------------------------
# the orthant's closed form


def _orthant_value_rows(m: int, seed: int) -> np.ndarray:
    """Seeded rows of width m across the whole exponent range, with +-0.0,
    subnormals, values near 1e300 and the largest floats among them."""
    rng = np.random.default_rng(seed)
    mantissas = rng.choice([-1.0, 1.0], size=(400, m)) * rng.uniform(1.0, 2.0, size=(400, m))
    a = np.ldexp(mantissas, rng.integers(-1074, 1024, size=(400, m)))
    big = np.finfo(float).max
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -1e300, 1e300, big, -big])
    a[::3] = rng.choice(special, size=a[::3].shape)
    a[1::7] = -0.0
    return a


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_orthant_values_are_the_identity_product_bit_for_bit(m, monkeypatch):
    cone = orthant(m)
    a = _orthant_value_rows(m, seed=m)
    want = (a[:, None, :] @ np.eye(m))[:, 0, :]  # the identity product itself
    assert cone_values(cone, a).tobytes() == want.tobytes()
    assert not np.signbit(cone_values(cone, a)[a == 0.0]).any()  # -0.0 reads +0.0, as in the product
    for i in range(0, a.shape[0], 37):  # a single vector has its row's bits
        assert cone_values(cone, a[i]).tobytes() == want[i].tobytes()
    # a row with an inf or NaN entry takes the product, where 0 * inf turns its other values to NaN
    for bad in (np.inf, -np.inf, np.nan):
        b = a[:5].copy()
        b[2, m - 1] = bad
        with np.errstate(invalid="ignore"):
            want_bad = (b[:, None, :] @ np.eye(m))[:, 0, :]
            got = cone_values(cone, b)
        assert got.tobytes() == want_bad.tobytes(), bad
        assert np.isnan(got[2, : m - 1]).all() and np.isnan(got[2, -1]) == np.isnan(bad)
    # finite input never reaches the product; non-finite input does
    def product(mat, rows):
        raise AssertionError("the orthant read its rows through matvec_rows")

    monkeypatch.setattr(geometry, "matvec_rows", product)
    cone_values(cone, a)
    with pytest.raises(AssertionError, match="matvec_rows"):
        cone_values(cone, np.full((1, m), np.nan))


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_matvec_rows_reads_identity_rows_as_the_product_bit_for_bit(m):
    # identity rows read a finite batch as a + 0.0, the product's bits, and
    # a batch with an inf or NaN entry through the product itself; rows that
    # are the identity by == only (a -0.0 off the diagonal) take the product
    a = _orthant_value_rows(m, seed=50 + m)
    eye = np.eye(m)
    got = matvec_rows(eye, a)
    assert got.tobytes() == (a[:, None, :] @ eye)[:, 0, :].tobytes()
    assert not np.shares_memory(got, a)
    b = a[:5].copy()
    b[1, 0] = np.inf
    with np.errstate(invalid="ignore"):
        assert matvec_rows(eye, b).tobytes() == (b[:, None, :] @ eye)[:, 0, :].tobytes()
    if m > 1:
        signed = eye.copy()
        signed[0, 1] = -0.0
        assert not geometry._is_identity(signed)
        assert matvec_rows(signed, a).tobytes() == (a[:, None, :] @ signed.T)[:, 0, :].tobytes()


def test_one_column_two_norm_is_the_absolute_value():
    # every binary64 exponent, each with a few mantissas and both signs, then
    # +-0, +-inf and NaN: |x| against the plain pass plus the rescaled rule
    rng = np.random.default_rng(1074)
    mantissas = np.concatenate([[1.0, 1.5, 2.0 - 2.0**-52], rng.uniform(1.0, 2.0, size=3)])
    x = np.ldexp(mantissas[None, :], np.arange(-1074, 1024)[:, None]).ravel()
    x = np.concatenate([x, -x, [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]])[:, None]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want = np.sqrt(geometry.row_dots(x, x))
        redo = (want < geometry._TINY_NORM) | (want == np.inf)
        want[redo] = geometry._rescaled_two_norms(x[redo])
    got = row_norms(x, "two")
    finite = ~np.isnan(want)
    assert got[finite].tobytes() == want[finite].tobytes()
    assert np.isnan(got[~finite]).all() and (~finite).sum() == 2
    assert got.tobytes() == np.abs(x[:, 0]).tobytes()
    # the sup and one norms of one entry are that entry's |x| as well
    assert row_norms(x, "sup").tobytes() == np.max(np.abs(x), axis=1).tobytes() == got.tobytes()
    assert row_norms(x, "one").tobytes() == np.sum(np.abs(x), axis=1).tobytes() == got.tobytes()
    with pytest.raises(ValueError, match="unknown norm kind"):
        row_norms(x, "three")
    # the one-vector norm of a one-entry vector agrees with the row, in every kind
    for kind in ("two", "sup", "one"):
        for v in x[finite]:
            assert norm(v, kind).hex() == float(row_norms(v[None, :], kind)[0]).hex(), (kind, v)


def test_orthant_builds_without_a_rank_decision(monkeypatch):
    def rank(*args, **kwargs):
        raise RuntimeError("matrix_rank reached")

    monkeypatch.setattr(np.linalg, "matrix_rank", rank)
    big = orthant(1024)
    assert big.pointed
    assert unit_dual_generators(big).tobytes() == np.eye(1024).tobytes()
    # given by its rows alone, the identity is the orthant too
    rows_only = cone_from_inequalities(np.eye(3))
    assert rows_only.pointed and unit_dual_generators(rows_only).tobytes() == np.eye(3).tobytes()
    # every other cone takes the general path: one not the identity, the
    # identity in one form only, the identity by its generators alone, and
    # a -0.0 off the diagonal
    signed_zero = np.eye(2)
    signed_zero[0, 1] = -0.0
    others = [
        lambda: random_simplicial_cone(3, seed=0),
        lambda: PolyCone(2, generators=np.eye(2), dual_generators=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        lambda: PolyCone(2, generators=2.0 * np.eye(2), dual_generators=np.eye(2)),
        lambda: cone_from_generators(np.eye(2)),
        lambda: cone_from_inequalities(signed_zero),
    ]
    for build in others:
        with pytest.raises(RuntimeError, match="matrix_rank reached"):
            build()


@pytest.mark.parametrize("rows", [[[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.0]]], ids=["wider-wedge", "half-plane"])
def test_both_forms_must_name_one_cone(rows):
    # every identity generator meets every row, yet the rows cut out a larger
    # cone: a wider wedge, which held [-0.2, 1.0], and a half-plane
    with pytest.raises(ValueError, match="generator and inequality representations disagree"):
        PolyCone(2, generators=np.eye(2), dual_generators=rows)
    # forms that one enumeration made from the other pass both inclusions
    for dim in (3, 4):
        for seed in range(3):
            rays = np.random.default_rng(seed).uniform(0.1, 1.0, size=(dim + 2, dim))
            assert dual_cone(cone_from_generators(rays)).pointed
            assert dual_cone(dual_cone(random_simplicial_cone(dim, seed=seed))).pointed
