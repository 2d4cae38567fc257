"""Answers that do not depend on how the input is written.

A metamorphic table: each row names a transform of the input, the ops whose
answers it covers and the relation expected between the answers before and
after it.  The hypotheses of the theorem do not change when a direction is
rescaled, when a cone is given by generators rather than inequality rows,
when its generators or its rows are rescaled, or when a witness is replayed
on its own, so neither may the answers.
"""

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from paracone import (
    ParaSpec,
    abs_1d,
    check_inequality,
    check_sublinear,
    cone_from_generators,
    cone_from_inequalities,
    contains,
    falsify,
    gateaux_test,
    neg_abs_1d,
    orthant,
    smooth_r2_r3,
    square_modulus,
)
from paracone.checks import _coordinate_moves, _margins, _pattern_search
from paracone.geometry import ensure_generators, unit_dual_generators, unit_rows


def _same_rays(a, b):
    """Equal row counts and each row within the merge angle of its partner
    (cosine above 1 - 1e-12), the rule that makes two rays one."""
    return a.shape == b.shape and all(u @ v > 1.0 - 1e-12 for u, v in zip(a, b))


def _wedge_both_ways(theta):
    """The wedge of (1, 0) and (-cos t, sin t), by its generators and by its
    rows (0, 1) and (sin t, cos t), the row orthogonal to each generator in
    the generators' order."""
    c, s = np.cos(theta), np.sin(theta)
    return cone_from_generators([[1.0, 0.0], [-c, s]]), cone_from_inequalities([[0.0, 1.0], [s, c]])


def _direction_length(families):
    # scored as given, a direction of length 1e-7 would shrink the kink's
    # antisymmetry defect |D(1) + D(-1)| = 2 to 2e-7
    f = abs_1d()
    for x0, passed in ((0.0, False), (0.3, True)):
        unit = gateaux_test(f, f.claimed, [x0], directions=[[1.0]], tol=1e-6)
        assert unit.passed is passed and (passed or 1.9 < unit.defect <= 2.0)
        for length in (1e-7, 1e-3, 1.0, 4.0):
            rep = gateaux_test(f, f.claimed, [x0], directions=[[length]], tol=1e-6)
            # in 1-D the scaled direction is exactly the unit one
            assert rep.passed is passed and rep.defect.hex() == unit.defect.hex(), (x0, length)


def _direction_scale(families):
    # lengths 2^k are exact scalings, so a direction scored at unit length
    # is the unit direction bit for bit; a plain two-norm of the longest
    # overflows to inf and of the shortest underflows to 0
    f = smooth_r2_r3()
    x0, h1, h2 = [0.1, -0.2], np.array([0.6, -0.8]), np.array([0.0, 1.0])
    unit_g = gateaux_test(f, f.claimed, x0, directions=[h1, h2], tol=1e-6)
    unit_s = check_sublinear(f, f.claimed, x0, direction_pairs=[(h1, h2)], tol=1e-6)
    for k in (-996, -565, -23, 10, 520, 996):
        length = 2.0**k  # from about 1.5e-300 to 6.7e299
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)
            g = gateaux_test(f, f.claimed, x0, directions=[length * h1, length * h2], tol=1e-6)
            s = check_sublinear(f, f.claimed, x0, direction_pairs=[(length * h1, length * h2)], tol=1e-6)
        assert g.passed is unit_g.passed and g.margins == unit_g.margins, k
        assert s.passed is unit_s.passed and s.worst_margin.hex() == unit_s.worst_margin.hex(), k


def _cone_form(families):
    for theta in (1e-7, 1e-3):
        by_generators, by_rows = _wedge_both_ways(theta)
        assert _same_rays(unit_dual_generators(by_generators), unit_dual_generators(by_rows)), theta
        assert by_generators.pointed == by_rows.pointed, theta
        assert contains(by_generators, [-1.0, 0.0]) == contains(by_rows, [-1.0, 0.0]), theta
    # inside the merge angle the two rows are one ray, so the wedge is a
    # half-plane; a wider wedge keeps both rows and stays pointed
    assert not _wedge_both_ways(1e-7)[1].pointed and contains(_wedge_both_ways(1e-7)[1], [-1.0, 0.0])
    assert _wedge_both_ways(1e-3)[1].pointed and not contains(_wedge_both_ways(1e-3)[1], [-1.0, 0.0])


def _seeded_generator_rows():
    """120 seeded generator tables, 30 in each of R^2 to R^5: d to d + 3
    rows, drawn normal (cones that may hold lines) or uniform in [0.05, 1)
    (pointed cones inside the orthant)."""
    rng = np.random.default_rng(20180402)
    tables = []
    for d in (2, 3, 4, 5):
        for i in range(30):
            shape = (d + int(rng.integers(0, 4)), d)
            tables.append(rng.normal(size=shape) if i % 2 else rng.uniform(0.05, 1.0, size=shape))
    return tables


def _unit_generators(cone):
    return unit_rows(ensure_generators(cone))


def _row_scale(make, reads):
    """Every seeded table times 2^k, from about 1e-301 to 1e301, read by
    each of reads bit for bit as the table itself, with an equal pointed
    flag.  Lengths past the largest float take row_norms' second pass, whose
    first may warn of the overflow it met."""
    for g in _seeded_generator_rows():
        base = make(g)
        for k in (-1000, -600, -20, -3, 5, 30, 600, 1000):
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)
                scaled = make(np.ldexp(g, k))
                for read in reads:
                    assert read(scaled).tobytes() == read(base).tobytes(), (g.shape, k, read.__name__)
            assert scaled.pointed == base.pointed, (g.shape, k)


def _generator_scale(families):
    # the given generators keep their lengths, so their unit rows are compared
    _row_scale(cone_from_generators, (unit_dual_generators, _unit_generators))


def _inequality_scale(families):
    _row_scale(cone_from_inequalities, (unit_dual_generators, ensure_generators))


def _search_cases(families):
    """(mapping, spec, form, seed): every testbed family with both constants
    shrunk to 0.9 of the claimed ones, both forms, and -|x| across a
    constant sweep."""
    cases = []
    for f in families:
        spec = dataclasses.replace(f.claimed, C=0.9 * f.claimed.C, C1=0.9 * f.claimed.C1)
        cases += [(f, spec, form, seed) for form in ("min", "lambda") for seed in (0, 5, 11)]
    f = neg_abs_1d()
    for c in (0.5, 2.0, 10.0, 50.0):
        spec = ParaSpec(modulus=square_modulus(), k=[1.0], cone=orthant(1), C=c)
        cases += [(f, spec, "min", seed) for seed in (0, 3, 7)]
    return cases


def _falsify_replay(families):
    refined = paired = 0
    for f, spec, form, seed in _search_cases(families):
        rep = falsify(f, spec, form=form, budget=200, seed=seed)
        if rep.passed:
            continue
        replay = check_inequality(f, spec, form=form, triples=[rep.witness])
        assert replay.worst_margin.hex() == rep.worst_margin.hex(), (f.label, form, seed)
        refined += "+refined" in rep.notes
        # the coordinate pass alone, from the same scan witness: a deeper
        # falsify result was found by the paired pass
        scan = falsify(f, spec, form=form, budget=200, seed=seed, refine=False)
        rows = unit_dual_generators(spec.cone)
        start = (scan.witness.x, scan.witness.y, scan.witness.lam, scan.worst_margin)
        coord = _pattern_search(
            f.domain,
            lambda x, y, lam: _margins(f, spec, rows, form, x, y, lam),
            start,
            _coordinate_moves,
        )
        paired += rep.worst_margin < coord[3]
    assert refined and paired  # the row covers refined witnesses, paired-pass ones among them


@dataclass(frozen=True)
class Row:
    transform: str
    ops: str
    relation: str
    check: Callable[[tuple], None]  # called with the testbed families


TABLE = (
    Row(
        "a gateaux_test direction times 1e-7, 1e-3, 1 or 4, at the kink of |x| and at a smooth point",
        "gateaux_test",
        "the same verdict, a kink defect in (1.9, 2.0], and the same defect bit for bit where the scaled"
        " direction is exactly the unit one, as in 1-D",
        _direction_length,
    ),
    Row(
        "gateaux_test directions and a check_sublinear pair times 2^k, k from -996 to 996, on smooth-r2-r3",
        "gateaux_test, check_sublinear",
        "the same verdict and the same margins, bit for bit",
        _direction_scale,
    ),
    Row(
        "a thin wedge given by its generators, then by its rows",
        "unit_dual_generators, pointed, contains",
        "the same rays, an equal pointed flag and an equal membership of (-1, 0)",
        _cone_form,
    ),
    Row(
        "generators times 2^k, k in {-1000, -600, -20, -3, 5, 30, 600, 1000}, on 120 seeded cones in R^2-R^5",
        "unit_dual_generators, ensure_generators, pointed",
        "bitwise-identical unit rows, bitwise-identical unit generators and an equal pointed flag",
        _generator_scale,
    ),
    Row(
        "inequality rows times 2^k, k in {-1000, -600, -20, -3, 5, 30, 600, 1000}, on the same 120 seeded tables",
        "unit_dual_generators, ensure_generators, pointed",
        "bitwise-identical unit rows, bitwise-identical generators and an equal pointed flag",
        _inequality_scale,
    ),
    Row(
        "a falsify witness replayed alone",
        "falsify, check_inequality",
        "the identical margin, float.hex for float.hex",
        _falsify_replay,
    ),
)


@pytest.mark.parametrize(
    "row",
    TABLE,
    ids=("direction-length", "direction-scale", "cone-form", "generator-scale", "inequality-scale", "falsify-replay"),
)
def test_invariance_row(row, families):
    row.check(families)
