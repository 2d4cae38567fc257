"""Mapping families: evaluation oracles, analytic derivatives, audits."""

import dataclasses

import numpy as np
import pytest

from paracone import (
    Box,
    OutsideDomainError,
    PiecewiseLinear,
    Quadratic1D,
    Sine1D,
    VectorMapping,
    abs_1d,
    affine_mapping,
    curved_cone_map,
    example1_default,
    known_directional,
    make_stacked_scalars,
    neg_abs_1d,
    neg_square_1d,
    orthant,
    random_simplicial_cone,
    smooth_r2_r3,
)
import paracone.mappings
from paracone.mappings import ZeroPart, _stacked_scalars


def _scalar(u1, u2, C):
    """The one-component stack u1 + u2 on (-1, 1) with weight 1."""
    return make_stacked_scalars((u1,), (u2,), [1.0], C=C, domain=Box(lo=[-1.0], hi=[1.0]), label="scalar")


def _fd(f, x0, h, t=1e-7):
    """One-sided difference quotient for cross checking analytic slopes."""
    x0 = np.asarray(x0, dtype=float)
    h = np.asarray(h, dtype=float)
    return (f.eval(x0 + t * h) - f.eval(x0)) / t


# ---------------------------------------------------------------------------
# scalar building blocks


def test_piecewise_linear_values_and_slopes():
    u = PiecewiseLinear(initial_slope=-1.0, kinks=((0.0, 0.5), (1.0, 2.0)))
    assert u.value(0.0) == 0.0
    assert u.value(-2.0) == 2.0
    assert u.value(0.5) == 0.25
    assert u.value(2.0) == pytest.approx(0.5 + 2.0)
    assert u.slope_left(0.0) == -1.0
    assert u.slope_right(0.0) == 0.5
    assert u.slope_left(0.5) == 0.5
    assert u.kink_positions == (0.0, 1.0)


def test_piecewise_linear_rejects_non_convex():
    with pytest.raises(ValueError):
        PiecewiseLinear(initial_slope=1.0, kinks=((0.0, 0.0),))
    with pytest.raises(ValueError):
        PiecewiseLinear(initial_slope=0.0, kinks=((0.5, 1.0), (0.5, 2.0)))


def test_smooth_parts_derivatives():
    q = Quadratic1D(a=-0.5, b=1.0, c=2.0)
    assert q.value(2.0) == pytest.approx(2.0)
    assert q.deriv(2.0) == pytest.approx(-1.0)
    s = Sine1D(amplitude=2.0, frequency=3.0)
    assert s.deriv(0.0) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# constructors


def test_semiconvex_scalar_matches_neg_square():
    f = _scalar(PiecewiseLinear(initial_slope=0.0), Quadratic1D(a=-1.0), C=1.0)
    assert f.eval([0.3])[0] == pytest.approx(-0.09)
    assert known_directional(f, [0.3], [1.0])[0] == pytest.approx(-0.6)
    assert known_directional(f, [0.3], [-1.0])[0] == pytest.approx(0.6)


def test_semiconvex_scalar_audits_curvature():
    with pytest.raises(ValueError):
        _scalar(PiecewiseLinear(initial_slope=0.0), Quadratic1D(a=-2.0), C=1.0)  # curvature 4 exceeds the 2C budget


def _second(part, t):
    """The second derivative of a smooth part in closed form."""
    if isinstance(part, Sine1D):
        return -part.amplitude * part.frequency**2 * np.sin(part.frequency * t + part.phase)
    return 2.0 * part.a if isinstance(part, Quadratic1D) else 0.0


def test_curvature_audit_takes_the_exact_supremum(families):
    # sup |u2''| / 2 is 5000, while a 512-point grid sees less than
    # 2 * 4999.9341: only the exact supremum refuses this false claim
    def build(C):
        return _scalar(PiecewiseLinear(0.0), Sine1D(1.0, 100.0, 0.926), C=C)

    with pytest.raises(ValueError, match="curvature 10000 exceeds"):
        build(4999.9341)
    assert build(5000.0).claimed.C == 5000.0
    # the closed forms against a fine grid: the supremum, never below a sample
    for part, lo, hi in (
        (Sine1D(2.0, 3.0, 0.1), 0.0, 0.2),  # no crest inside: the larger end
        (Sine1D(-2.0, -3.0, 0.1), 0.0, 0.2),
        (Sine1D(0.5, 2.0), -1.0, 1.0),  # crests at -pi/4 and pi/4
        (Quadratic1D(-0.7, 0.2, 1.0), -1.0, 1.0),
        (ZeroPart(), -1.0, 1.0),
    ):
        grid = max(abs(_second(part, t)) for t in np.linspace(lo, hi, 100_001))
        assert grid <= part.sup_abs_second(lo, hi) <= grid * (1.0 + 1e-9), part
    # every testbed family builds; the hinge family's curvature fills its budget
    hinge = next(f for f in families if f.label == "hinge-plus-quadratic")
    assert Quadratic1D(a=-0.5).sup_abs_second(-1.0, 1.0) == 2.0 * hinge.claimed.C == 1.0
    assert example1_default().claimed.C == 0.5


def test_semiconvex_scalar_one_sided_slopes_at_kink():
    f = _scalar(PiecewiseLinear(initial_slope=-1.0, kinks=((0.25, 0.75),)), Quadratic1D(a=-0.25), C=0.5)
    fwd = known_directional(f, [0.25], [1.0])[0]
    bwd = known_directional(f, [0.25], [-1.0])[0]
    assert fwd == pytest.approx(0.75 - 0.125)
    assert bwd == pytest.approx(-(-1.0 - 0.125))


def test_example1_structure():
    f = example1_default()
    assert f.codomain_dim == 8
    assert len(f.kink_locus) == 40
    assert len(set(f.kink_locus)) == 40  # kinks distinct across components
    assert f.codomain_norm == "sup"
    spec = f.claimed
    assert spec.C == 0.5
    assert np.array_equal(spec.k, 2.0 ** -np.arange(8))


def test_example1_oracle_gives_one_sided_slopes_at_kinks():
    f = example1_default()
    kink = f.kink_locus[3]
    # at a kink the oracle answers with each side's slope, as the scalar family does
    for step in (1.0, -1.0):
        d = known_directional(f, [kink], [step])
        assert np.allclose(d, _fd(f, [kink], [step]), atol=1e-5)
    assert not np.allclose(known_directional(f, [kink], [1.0]), -known_directional(f, [kink], [-1.0]))
    off = kink + 1e-6
    d = known_directional(f, [off], [1.0])
    assert np.allclose(d, _fd(f, [off], [1.0]), atol=1e-5)


def test_stacked_scalars_validate_their_parts():
    kwargs = dict(
        convex_parts=(PiecewiseLinear(0.0), PiecewiseLinear(0.0)),
        smooth_parts=(Quadratic1D(a=-0.5), Quadratic1D(a=-0.5)),
        C=1.0,
        domain=Box(lo=[-1.0], hi=[1.0]),
        label="pair",
    )
    ok = make_stacked_scalars(weights=[1.0, 0.5], **kwargs)
    assert ok.eval([0.4])[1] == pytest.approx(0.5 * -0.08)  # weighted component
    assert np.array_equal(ok.claimed.k, [1.0, 0.5]) and ok.codomain_norm == "sup"
    for weights, match in (([0.5, 1.0], "nonincreasing"), ([1.0, -0.5], "strictly positive"), ([1.0], "one convex part")):
        with pytest.raises(ValueError, match=match):
            make_stacked_scalars(weights=weights, **kwargs)
    with pytest.raises(ValueError, match="at least one component"):
        make_stacked_scalars((), (), [], C=1.0, domain=Box(lo=[-1.0], hi=[1.0]), label="empty")
    with pytest.raises(ValueError, match="one-dimensional domain"):
        make_stacked_scalars(weights=[1.0, 0.5], **{**kwargs, "domain": Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])})
    with pytest.raises(ValueError, match="C must be finite and >= 0, got -1.0"):
        make_stacked_scalars(weights=[1.0, 0.5], **{**kwargs, "C": -1.0})
    with pytest.raises(ValueError, match="pair: component 1 smooth-part curvature 4 exceeds"):
        make_stacked_scalars(weights=[1.0, 0.5], **{**kwargs, "smooth_parts": (Quadratic1D(a=-0.5), Quadratic1D(a=-2.0))})


def test_affine_oracles():
    a = np.array([[1.0, 2.0], [0.5, -1.0]])
    b = np.array([0.1, -0.2])
    f = affine_mapping(a, b, Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]))
    x = np.array([0.2, -0.3])
    assert np.allclose(f.eval(x), a @ x + b)
    h = np.array([0.6, 0.8])
    assert np.allclose(known_directional(f, x, h), a @ h)
    assert f.claimed.C == 0.0 and f.claimed.modulus.kind == "zero"


def test_affine_validation():
    with pytest.raises(ValueError):
        affine_mapping(np.eye(2), [1.0], Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]))
    with pytest.raises(ValueError):
        affine_mapping(np.eye(2), [1.0, 0.0], Box(lo=[-1.0], hi=[1.0]))


def test_one_dimensional_references():
    f = neg_square_1d()
    assert f.eval([0.4])[0] == pytest.approx(-0.16)
    assert known_directional(f, [0.4], [1.0])[0] == pytest.approx(-0.8)

    g = abs_1d()
    assert g.eval([-0.3])[0] == 0.3
    assert known_directional(g, [0.0], [1.0])[0] == 1.0
    assert known_directional(g, [0.0], [-1.0])[0] == 1.0
    assert known_directional(g, [-0.2], [1.0])[0] == -1.0

    h = neg_abs_1d()
    assert h.claimed is None
    assert known_directional(h, [0.0], [1.0])[0] == -1.0
    assert known_directional(h, [0.0], [-1.0])[0] == -1.0


def test_curved_cone_map_directional():
    cone = random_simplicial_cone(3, seed=33)
    f = curved_cone_map(cone, seed=34)
    x = np.array([0.2, -0.1])
    h = np.array([0.6, 0.8])
    assert np.allclose(known_directional(f, x, h), _fd(f, x, h), atol=1e-5)
    # the bend direction is claimed as the allowance direction
    from paracone import contains

    assert contains(cone, f.claimed.k, tol=1e-9)


def test_smooth_r2_r3_jacobian():
    f = smooth_r2_r3()
    x = np.array([0.3, -0.4])
    for h in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.6, 0.8])):
        assert np.allclose(known_directional(f, x, h), _fd(f, x, h), atol=1e-5)


# ---------------------------------------------------------------------------
# evaluation contract


def test_domain_enforcement():
    f = neg_square_1d()
    with pytest.raises(OutsideDomainError):
        f.eval([1.0])  # boundary is outside the open box
    with pytest.raises(OutsideDomainError):
        f.eval([1.5])
    with pytest.raises(OutsideDomainError):
        known_directional(f, [1.5], [1.0])


def test_mapping_shape_validation():
    with pytest.raises(ValueError):
        VectorMapping(
            domain=Box(lo=[-1.0], hi=[1.0]),
            codomain_dim=0,
            evaluator=lambda x: np.zeros((x.shape[0], 0)),
            label="bad",
        )
    bad_shape = VectorMapping(
        domain=Box(lo=[-1.0], hi=[1.0]),
        codomain_dim=2,
        evaluator=lambda x: np.zeros((x.shape[0], 3)),
        label="bad-shape",
    )
    with pytest.raises(ValueError, match="evaluator returned shape"):
        bad_shape.eval([0.0])
    non_finite = VectorMapping(
        domain=Box(lo=[-1.0], hi=[1.0]),
        codomain_dim=1,
        evaluator=lambda x: np.full((x.shape[0], 1), np.inf),
        label="bad-value",
    )
    with pytest.raises(ValueError, match="non-finite value"):
        non_finite.eval([0.0])


def test_batch_errors_name_the_offending_row():
    f = VectorMapping(
        domain=Box(lo=[-1.0], hi=[1.0]),
        codomain_dim=1,
        evaluator=lambda x: np.where(x > 0.5, np.inf, x),
        label="blows-up",
    )
    assert np.array_equal(f.eval_batch([[0.1], [-0.2]]), [[0.1], [-0.2]])
    with pytest.raises(ValueError, match=r"non-finite value at \[0\.7\]"):
        f.eval_batch([[0.1], [0.7], [0.2]])
    with pytest.raises(OutsideDomainError, match=r"point \[1\.0\] outside"):
        f.eval_batch([[0.1], [1.0], [0.2]])
    with pytest.raises(OutsideDomainError, match=r"point \[nan\] outside"):
        f.eval_batch([[0.1], [np.nan]])
    for bad in (np.zeros(3), np.zeros((2, 2)), np.zeros((1, 1, 1))):
        with pytest.raises(ValueError, match="points must have shape"):
            f.eval_batch(bad)
    wrong_rows = VectorMapping(
        domain=Box(lo=[-1.0], hi=[1.0]), codomain_dim=1, evaluator=lambda x: x[:1], label="drops-rows"
    )
    with pytest.raises(ValueError, match="evaluator returned shape"):
        wrong_rows.eval_batch([[0.1], [0.2]])


def test_eval_is_a_one_row_batch(families):
    rng = np.random.default_rng(3)
    for f in families:
        pts = f.domain.shrink(0.01).sample(2000, rng)
        batch = f.eval_batch(pts)
        assert batch.shape == (2000, f.codomain_dim)
        # each row is bitwise its own one-point value, whatever the batch size
        assert all(np.array_equal(f.eval(p), row) for p, row in zip(pts[:50], batch))
        assert np.array_equal(np.concatenate([f.eval_batch(pts[i : i + 7]) for i in range(0, 2000, 7)]), batch)


def test_stacked_scalars_match_per_component_values():
    convex = (
        PiecewiseLinear(initial_slope=-1.0, kinks=((-0.5, -0.25), (0.125, 0.5), (0.75, 1.0))),
        PiecewiseLinear(initial_slope=0.5, kinks=((0.0, 1.0),)),
        PiecewiseLinear(initial_slope=-0.25),
        PiecewiseLinear(initial_slope=0.0, kinks=((-0.3, 0.5), (0.3, 0.75))),
    )
    smooth = (Quadratic1D(a=-0.2, b=0.1, c=0.3), Sine1D(amplitude=0.1, frequency=1.5, phase=0.2), ZeroPart(), Quadratic1D(a=-0.1))
    weights = np.array([1.0, 0.5, 0.25, 0.125])
    f = make_stacked_scalars(convex, smooth, weights, C=0.5, domain=Box(lo=[-1.0], hi=[1.0]), label="four")
    ts = np.random.default_rng(4).uniform(-0.99, 0.99, size=500)
    # the scalar definition the batched evaluator must reproduce bit for bit
    want = np.array([weights * np.array([u1.value(t) + u2.value(t) for u1, u2 in zip(convex, smooth)]) for t in ts.tolist()])
    assert np.array_equal(f.eval_batch(ts[:, None]), want)


def _stack_parts(build, monkeypatch):
    """The convex parts, smooth parts and weights that build hands to
    make_stacked_scalars, and the family it returns."""
    seen = {}

    def record(convex, smooth, weights, **kwargs):
        seen[kwargs["label"]] = (tuple(convex), tuple(smooth), np.array(weights, dtype=float))
        return make_stacked_scalars(convex, smooth, weights, **kwargs)

    monkeypatch.setattr(paracone.mappings, "make_stacked_scalars", record)
    f = build()
    return seen[f.label], f


def _mixed_stack():
    # repeated parts of every type, one of them equal to another by == but
    # not by its bits (-0.0 for 0.0), and a component without kinks
    convex = (
        PiecewiseLinear(initial_slope=-1.0, kinks=((-0.5, -0.25), (0.125, 0.5), (0.75, 1.0))),
        PiecewiseLinear(initial_slope=0.5, kinks=((0.0, 1.0),)),
        PiecewiseLinear(initial_slope=-0.25),
        PiecewiseLinear(initial_slope=0.0, kinks=((-0.3, 0.5), (0.3, 0.75))),
        PiecewiseLinear(initial_slope=-0.0, kinks=((0.0, 0.5),)),
        PiecewiseLinear(initial_slope=0.25, kinks=((-0.75, 0.5),)),
        PiecewiseLinear(initial_slope=0.0),
    )
    smooth = (
        Sine1D(amplitude=0.1, frequency=1.5, phase=0.2),
        Quadratic1D(a=-0.2, b=0.1, c=0.3),
        ZeroPart(),
        Sine1D(amplitude=0.1, frequency=1.5, phase=0.2),
        Quadratic1D(a=0.0, b=-0.0, c=-0.0),
        Quadratic1D(a=0.0),
        ZeroPart(),
    )
    weights = [1.0, 0.5, 0.5, 0.25, 2.0**-3, 2.0**-3, 2.0**-10]
    return paracone.mappings.make_stacked_scalars(convex, smooth, weights, C=0.5, domain=Box(lo=[-1.0], hi=[1.0]), label="mixed")


_STACKS = {
    "example1": example1_default,
    "hinge": lambda: paracone.mappings.testbed_families()[3],
    "mixed": _mixed_stack,
}


@pytest.mark.parametrize("name", sorted(_STACKS))
def test_stacked_scalars_are_the_per_float_definition_bit_for_bit(name, monkeypatch):
    # the component-major evaluator is w_i * (u1_i.value(t) + u2_i.value(t))
    # on one float, entry for entry: at every kink, at +-0.0, near the ends
    # of the domain and at seeded points, in batches of 1 to 5,000 points
    (convex, smooth, weights), f = _stack_parts(_STACKS[name], monkeypatch)
    evaluate = _stacked_scalars(convex, smooth, weights)
    kinks = sorted({p for u1 in convex for p in u1.kink_positions})
    exact = [0.0, -0.0, 0.5, -0.5, 1.0 - 2.0**-53, -1.0 + 2.0**-53, 2.0**-1074, -(2.0**-1074)] + kinks
    seeded = np.random.default_rng(6).uniform(-1.0, 1.0, size=5000).tolist()
    for ts in (exact, exact[:1], exact[1:2], seeded[:7], seeded[:40], seeded):
        want = np.array([[w * (u1.value(t) + u2.value(t)) for u1, u2, w in zip(convex, smooth, weights)] for t in ts])
        assert np.ascontiguousarray(evaluate(np.array(ts)[:, None])).tobytes() == want.tobytes(), (name, len(ts))
        assert f.eval_batch(np.array(ts)[:, None]).tobytes() == want.tobytes(), (name, len(ts))
    # a column read from a wider array is the same points
    wide = np.array([exact, exact]).T
    assert f.eval_batch(wide[:, :1]).tobytes() == f.eval_batch(np.array(exact)[:, None]).tobytes()


def test_claimed_cone_must_match_codomain():
    from paracone import ParaSpec, square_modulus

    spec = ParaSpec(modulus=square_modulus(), k=np.ones(3), cone=orthant(3), C=1.0)
    with pytest.raises(ValueError):
        VectorMapping(
            domain=Box(lo=[-1.0], hi=[1.0]),
            codomain_dim=2,
            evaluator=lambda x: np.zeros(2),
            label="mismatch",
            claimed=spec,
        )


def test_testbed_families_all_claim_constants(families):
    assert len(families) == 6
    for f in families:
        assert f.claimed is not None
        assert f.claimed.cone.dim == f.codomain_dim
        mid = 0.5 * (f.domain.lo + f.domain.hi)
        assert np.all(np.isfinite(f.eval(mid)))


def test_a_mapping_refuses_an_unknown_norm_tag_and_a_point_that_is_not_a_vector():
    f = neg_square_1d()
    with pytest.raises(ValueError, match="norm tags must be one of"):
        dataclasses.replace(f, domain_norm="l3")
    with pytest.raises(ValueError, match="point must be one dimensional, got shape"):
        f.eval([[0.1]])
