"""Cone kernel: points, norms, membership, duality, bases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracone import (
    Box,
    DualFunctional,
    PolyCone,
    affine_mapping,
    as_point,
    base_of,
    cone_from_generators,
    cone_from_inequalities,
    contains,
    dual_cone,
    leq,
    norm,
    normality_constant,
    orthant,
    random_simplicial_cone,
    relative_interior_contains,
    strictly_positive_functional,
)
from paracone.checks import check_local_vector_bounded
from paracone.derivative import build_trace, check_lower_bound
from paracone.geometry import (
    ensure_dual_generators,
    ensure_generators,
    generator_direction,
    interior_direction,
    is_standard_orthant,
    sample_in_cone,
    unit_dual_generators,
)

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


@given(finite_coords, finite_coords)
def test_norm_triangle_inequality(a, b):
    n = min(len(a), len(b))
    x = np.array(a[:n])
    y = np.array(b[:n])
    for kind in ("sup", "one", "two"):
        assert norm(x + y, kind) <= norm(x, kind) + norm(y, kind) + 1e-9 * (
            1.0 + norm(x, kind) + norm(y, kind)
        )


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
    assert box.boundary_distance(x) == pytest.approx(0.5)
    assert box.boundary_distance(x, np.array([1.0, 0.0])) == pytest.approx(0.5)
    assert box.boundary_distance(x, np.array([-1.0, 0.0])) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        box.boundary_distance(np.array([2.0, 0.0]))


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
    assert is_standard_orthant(c)
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


def test_contains_validates_input():
    c = orthant(2)
    with pytest.raises(ValueError):
        contains(c, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        contains(c, [1.0, float("nan")])


def test_representation_agreement_on_random_points():
    """Both membership routes answer identically on sampled points."""
    rng = np.random.default_rng(4)
    for cone in (orthant(3), random_simplicial_cone(3, seed=5)):
        gens_only = cone_from_generators(ensure_generators(cone).copy())
        duals_only = cone_from_inequalities(ensure_dual_generators(cone).copy())
        pts = list(rng.normal(size=(500, 3))) + list(sample_in_cone(cone, 500, seed=6))
        for v in pts:
            a = contains(gens_only, v)
            b = contains(duals_only, v)
            assert a == b


def test_pointedness_classification():
    assert orthant(4).pointed
    assert WEDGE.pointed
    halfplane = cone_from_generators([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert not halfplane.pointed
    halfspace = cone_from_inequalities([[1.0, 0.0]])
    assert not halfspace.pointed


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


def test_wedge_dual_oracle():
    dual = dual_cone(WEDGE)
    expected = np.array([[0.0, 1.0], [1.0, -1.0]])
    assert _same_ray_sets(dual.generators, expected)


def test_dual_of_orthant_is_orthant():
    d = dual_cone(orthant(3))
    assert _same_ray_sets(d.generators, np.eye(3))


def test_bipolar_identity_rays():
    cones = [
        cone_from_generators(np.eye(3)),
        cone_from_generators([[1.0, 0.0], [1.0, 1.0]]),
        cone_from_generators(ensure_generators(random_simplicial_cone(2, seed=9)).copy()),
        cone_from_generators(ensure_generators(random_simplicial_cone(3, seed=10)).copy()),
        cone_from_generators(ensure_generators(random_simplicial_cone(4, seed=11)).copy()),
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
    with pytest.raises(ValueError):
        dual_cone(cone_from_inequalities(np.eye(2)))


def test_ray_enumeration_dimension_limit():
    c = cone_from_generators(np.eye(5))
    with pytest.raises(ValueError):
        dual_cone(c)


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
    assert np.array_equal(e.coeffs, np.ones(3))
    assert e([2.0, 0.0, 1.0]) == 3.0


def test_strictly_positive_functional_rejects_non_pointed():
    halfplane = cone_from_generators([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        strictly_positive_functional(halfplane)


def test_dual_functional_audit():
    with pytest.raises(ValueError):
        DualFunctional(np.array([1.0, -1.0]), orthant(2))
    ok = DualFunctional(np.array([2.0, 0.0]), orthant(2))
    assert ok([1.5, 7.0]) == 3.0


def test_base_radius_oracles():
    # simplex base of the orthant: vertices are the basis rays
    e3 = strictly_positive_functional(orthant(3))
    assert abs(base_of(orthant(3), e3, norm_kind="one").radius - 1.0) <= 1e-12
    assert abs(base_of(orthant(3), e3, norm_kind="two").radius - 1.0) <= 1e-12
    # wedge sliced by the first coordinate: vertices (1,0) and (1,1)
    b = base_of(WEDGE, np.array([1.0, 0.0]), norm_kind="two")
    assert b.radius == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_base_rejects_functional_vanishing_on_a_ray():
    with pytest.raises(ValueError):
        base_of(WEDGE, np.array([0.0, 1.0]))


def test_base_points_respect_level_and_radius():
    for cone in (orthant(3), WEDGE, random_simplicial_cone(3, seed=24)):
        e = strictly_positive_functional(cone)
        b = base_of(cone, e, norm_kind="two")
        for u in sample_in_cone(cone, 200, seed=25):
            lam = e(u)
            if lam <= 1e-9:
                continue
            pt = np.asarray(u, dtype=float) / lam
            assert abs(e(pt) - 1.0) <= 1e-9
            assert norm(pt, "two") <= b.radius + 1e-12


def test_relative_interior_membership():
    assert relative_interior_contains(orthant(2), [1.0, 1.0])
    assert not relative_interior_contains(orthant(2), [1.0, 0.0])
    assert relative_interior_contains(WEDGE, [1.0, 0.5])
    ray = cone_from_generators([[1.0, 0.0]])
    with pytest.raises(ValueError):
        relative_interior_contains(ray, [1.0, 0.0])


def test_interior_direction_is_the_unit_generator_sum():
    k0, values = interior_direction(WEDGE)
    assert k0.tobytes() == generator_direction(WEDGE).tobytes() == (np.array([2.0, 1.0]) / np.sqrt(5.0)).tobytes()
    assert values.tobytes() == (unit_dual_generators(WEDGE) @ k0).tobytes()
    assert np.all(values > 0.0)
    with pytest.raises(ValueError, match="sum to zero"):
        generator_direction(cone_from_generators([[1.0, 0.0], [-1.0, 0.0]]))


def test_witness_checks_refuse_a_cone_without_interior():
    # a ray in the plane: the generator sum lies on the boundary, where the
    # supporting functionals (0, 1) and (0, -1) vanish
    ray = cone_from_generators([[1.0, 0.0]], name="ray")
    with pytest.raises(ValueError, match="no interior direction"):
        interior_direction(ray)
    f = affine_mapping([[1.0], [0.0]], [0.0, 0.0], Box(lo=[-1.0], hi=[1.0]), cone=ray, k=[1.0, 0.0])
    with pytest.raises(ValueError, match="no interior direction"):
        check_lower_bound(build_trace(f, f.claimed, [0.0], [1.0], depth=5))
    with pytest.raises(ValueError, match="no interior direction"):
        check_local_vector_bounded(f, ray, [0.0], radius=0.5, budget=16, seed=0)


def test_unit_dual_generators_are_normalized():
    rows = unit_dual_generators(random_simplicial_cone(3, seed=26))
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_simplicial_cone_generators_are_members(seed):
    cone = random_simplicial_cone(3, seed=seed)
    for g in cone.generators:
        assert contains(cone, g, tol=1e-9)
