"""Gap moduli and allowance constants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paracone import (
    Box,
    ConvergenceError,
    Modulus,
    ParaSpec,
    VectorMapping,
    build_trace,
    check_inequality,
    check_sublinear,
    cone_from_inequalities,
    directional_derivative,
    eval_modulus,
    falsify,
    frechet_test,
    gateaux_scan,
    gateaux_test,
    neg_square_1d,
    orthant,
    power_modulus,
    square_modulus,
    table_modulus,
    zero_modulus,
)


def test_eval_oracle_values():
    assert eval_modulus(zero_modulus(), 3.0) == 0.0
    assert eval_modulus(square_modulus(), 3.0) == 9.0
    assert eval_modulus(square_modulus(scale=0.5), 2.0) == 2.0
    assert eval_modulus(power_modulus(1.5, scale=2.0), 4.0) == pytest.approx(16.0)


def test_eval_scalar_is_a_float_equal_to_the_array_entry():
    gaps = np.random.default_rng(4).uniform(0.0, 0.4, size=40)
    for m in (zero_modulus(), square_modulus(3.3), power_modulus(1.5, scale=2.0), table_modulus(((0.1, 0.001), (0.4, 0.016)))):
        values = eval_modulus(m, gaps)
        assert values.shape == gaps.shape
        for t, v in zip(gaps, values):
            for one in (float(t), t, np.asarray(t)):
                got = eval_modulus(m, one)
                assert type(got) is float
                assert got.hex() == float(v).hex(), m.kind


def test_eval_rejects_bad_gap():
    with pytest.raises(ValueError):
        eval_modulus(square_modulus(), -1.0)
    with pytest.raises(ValueError):
        eval_modulus(square_modulus(), float("nan"))


def test_table_interpolates_from_origin():
    m = table_modulus(((0.1, 0.001), (0.2, 0.004), (0.4, 0.016)))
    assert eval_modulus(m, 0.05) == pytest.approx(0.0005)
    assert eval_modulus(m, 0.3) == pytest.approx(0.01)
    assert eval_modulus(m, 0.4) == pytest.approx(0.016)
    with pytest.raises(ValueError):
        eval_modulus(m, 0.5)  # no extrapolation past the last knot


def test_modulus_construction_validation():
    with pytest.raises(ValueError):
        Modulus(kind="cubic")
    with pytest.raises(ValueError):
        Modulus(kind="square", scale=-1.0)
    with pytest.raises(ValueError):
        power_modulus(0.0)
    with pytest.raises(ValueError):
        table_modulus(((0.2, 0.1), (0.1, 0.2)))  # gaps not increasing
    with pytest.raises(ValueError):
        table_modulus(((0.1, 0.4), (0.2, 0.1)))  # values decreasing
    with pytest.raises(ValueError):
        table_modulus(())


# (modulus, strong): strong means modulus(t)/t -> 0, decided on the kind
STRENGTH_CASES = {
    "zero": (zero_modulus(), True),
    "square": (square_modulus(), True),
    "square-scale-0": (square_modulus(0.0), True),
    "power-0.5": (power_modulus(0.5), False),
    "power-1": (power_modulus(1.0), False),
    "power-1.5": (power_modulus(1.5), True),
    "power-1-scale-0": (power_modulus(1.0, scale=0.0), True),  # the zero modulus
    "table-from-0": (table_modulus(((0.01, 0.0), (2.0, 4.0))), True),
    "table-from-1e-4": (table_modulus(((0.01, 1e-4), (2.0, 4.0))), False),  # ratio 1e-2 down to t = 0
}


def _refusals(f, spec):
    """The ValueError message of each derivative entry point, on a mapping
    that fails the test when evaluated: each guard fires before any evaluation."""
    unevaluable = dataclasses.replace(f, evaluator=lambda pts: pytest.fail("evaluated by a refused estimator"))
    entry_points = (
        lambda: directional_derivative(unevaluable, spec, [0.25], [1.0]),
        lambda: check_sublinear(unevaluable, spec, [0.25]),
        lambda: gateaux_test(unevaluable, spec, [0.25], n_directions=2),
        lambda: gateaux_scan(unevaluable, spec, unevaluable.domain, n_points=2, n_directions=2),
        lambda: frechet_test(unevaluable, spec, [0.25], n_directions=2),
    )
    messages = []
    for run in entry_points:
        with pytest.raises(ValueError) as info:
            run()
        messages.append(str(info.value))
    return messages


@pytest.mark.parametrize("m, strong", list(STRENGTH_CASES.values()), ids=list(STRENGTH_CASES))
def test_strong_is_decided_on_the_kind(m, strong):
    assert m.strong is strong
    f = neg_square_1d()
    spec = ParaSpec(modulus=m, k=np.array([1.0]), cone=orthant(1), C=1.0)
    # weak paraconvexity is still a property to check, so these take any modulus
    build_trace(f, spec, [0.25], [1.0], depth=8)
    check_inequality(f, spec, budget=64, seed=0)
    falsify(f, spec, budget=64, seed=0)
    if not strong:
        for message in _refusals(f, spec):
            assert "strong modulus" in message and repr(m) in message
        return
    # necessary, not sufficient: under power_modulus(1.5) the estimator on
    # neg_square stops at an error bound of about 5.4e-5, so at tol 1e-6
    # gateaux_test still raises ConvergenceError
    est = directional_derivative(f, spec, [0.25], [1.0])
    assert est.converged is (m != power_modulus(1.5))
    if not est.converged:
        with pytest.raises(ConvergenceError):
            gateaux_test(f, spec, [0.25])
    # a half-plane holds a line, along which the rows that measure every
    # error bound see nothing: on (sqrt|x|, x^2) the estimate at 0 would
    # "converge" to a first coordinate of about 2290, so a strong modulus is
    # refused there too
    root_and_square = VectorMapping(
        domain=Box(lo=[-1.0], hi=[1.0]),
        codomain_dim=2,
        evaluator=lambda x: np.hstack([np.sqrt(np.abs(x)), x**2]),
        label="root-and-square",
    )
    half_plane = ParaSpec(modulus=m, k=np.array([0.0, 1.0]), cone=cone_from_inequalities([[0.0, 1.0]]), C=1.0)
    assert all("pointed" in message for message in _refusals(root_and_square, half_plane))


@given(st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.0, max_value=0.5))
def test_eval_is_nondecreasing(a, b):
    s, t = min(a, b), max(a, b)
    for m in (square_modulus(), power_modulus(1.5), power_modulus(3.0, scale=0.2)):
        assert eval_modulus(m, s) <= eval_modulus(m, t) + 1e-15


# ---------------------------------------------------------------------------
# allowance constants


def _spec(**kw):
    base = dict(modulus=square_modulus(), k=np.array([1.0]), cone=orthant(1))
    base.update(kw)
    return ParaSpec(**base)


def test_spec_needs_a_constant_and_a_member_direction():
    with pytest.raises(ValueError):
        _spec()
    with pytest.raises(ValueError):
        _spec(C=-1.0)
    with pytest.raises(ValueError):
        ParaSpec(modulus=square_modulus(), k=np.array([-1.0]), cone=orthant(1), C=1.0)


def test_constant_is_strict_per_form():
    s = _spec(C=2.0)
    assert s.constant("min") == 2.0
    with pytest.raises(ValueError):
        s.constant("lambda")
    with pytest.raises(ValueError):
        s.constant("quadratic")
    assert s.min_constant() == 2.0
    # lambda-only spec still yields a usable min constant
    assert _spec(C1=3.0).min_constant() == 3.0


@given(st.floats(min_value=0.0, max_value=1.0))
def test_weight_kernels_sandwich(lam):
    """The two allowance kernels differ by at most a factor of two on [0, 1],
    which is what makes min_constant's fallback C = C1 sound (and C1 = 2C
    the other way)."""
    min_kernel = min(lam, 1.0 - lam)
    lam_kernel = lam * (1.0 - lam)
    assert lam_kernel <= min_kernel + 1e-15
    assert min_kernel <= 2.0 * lam_kernel + 1e-15


def test_spec_is_frozen_but_replaceable():
    s = _spec(C=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.C = 2.0
    s2 = dataclasses.replace(s, C1=0.5)
    assert s2.C1 == 0.5 and s.C1 is None
