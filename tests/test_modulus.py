"""Gap moduli and allowance constants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paracone import (
    Modulus,
    ParaSpec,
    convert_constants,
    eval_modulus,
    orthant,
    power_modulus,
    square_modulus,
    table_modulus,
    verify_modulus,
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


def test_verify_accepts_square_and_table():
    grid = np.geomspace(1e-4, 0.4, 24)
    assert verify_modulus(square_modulus(), grid, ratio_threshold=0.5).passed
    table = table_modulus(((0.1, 0.001), (0.2, 0.004), (0.4, 0.016)))
    assert verify_modulus(table, grid, ratio_threshold=0.05).passed


def test_verify_rejects_linear_ratio():
    # ratio modulus(t)/t of the identity never dips below any threshold < 1
    rep = verify_modulus(power_modulus(1.0), np.geomspace(1e-4, 0.5, 20), ratio_threshold=0.5)
    assert not rep.passed
    assert rep.witness == "ratio threshold"


def test_verify_grid_validation():
    with pytest.raises(ValueError):
        verify_modulus(square_modulus(), [0.1], ratio_threshold=0.5)
    with pytest.raises(ValueError):
        verify_modulus(square_modulus(), [0.0, 0.1], ratio_threshold=0.5)


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


def test_convert_constants_both_ways():
    s = _spec(C=2.0)
    lam = convert_constants(s, "min_to_lambda")
    assert lam.C1 == 4.0 and lam.C == 2.0
    t = _spec(C1=3.0)
    back = convert_constants(t, "lambda_to_min")
    assert back.C == 3.0
    with pytest.raises(ValueError):
        convert_constants(_spec(C1=1.0), "min_to_lambda")
    with pytest.raises(ValueError):
        convert_constants(_spec(C=1.0), "lambda_to_min")
    with pytest.raises(ValueError):
        convert_constants(s, "sideways")


@given(st.floats(min_value=0.0, max_value=1.0))
def test_weight_kernels_sandwich(lam):
    """The two allowance kernels differ by at most a factor of two on [0, 1],
    which is exactly what makes the conversions C1 = 2C and C = C1 sound."""
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
