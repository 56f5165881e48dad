"""Extended-real arithmetic: +infinity is allowed, NaN and -infinity are not."""
import math

import pytest

from specvar import POS_INF, ExtReal


def test_finite_roundtrip():
    v = ExtReal(1.5)
    assert v.is_finite
    assert v.tag == "finite"
    assert float(v) == 1.5
    assert v.to_json() == 1.5


def test_pos_inf_tagging():
    assert not POS_INF.is_finite
    assert POS_INF.tag == "pos_inf"
    assert POS_INF.to_json() == "+inf"
    assert math.isinf(float(POS_INF))


def test_rejects_nan_and_neg_inf():
    with pytest.raises(ValueError):
        ExtReal(float("nan"))
    with pytest.raises(ValueError):
        ExtReal(-math.inf)


def test_slotted_and_still_checked():
    # reports hold several ExtReals, so each carries no instance dict
    v = ExtReal(1.5)
    assert not hasattr(v, "__dict__")
    with pytest.raises(AttributeError):
        v.value = 2.0
    with pytest.raises(ValueError):
        ExtReal(math.nan)
    with pytest.raises(ValueError):
        ExtReal(-math.inf)


def test_addition_absorbs_infinity():
    assert (ExtReal(2.0) + ExtReal(3.0)).value == 5.0
    assert not (ExtReal(2.0) + POS_INF).is_finite
    assert not (POS_INF + POS_INF).is_finite
    assert (1.0 + ExtReal(2.0)).value == 3.0


def test_scalar_multiplication():
    assert (ExtReal(3.0) * 2.0).value == 6.0
    assert (2.0 * POS_INF).tag == "pos_inf"
    # a nonpositive multiple of +inf would be -inf or NaN
    with pytest.raises(ValueError):
        POS_INF * 0.0
    with pytest.raises(ValueError):
        POS_INF * -1.0
    assert (ExtReal(3.0) * -1.0).value == -3.0


def test_comparisons_mix_floats_and_wrapped():
    assert ExtReal(1.0) < ExtReal(2.0)
    assert ExtReal(1.0) < 2.0
    assert POS_INF > 1e300
    assert ExtReal(2.0) <= 2.0
    assert POS_INF >= POS_INF
