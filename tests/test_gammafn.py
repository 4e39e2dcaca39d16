import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from struveradii import StruveParams, log_gamma
from struveradii.struve import shift_rising


def _with_shift(shift: float) -> StruveParams:
    """Parameters whose P = p/delta + (b+2)/2 is ``shift``, exactly for a
    ``shift`` with few binary digits: p = -0.75, delta = 1, b = 2 shift - 0.5."""
    return StruveParams(q=1, p=-0.75, b=2.0 * shift - 0.5, c=1.0, delta=1.0)


def test_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan"), float("inf")])
def test_domain_errors(bad):
    with pytest.raises(ValueError):
        log_gamma(bad)


def test_ratio_values():
    # Gamma(P + m) / Gamma(P) as the exact product (P)_m
    assert shift_rising(_with_shift(2.0), 1) == 2
    assert shift_rising(_with_shift(5.5), 1) == Fraction(11, 2)
    assert shift_rising(_with_shift(2.5), 3) == Fraction(5 * 7 * 9, 8)
    for x in (0.375, 1.0, 3.7, 41.0, 170.0):
        assert shift_rising(_with_shift(x), 0) == 1


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=99.0, allow_nan=False))
def test_recurrence(x):
    lhs = log_gamma(x + 1.0) - log_gamma(x) - math.log(x)
    assert abs(lhs) <= 1e-12 * (1.0 + abs(log_gamma(x)))


def test_half_integer_double_factorial():
    # Gamma(n + 1/2) / Gamma(1/2) = (2n-1)!! / 2^n
    for n in range(1, 21):
        dfact = 1
        for k in range(2 * n - 1, 0, -2):
            dfact *= k
        assert shift_rising(_with_shift(0.5), n) == Fraction(dfact, 2 ** n)
