"""The error bound of every carrier sum holds against a 60-digit sum."""

import mpmath as mp
import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from struveradii import AuxiliaryFamily, StruveParams, find_zeros
from struveradii.struve import _WEIGHTS, carrier, compensated_carrier_value


def mp_weighted_carrier(params: StruveParams, key: str, u: float, dps: int = 60):
    """sum_n beta_n s^n w(n) u^n at the double P the package sums with.

    P is taken as the double ``params.gamma_shift``, not as the exact
    p/delta + (b+2)/2: the bound covers the summation, not the rounding
    of the parameters.
    """
    base, factors = _WEIGHTS[key]
    with mp.workdps(dps):
        shift = mp.mpf(params.gamma_shift)
        z = -mp.mpf(params.c) * base * mp.mpf(u) / 4
        g_shift = mp.gamma(shift)
        total = mp.mpf(0)
        biggest = mp.mpf(0)
        n = 0
        while True:
            term = z ** n * g_shift / (mp.factorial(n) * mp.gamma(params.q * n + shift))
            for k, a in factors(params.p, n):
                term *= mp.mpf(k) + mp.mpf(a)
            total += term
            biggest = max(biggest, abs(term))
            if n > 8 and abs(term) < mp.mpf(10) ** (-dps - 5) * biggest:
                return total
            n += 1


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    q=st.integers(min_value=1, max_value=3),
    p=st.floats(min_value=-0.9, max_value=3.0),
    b=st.floats(min_value=0.5, max_value=3.0),
    c=st.floats(min_value=0.25, max_value=4.0),
    delta=st.floats(min_value=0.5, max_value=2.0),
    key=st.sampled_from(sorted(_WEIGHTS)),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_error_bound_holds(q, p, b, c, delta, key, frac):
    # u runs log-uniformly from 1e-3 to the square of the 10th zero of W,
    # the scale of the largest arguments the zero finder sums at.
    assume(p / delta + (b + 2.0) / 2.0 > 0.0)
    params = StruveParams(q=q, p=p, b=b, c=c, delta=delta)
    u_max = find_zeros(params, AuxiliaryFamily.W, 10).zeros[-1] ** 2
    u = 1e-3 * (u_max / 1e-3) ** frac
    exact = mp_weighted_carrier(params, key, u)
    series = carrier(params, key)

    sv = series.eval_scaled(u)
    mant, exponent, error = series.eval_block(np.array([u]))
    dd = compensated_carrier_value(params, key, u)
    assert dd.exponent == 0
    with mp.workdps(60):
        for m, e, err in ((sv.mantissa, sv.exponent, sv.error),
                          (mant[0], int(exponent[0]), error[0]),
                          (dd.mantissa, 0, dd.error)):
            assert abs(mp.ldexp(mp.mpf(m), e) - exact) <= mp.ldexp(mp.mpf(err), e)
