"""The error bound of every carrier sum holds against a 60-digit sum."""

import mpmath as mp
import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from struveradii import AuxiliaryFamily, StruveParams, find_zeros
from struveradii.struve import _WEIGHTS, carrier, compensated_carrier_value

from conftest import mp_shift


def mp_weighted_carrier(params: StruveParams, key: str, u, dps: int = 60):
    """sum_n beta_n s^n w(n) u^n at the exact P = p/delta + (b+2)/2."""
    base, factors = _WEIGHTS[key]
    with mp.workdps(dps):
        shift = mp_shift(params)
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
    square=st.booleans(),
)
def test_error_bound_holds(q, p, b, c, delta, key, frac, square):
    # u runs log-uniformly from 1e-3 to the square of the 10th zero of W,
    # the scale of the largest arguments the zero finder sums at. With
    # ``square`` the sums run at the rounded x*x for x = sqrt(u), and the
    # bounds must hold at the exact x^2.
    assume(p / delta + (b + 2.0) / 2.0 > 0.0)
    params = StruveParams(q=q, p=p, b=b, c=c, delta=delta)
    u_max = find_zeros(params, AuxiliaryFamily.W, 10).zeros[-1] ** 2
    u = 1e-3 * (u_max / 1e-3) ** frac
    arg = u ** 0.5 if square else u
    with mp.workdps(60):
        exact = mp_weighted_carrier(params, key, mp.mpf(arg) ** 2 if square else arg)
    series = carrier(params, key)

    sv = series.eval_scaled(arg, square=square)
    mant, exponent, error = series.eval_block(np.array([arg]), square=square)
    dd = compensated_carrier_value(params, key, arg, square=square)
    assert dd.exponent == 0
    with mp.workdps(60):
        for m, e, err in ((sv.mantissa, sv.exponent, sv.error),
                          (mant[0], int(exponent[0]), error[0]),
                          (dd.mantissa, 0, dd.error)):
            assert abs(mp.ldexp(mp.mpf(m), e) - exact) <= mp.ldexp(mp.mpf(err), e)
