"""The error bound of every carrier sum holds against a 60-digit sum, and
the carriers of a point share their ratio tables without changing a bit."""

import gc
import weakref
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from struveradii import AuxiliaryFamily, StruveParams, find_zeros, series
from struveradii.series import LogSeries
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
            for m, k, with_p in factors:
                term *= m * n + k + (mp.mpf(params.p) if with_p else 0)
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


@pytest.mark.parametrize("q, x", [(1, 66.6262), (1, 150.0), (2, 1131.0)])
def test_exact_tier_far_out(q, x):
    # Here the double sum cancels by 25 to 60 digits, far below its own
    # precision. The exact re-sum certifies the sign, and its bound holds
    # at the exact x^2 against a 120-digit sum.
    params = StruveParams(q=q, p=0.5, b=1.0, c=1.0, delta=1.0)
    sv = compensated_carrier_value(params, "w0", x, square=True)
    assert sv.exponent == 0
    assert sv.certain_sign != 0
    with mp.workdps(120):
        exact = mp_weighted_carrier(params, "w0", mp.mpf(x) ** 2, dps=120)
        assert abs(mp.mpf(sv.mantissa) - exact) <= sv.error


Q2_PARAMS = StruveParams(q=2, p=0.5, b=1.0, c=2.0, delta=0.5)


def test_carriers_share_one_table_per_scale():
    tables = {key: carrier(Q2_PARAMS, key)._table for key in _WEIGHTS}
    for key, (base, _) in _WEIGHTS.items():
        assert tables[key] is tables["w0" if base == 1 else "gp_subst"]
    assert tables["w0"] is not tables["gp_subst"]


def _outputs(series_: LogSeries) -> list:
    return [series_.eval_scaled(0.3), series_.eval_scaled(2.5, square=True),
            [a.tolist() for a in series_.eval_block(np.array([0.2, 1.5, 6.0]))],
            series_.eval_compensated(3.1), series_.eval_compensated(1.7, square=True),
            series_.power_sums(6)]


@pytest.mark.parametrize("key", sorted(_WEIGHTS))
def test_cold_table_matches_grown_table(monkeypatch, key):
    # A carrier built on a table of its own, and one built on a table that
    # another carrier of its scale has already grown far, sum alike.
    build = carrier.__wrapped__  # a new series, past carrier's cache
    monkeypatch.setattr(series, "_TABLES", weakref.WeakValueDictionary())
    cold = build(Q2_PARAMS, key)
    assert cold._table.ratios == []
    expected = _outputs(cold)
    monkeypatch.setattr(series, "_TABLES", weakref.WeakValueDictionary())
    grower = build(Q2_PARAMS, "w2" if _WEIGHTS[key][0] == 1 else "alexg_subst")
    grower.eval_scaled(400.0)
    warm = build(Q2_PARAMS, key)
    assert warm._table is grower._table
    assert len(warm._table.ratios) > len(cold._table.ratios)
    assert _outputs(warm) == expected


def test_table_leaves_with_its_last_series():
    key = (Fraction(-7, 3), 2, Fraction(5, 2))  # a scale no carrier uses
    only = LogSeries(*key, ())
    only.eval_scaled(1.0)
    assert series._TABLES[key] is only._table
    del only
    gc.collect()
    assert key not in series._TABLES
