"""Shared high-precision oracles for the test suite.

The reference evaluator sums the defining series with mpmath at 40+
digits from gamma functions, entirely independent of the package's
ratio-recurrence summation.
"""

from __future__ import annotations

import mpmath as mp
import pytest

from struveradii import StruveParams


def mp_shift(params: StruveParams) -> mp.mpf:
    return mp.mpf(params.p) / mp.mpf(params.delta) + (mp.mpf(params.b) + 2) / 2


def mp_w(params: StruveParams, x, deriv: int = 0, dps: int = 40):
    """Reference value of W, W' or W'' by direct high-precision summation."""
    with mp.workdps(dps):
        shift = mp_shift(params)
        xm = mp.mpf(x)
        total = mp.mpf(0)
        for n in range(160):
            a = (-1) ** n * mp.mpf(params.c) ** n / (
                mp.factorial(n) * mp.gamma(params.q * n + shift))
            e = 2 * n + mp.mpf(params.p) + 1
            if deriv == 0:
                t = a * (xm / 2) ** e
            elif deriv == 1:
                t = a * e * (xm / 2) ** (e - 1) / 2
            else:
                t = a * e * (e - 1) * (xm / 2) ** (e - 2) / 4
            total += t
        return total


def mp_carrier(params: StruveParams, u, dps: int = 40):
    """Reference value of S(u) = sum beta_n u^n."""
    with mp.workdps(dps):
        shift = mp_shift(params)
        um = mp.mpf(u)
        total = mp.mpf(0)
        for n in range(160):
            total += ((-1) ** n * mp.mpf(params.c) ** n * mp.gamma(shift)
                      / (mp.mpf(4) ** n * mp.factorial(n)
                         * mp.gamma(params.q * n + shift)) * um ** n)
        return total


@pytest.fixture(scope="session")
def bessel_params() -> StruveParams:
    return StruveParams(q=1, p=0.0, b=2.0, c=1.0, delta=1.0)
