"""Independent sign of W and W' at a point, summed with mpmath.

Shares no code with struveradii. The terms of the defining series

    W(x) = (x/2)^(p+1) sum_n (-c)^n / (n! Gamma(qn+P)) (x/2)^(2n),
    P = p/delta + (b+2)/2,

are built from the exact ratio of consecutive terms, at a working
precision chosen from the largest term so that cancellation cannot flip
the sign. The positive prefactor is dropped; W' keeps the weight
(2n+p+1) on each term.
"""

from __future__ import annotations

import math

import mpmath

_LN10 = math.log(10.0)
_GUARD_DIGITS = 30
_RETRIES = 3


def _log_term(n: int, q: int, shift: float, ln_cv: float) -> float:
    """ln |t_n| for t_n = Gamma(P) (-c)^n v^n / (n! Gamma(qn+P)), in double."""
    return (n * ln_cv - math.lgamma(n + 1.0) - math.lgamma(q * n + shift)
            + math.lgamma(shift))


def _peak_and_length(q: int, shift: float, ln_cv: float, digits: int) -> tuple[float, int]:
    """ln of the largest term, and how many terms it takes until they
    fall below 10^-digits and keep falling."""
    peak = 0.0
    prev = 0.0
    n = 1
    while True:
        lt = _log_term(n, q, shift, ln_cv)
        peak = max(peak, lt)
        if n > 8 and lt < -digits * _LN10 and lt < prev:
            return peak, n + 1
        prev = lt
        n += 1


def series_sign(q: int, p: float, b: float, c: float, delta: float, x: float,
                derivative: bool = False) -> int:
    """Sign of W(x) (or W'(x)): +1, -1, or 0 when it cannot be told from zero."""
    with mpmath.workdps(50):
        shift_mp = mpmath.mpf(p) / mpmath.mpf(delta) + (mpmath.mpf(b) + 2) / 2
    shift = float(shift_mp)
    v = (x / 2.0) ** 2
    ln_cv = math.log(c * v)
    digits = _GUARD_DIGITS
    for _ in range(_RETRIES):
        peak, nterms = _peak_and_length(q, shift, ln_cv, digits)
        dps = int(peak / _LN10) + digits
        with mpmath.workdps(dps):
            P = mpmath.mpf(p) / mpmath.mpf(delta) + (mpmath.mpf(b) + 2) / 2
            cv = -mpmath.mpf(c) * mpmath.mpf(x) ** 2 / 4
            pw = mpmath.mpf(p) + 1
            t = mpmath.mpf(1)
            total = pw if derivative else mpmath.mpf(1)
            magnitude = abs(total)
            for n in range(nterms):
                t *= cv / (n + 1)
                for j in range(q):
                    t /= q * n + P + j
                term = t * (2 * n + 2 + pw) if derivative else t
                total += term
                magnitude += abs(term)
            # Each term carries a relative rounding error of a few (q+4)
            # ulps per step; bound the sum's error generously. The tail
            # beyond the last term decays faster than geometrically.
            err = (magnitude * (q + 4) * (nterms + 1) * mpmath.mpf(10) ** (-dps)
                   + 2 * abs(term))
            if abs(total) > 1000 * err:
                return 1 if total > 0 else -1
        digits *= 2
    return 0
