"""A generalized Struve-type function family and its normalized forms.

The base object is the entire function

    W(x) = sum_{n>=0} (-1)^n c^n / (n! Gamma(q n + P)) * (x/2)^(2n+p+1),
    P = p/delta + (b+2)/2,

defined for q integer >= 1 and delta, b, c > 0, p + 1 > 0. Three
rescalings of W are normalized so that v(0) = 0, v'(0) = 1:

    f(x) = (2^(p+1) Gamma(P) W(x))^(1/(p+1))
    g(x) = 2^(p+1) Gamma(P) x^(-p) W(x)
    h(x) = 2^(p+1) Gamma(P) x^(1-(p+1)/2) W(sqrt(x))

Everything reduces to weighted variants of the core series

    S(u) = sum_n beta_n u^n,
    beta_n = (-1)^n c^n Gamma(P) / (4^n n! Gamma(q n + P)),

for which  2^(p+1) Gamma(P) W(x) = x^(p+1) S(x^2),  g(x) = x S(x^2) and
h(x) = x S(x).  Each carrier is a table of the exact ratios
beta_(n+1) / beta_n = -c / (4 (n+1) prod_j (q n + j + P)) and of its
weights, summed by one recurrence that rescales by powers of two, so no
admissible parameter choice can overflow an evaluation, and every
double-precision sum comes with a running error bound (see ``series``).
Where that bound does not settle a result, the same recurrence is
re-summed in double-double arithmetic (``compensated_carrier_value``).

Only the positive real axis is supported: every radius computed
downstream is the smallest positive root of a real equation. For
non-integer p the power x^(p+1) means exp((p+1) ln x), x > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

from .errors import BranchError, PoleError
from .gammafn import log_gamma
from .series import DD_UNIT_ERROR, LogSeries, ScaledValue, dd_add, dd_div_d, scaled_ratio

__all__ = [
    "StruveParams",
    "NormalizationKind",
    "SeriesTerm",
    "coefficient",
    "eval_w",
    "eval_normalized",
    "log_derivative",
]

_LN2 = math.log(2.0)
# eval_w re-sums in double-double when its double error bound exceeds
# this share of the value.
_EVAL_W_REL = 1e-12


@dataclass(frozen=True)
class StruveParams:
    """Parameter tuple (q, p, b, c, delta) of the series W."""

    q: int
    p: float
    b: float
    c: float
    delta: float

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or isinstance(self.q, bool) or self.q < 1:
            raise ValueError(f"q must be an integer >= 1, got {self.q!r}")
        for name in ("p", "b", "c", "delta"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(float(v)):
                raise ValueError(f"{name} must be a finite real, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.delta <= 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.b <= 0.0:
            raise ValueError(f"b must be > 0, got {self.b}")
        if self.c <= 0.0:
            raise ValueError(f"c must be > 0, got {self.c}")
        if self.p + 1.0 <= 0.0:
            raise ValueError(f"p + 1 must be > 0, got p={self.p}")
        if self.gamma_shift <= 0.0:
            raise ValueError(
                f"p/delta + (b+2)/2 must be > 0, got {self.gamma_shift}"
            )

    @property
    def gamma_shift(self) -> float:
        """The gamma argument offset P = p/delta + (b+2)/2."""
        return self.p / self.delta + (self.b + 2.0) / 2.0


class NormalizationKind(Enum):
    """Which normalized form of W to evaluate."""

    F = "f"
    G = "g"
    H = "h"


@dataclass(frozen=True)
class SeriesTerm:
    """One coefficient a_n = (-1)^n c^n / (n! Gamma(qn+P)) in log form."""

    index: int
    log_magnitude: float
    sign: int


def coefficient(params: StruveParams, n: int) -> SeriesTerm:
    """Coefficient of (x/2)^(2n+p+1) in the defining series of W."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"term index must be a non-negative integer, got {n!r}")
    lg = (
        n * math.log(params.c)
        - log_gamma(n + 1.0)
        - log_gamma(params.q * n + params.gamma_shift)
    )
    return SeriesTerm(index=n, log_magnitude=lg, sign=-1 if n % 2 else 1)


# Each carrier is sum_n beta_n * s^n * prod_f (k_f + a_f) * u^n. The table
# maps a key to s and to the weight's factors at (p, n), each an integer
# k_f plus a_f in {0, p}, so that double-double arithmetic forms every
# factor exactly.
#   w0            S(u):                     W-carrier, u = x^2
#   w1            sum beta_n (2n+p+1) u^n:  W'-carrier
#   w2            sum beta_n (2n+p+1)(2n+p) u^n: W''-carrier
#   g1 / g2       g'(x) = G1(x^2), g''(x) = G2(x^2)/x
#   h1 / h2       h'(x) = H1(x),   h''(x) = H2(x)/x
#   gp_subst      g'(2 sqrt(u))  as a series in u
#   hp_subst      h'(4 u)        as a series in u
#   alexg_subst   (x g'(x))' at x = 2 sqrt(u)
#   alexh         (x h'(x))' at x = u
_WEIGHTS: dict[str, tuple[float, Callable[[float, int], tuple[tuple[float, float], ...]]]] = {
    "w0": (1.0, lambda p, n: ()),
    "w1": (1.0, lambda p, n: ((2.0 * n + 1.0, p),)),
    "w2": (1.0, lambda p, n: ((2.0 * n + 1.0, p), (2.0 * n, p))),
    "g1": (1.0, lambda p, n: ((2.0 * n + 1.0, 0.0),)),
    "g2": (1.0, lambda p, n: ((2.0 * n + 1.0, 0.0), (2.0 * n, 0.0))),
    "h1": (1.0, lambda p, n: ((n + 1.0, 0.0),)),
    "h2": (1.0, lambda p, n: ((n + 1.0, 0.0), (float(n), 0.0))),
    "gp_subst": (4.0, lambda p, n: ((2.0 * n + 1.0, 0.0),)),
    "hp_subst": (4.0, lambda p, n: ((n + 1.0, 0.0),)),
    "alexg_subst": (4.0, lambda p, n: ((2.0 * n + 1.0, 0.0),) * 2),
    "alexh": (1.0, lambda p, n: ((n + 1.0, 0.0),) * 2),
}


def _exact_shift(params: StruveParams) -> tuple[float, float, float]:
    """P = p/delta + (b+2)/2 as a double-double (hi, lo) and a bound on
    its distance from the exact P: one double-double operation's error on
    the terms and the sum."""
    ph, pl = dd_div_d(params.p, 0.0, params.delta)
    bh, bl = dd_add(params.b, 0.0, 2.0, 0.0)
    hi, lo = dd_add(ph, pl, 0.5 * bh, 0.5 * bl)
    return hi, lo, DD_UNIT_ERROR * (abs(ph) + 0.5 * bh + abs(hi))


@lru_cache(maxsize=4096)
def carrier(params: StruveParams, key: str) -> LogSeries:
    """The series sum_n beta_n * s^n * weight(n) * u^n for a weight key.

    Its gamma factors hold P to double-double accuracy, and its error
    bounds cover the rest, so a certified sign is that of the series at the
    exact P. The cache keeps the most recent 4096 series, the carriers of
    several hundred parameter points.
    """
    base, factors = _WEIGHTS[key]
    p = params.p
    hi, lo, error = _exact_shift(params)
    return LogSeries(-params.c * base, params.q, hi,
                     lambda n: factors(p, n),
                     label=f"{key}[q={params.q},p={p},b={params.b},c={params.c},delta={params.delta}]",
                     shift_lo=lo, shift_error=error)


def compensated_carrier_value(params: StruveParams, key: str, u: float,
                              square: bool = False) -> ScaledValue:
    """Double-double sum of a carrier series at u > 0 (at u^2 if
    ``square``), with an error bound (``LogSeries.eval_compensated``)."""
    return carrier(params, key).eval_compensated(u, square)


def _apply_log_prefactor(sv: ScaledValue, ln_pref: float) -> float:
    if sv.mantissa == 0.0:
        return 0.0
    try:
        return sv.mantissa * math.exp(sv.exponent * _LN2 + ln_pref)
    except OverflowError:
        return math.copysign(math.inf, sv.mantissa)


def _check_abscissa(x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"abscissa must be finite and > 0, got {x!r}")
    return x


def eval_w(params: StruveParams, x: float, deriv: int = 0) -> float:
    """Evaluate W, W' or W'' at x > 0 from the term-wise differentiated series.

    The double-precision sum is used when its error bound is within 1e-12
    of its value; otherwise the series is re-summed in double-double.
    """
    if deriv not in (0, 1, 2):
        raise ValueError(f"deriv must be 0, 1 or 2, got {deriv!r}")
    x = _check_abscissa(x)
    key = ("w0", "w1", "w2")[deriv]
    sv = carrier(params, key).eval_scaled(x, square=True)
    if sv.error > _EVAL_W_REL * abs(sv.mantissa):
        sv = compensated_carrier_value(params, key, x, square=True)
    ln_pref = (
        (params.p + 1.0 - deriv) * math.log(x)
        - (params.p + 1.0) * _LN2
        - log_gamma(params.gamma_shift)
    )
    return _apply_log_prefactor(sv, ln_pref)


def eval_normalized(params: StruveParams, kind: NormalizationKind, x: float) -> float:
    """Evaluate one of the normalized forms f, g, h at x > 0."""
    x = _check_abscissa(x)
    kind = NormalizationKind(kind)
    core = carrier(params, "w0")
    if kind is NormalizationKind.G:
        return _apply_log_prefactor(core.eval_scaled(x * x), math.log(x))
    if kind is NormalizationKind.H:
        return _apply_log_prefactor(core.eval_scaled(x), math.log(x))
    sv = core.eval_scaled(x * x)
    if sv.mantissa <= 0.0:
        raise BranchError(
            f"the (p+1)-th root needs 2^(p+1) Gamma(P) W(x) > 0, "
            f"violated at x={x} for {params}"
        )
    ln_core = sv.exponent * _LN2 + math.log(sv.mantissa)
    try:
        return x * math.exp(ln_core / (params.p + 1.0))
    except OverflowError:
        return math.inf


def log_derivative(params: StruveParams, x: float) -> float:
    """x W'(x) / W(x) for x > 0 away from the zeros of W.

    Tends to p+1 as x -> 0+ and decreases to -inf at the first zero of W.
    Raises PoleError when |W(x)| does not exceed the error bound of its
    double-precision sum, that is, when the sum cannot tell W(x) from 0.
    """
    x = _check_abscissa(x)
    s0 = carrier(params, "w0").eval_scaled(x, square=True)
    if s0.certain_sign == 0:
        raise PoleError(
            f"W({x}) cannot be told from 0 within the error bound of its sum "
            f"for {params}"
        )
    s1 = carrier(params, "w1").eval_scaled(x, square=True)
    return scaled_ratio(s1, s0)
