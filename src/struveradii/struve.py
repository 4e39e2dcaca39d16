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
h(x) = x S(x).  Each carrier keeps its weights, as integers, and reads the
exact ratios s beta_(n+1) / beta_n = -s c / (4 (n+1) prod_j (q n + j + P))
from one table per scale s (1 or 4) that all the carriers of a point share.
One recurrence sums them and rescales by powers of two, so no admissible
parameter choice can overflow an evaluation, and every double-precision
sum comes with a running error bound (see ``series``). Where that bound
does not settle a result, the same tables are re-summed exactly, in fixed
point (``compensated_carrier_value``).

P is held exactly (``exact_shift``), and the carriers' ratio tables and
the products (P)_m = Gamma(P+m) / Gamma(P) derive from it.

Only the positive real axis is supported: every radius computed
downstream is the smallest positive root of a real equation. For
non-integer p the power x^(p+1) means exp((p+1) ln x), x > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import BranchError, PoleError, PrecisionLossError
from .series import LogSeries, ScaledValue, scaled_ratio

__all__ = [
    "StruveParams",
    "NormalizationKind",
    "exact_shift",
    "shift_rising",
    "log_gamma",
    "eval_w",
    "eval_normalized",
    "log_derivative",
]

_LN2 = math.log(2.0)
# eval_w and eval_normalized re-sum exactly when the double error bound
# exceeds this share of the value.
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
            if (not isinstance(v, (int, float)) or isinstance(v, bool)
                    or not math.isfinite(float(v))):
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
        if exact_shift(self) <= 0:
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


# Each carrier is sum_n beta_n * s^n * prod_f (m_f n + k_f + a_f) * u^n.
# The table maps a key to s and to the weight's factors (m_f, k_f, with_p):
# integers m_f, k_f and a_f = p if with_p, else 0. A carrier with s = 4 is
# summed at (x/2)^2 (g side) or x/4 (h side), exact in binary arguments.
#   w0            S(u):                     W-carrier, u = x^2
#   w1            sum beta_n (2n+p+1) u^n:  W'-carrier
#   w2            sum beta_n (2n+p+1)(2n+p) u^n: W''-carrier
#   gp_subst      g'(2 sqrt(u))  as a series in u
#   hp_subst      h'(4 u)        as a series in u
#   alexg_subst   (x g'(x))' at x = 2 sqrt(u)
#   alexh         (x h'(x))' at x = u
_WEIGHTS: dict[str, tuple[int, tuple[tuple[int, int, bool], ...]]] = {
    "w0": (1, ()),
    "w1": (1, ((2, 1, True),)),
    "w2": (1, ((2, 1, True), (2, 0, True))),
    "gp_subst": (4, ((2, 1, False),)),
    "hp_subst": (4, ((1, 1, False),)),
    "alexg_subst": (4, ((2, 1, False),) * 2),
    "alexh": (1, ((1, 1, False),) * 2),
}


@lru_cache(maxsize=4096)
def exact_shift(params: StruveParams) -> Fraction:
    """P = p/delta + (b+2)/2 exactly, from the doubles' integer ratios."""
    return Fraction(params.p) / Fraction(params.delta) + (Fraction(params.b) + 2) / 2


def shift_rising(params: StruveParams, m: int) -> Fraction:
    """(P)_m = P (P+1) ... (P+m-1) = Gamma(P+m) / Gamma(P), exactly."""
    num, den = exact_shift(params).as_integer_ratio()
    return Fraction(math.prod(j * den + num for j in range(m)), den ** m)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0, by the platform lgamma (a few ulp).

    Only the prefactor 1/Gamma(P) of ``eval_w`` needs it; every other gamma
    quotient here is an exact product (P)_m (``shift_rising``).
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


@lru_cache(maxsize=4096)
def carrier(params: StruveParams, key: str) -> LogSeries:
    """The series sum_n beta_n * s^n * weight(n) * u^n for a weight key, at
    the exact c, p and P, so that a certified sign is that of the series
    at the exact parameters. The cache keeps the most recent 4096 series,
    the carriers of several hundred parameter points.
    """
    base, factors = _WEIGHTS[key]
    p = params.p
    return LogSeries(-base * Fraction(params.c), params.q, exact_shift(params),
                     tuple((m, k, p if with_p else 0.0) for m, k, with_p in factors),
                     label=f"{key}[q={params.q},p={p},b={params.b},c={params.c},delta={params.delta}]")


def compensated_carrier_value(params: StruveParams, key: str, u: float,
                              square: bool = False,
                              double: ScaledValue | None = None) -> ScaledValue:
    """Exact-tier sum of a carrier series at u > 0 (at u^2 if ``square``),
    with an error bound (``LogSeries.eval_compensated``, which takes the
    caller's double sum at the same argument as ``double``)."""
    return carrier(params, key).eval_compensated(u, square, double)


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


def _carrier_value(params: StruveParams, key: str, x: float, square: bool) -> ScaledValue:
    """The carrier's sum at x (at x^2 if ``square``), re-summed exactly
    where the double error bound exceeds _EVAL_W_REL."""
    sv = carrier(params, key).eval_scaled(x, square)
    if sv.error > _EVAL_W_REL * abs(sv.mantissa):
        sv = compensated_carrier_value(params, key, x, square, sv)
    return sv


def eval_w(params: StruveParams, x: float, deriv: int = 0) -> float:
    """Evaluate W, W' or W'' at x > 0 from the term-wise differentiated series.

    The double-precision sum is used when its error bound is within 1e-12
    of its value; otherwise the series is re-summed exactly.
    """
    if deriv not in (0, 1, 2):
        raise ValueError(f"deriv must be 0, 1 or 2, got {deriv!r}")
    x = _check_abscissa(x)
    sv = _carrier_value(params, ("w0", "w1", "w2")[deriv], x, True)
    ln_pref = (
        (params.p + 1.0 - deriv) * math.log(x)
        - (params.p + 1.0) * _LN2
        - log_gamma(params.gamma_shift)
    )
    return _apply_log_prefactor(sv, ln_pref)


def eval_normalized(params: StruveParams, kind: NormalizationKind, x: float) -> float:
    """Evaluate one of the normalized forms f, g, h at x > 0, summed as in
    eval_w. f needs W(x) > 0: a certified negative sign raises BranchError,
    a sign not even the exact re-sum certifies PrecisionLossError."""
    x = _check_abscissa(x)
    kind = NormalizationKind(kind)
    sv = _carrier_value(params, "w0", x, kind is not NormalizationKind.H)
    if kind is not NormalizationKind.F:
        return _apply_log_prefactor(sv, math.log(x))
    if sv.certain_sign == 0:
        raise PrecisionLossError(f"the sign of W({x}) for {params} is not certified")
    if sv.certain_sign < 0:
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
