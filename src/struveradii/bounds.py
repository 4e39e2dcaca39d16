"""Lower and upper bounds for the alpha = 0 radii from power sums of zeros.

For each auxiliary family the normalized series 1 + sum a_n u^n has only
positive real roots rho_1 < rho_2 < ..., and the power sums
S_k = sum_n rho_n^(-k) sandwich the smallest root:

    S_k^(-1/k) < rho_1 < S_k / S_(k+1),    k = 1, 2, ...

both sides tightening as k grows. Back-substituting each family's change
of variable turns the rho_1 bounds into bounds on the corresponding
radius (square roots and factors 2 or 4, see _FAMILIES).

Every a_n is rational in the input doubles, so Newton's identities
S_k = -k a_k - sum_{i=1}^{k-1} a_i S_{k-i} run in integers on the carrier
(``LogSeries.power_sums``) and give S_k exactly, and each bound is
rounded outward from it: lower < rho_1 < upper holds for the exact
parameters. The closed forms of S_1 and S_2 are an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .radii import _BOUNDED
from .series import _newton
from .struve import StruveParams, carrier, shift_rising
from .zeros import _CARRIER_KEY, AuxiliaryFamily

__all__ = [
    "SumSource",
    "BoundRadiusKind",
    "RayleighSums",
    "BoundsPair",
    "newton_power_sums",
    "rayleigh_sums_closed_form",
    "rayleigh_sums_newton",
    "bounds_for",
    "statement_form_bounds",
]

MAX_K = 12


class SumSource(Enum):
    CLOSED_FORM = "closed-form"
    NEWTON = "newton"


class BoundRadiusKind(Enum):
    STARLIKE0 = "starlike0"
    CONVEX0 = "convex0"


# Per family: the radius bounded, and (s, e) with rho = (r / s)^e for the
# radius r, as the radius equations sum the family's carrier.
_FAMILIES = {family: (BoundRadiusKind(f"{kind.value}0"), s, e)
             for family, kind, _, s, e in _BOUNDED.values()}

# S_1 = A c Gamma(P)/Gamma(q+P) and S_2 = S_1^2 - B c^2 Gamma(P)/Gamma(2q+P),
# with (A, B) per family as functions of p.
_CLOSED_FORMS = {
    AuxiliaryFamily.W_PRIME: lambda p: ((p + 3.0) / (4.0 * (p + 1.0)),
                                        (p + 5.0) / (16.0 * (p + 1.0))),
    AuxiliaryFamily.G_PRIME_SUBST: lambda p: (3.0, 5.0),
    AuxiliaryFamily.H_PRIME_SUBST: lambda p: (2.0, 3.0),
    AuxiliaryFamily.ALEX_G_SUBST: lambda p: (9.0, 25.0),
    AuxiliaryFamily.ALEX_H: lambda p: (1.0, 9.0 / 16.0),
}


@dataclass(frozen=True)
class RayleighSums:
    """Power sums S_1, S_2, ... as the nearest doubles, inf beyond range."""

    family: AuxiliaryFamily
    sums: tuple[float, ...]
    source: SumSource


@dataclass(frozen=True)
class BoundsPair:
    k: int
    lower: float
    upper: float
    family: AuxiliaryFamily
    radius_kind: BoundRadiusKind


def newton_power_sums(coeffs: Sequence[float | Fraction], kmax: int) -> list[Fraction]:
    """Exact power sums of reciprocal roots of 1 + sum_{n>=1} coeffs[n] u^n.

    ``coeffs[0]`` must be 1; missing high-order coefficients count as zero.
    Raises PrecisionLossError for a sum that is not positive, which the
    positive-root setting forbids."""
    exact = [Fraction(c) for c in coeffs]
    if not exact or exact[0] != 1 or kmax < 1:
        raise ValueError(f"need coeffs[0] == 1 and kmax >= 1, got {coeffs[:1]}, {kmax!r}")
    den = math.lcm(*(c.denominator for c in exact))
    sigma = _newton([c.numerator * (den // c.denominator) for c in exact], den, kmax)
    return [Fraction(s, den ** k) for k, s in enumerate(sigma, 1)]


def _nearest(num: int, den: int) -> float:
    """num / den > 0 as the nearest double, inf beyond the double range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def rayleigh_sums_newton(params: StruveParams, family: AuxiliaryFamily,
                         kmax: int) -> RayleighSums:
    """S_1 .. S_kmax from Newton's identities on the family's series."""
    family = AuxiliaryFamily(family)
    if not isinstance(kmax, int) or not 1 <= kmax <= MAX_K:
        raise ValueError(f"kmax must be an integer in [1, {MAX_K}], got {kmax!r}")
    sigma, den = carrier(params, _CARRIER_KEY[family]).power_sums(kmax)
    sums = tuple(_nearest(s, den ** k) for k, s in enumerate(sigma, 1))
    return RayleighSums(family=family, sums=sums, source=SumSource.NEWTON)


def rayleigh_sums_closed_form(params: StruveParams,
                              family: AuxiliaryFamily) -> RayleighSums:
    """The closed forms of S_1 and S_2 in gamma ratios, per family."""
    family = AuxiliaryFamily(family)
    if family not in _CLOSED_FORMS:
        raise ValueError(f"no closed-form power sums for family {family}")
    a, b = _CLOSED_FORMS[family](params.p)
    c, q = params.c, params.q
    s1 = a * c * float(1 / shift_rising(params, q))
    s2 = s1 * s1 - b * c * c * float(1 / shift_rising(params, 2 * q))
    return RayleighSums(family=family, sums=(s1, s2), source=SumSource.CLOSED_FORM)


def _round_outward(num: int, den: int, j: int, s: int, down: bool) -> float:
    """The largest double at or below r = s (num/den)^(1/j) if ``down``,
    else the smallest at or above it (num, den, j, s positive integers),
    found in ulp steps from a 64-bit estimate by exact comparisons."""
    shift = 64 - (num.bit_length() - den.bit_length())
    m = (num << shift) // den if shift >= 0 else num // (den << -shift)
    e, rem = divmod(-shift, j)
    try:
        x = s * math.ldexp(math.ldexp(float(m), rem) ** (1.0 / j), e)
    except OverflowError:
        x = math.inf

    def on_side(y: float) -> bool:
        if y == math.inf:
            return not down
        y_num, y_den = y.as_integer_ratio()
        left, right = y_num ** j * den, (s * y_den) ** j * num
        return left <= right if down else left >= right

    inward = math.inf if down else -math.inf
    while not on_side(x):
        x = math.nextafter(x, -inward)
    while (y := math.nextafter(x, inward)) != x and on_side(y):
        x = y
    return x


def bounds_for(params: StruveParams, family: AuxiliaryFamily, k: int) -> BoundsPair:
    """Lower/upper bounds at index k for the family's alpha = 0 radius,
    rounded outward from the exact power sums. At large k the two sides can
    meet in adjacent doubles."""
    family = AuxiliaryFamily(family)
    if family not in _FAMILIES:
        raise ValueError(f"no radius bounds are defined for family {family}")
    if not isinstance(k, int) or not 1 <= k <= MAX_K - 1:
        raise ValueError(f"k must be an integer in [1, {MAX_K - 1}], got {k!r}")
    sigma, den = carrier(params, _CARRIER_KEY[family]).power_sums(k + 1)
    kind, s, e = _FAMILIES[family]
    # S_k^(-1/k) = (den^k / sigma_k)^(1/k), S_k / S_(k+1) = sigma_k den / sigma_(k+1)
    lower = _round_outward(den ** k, sigma[k - 1], e * k, s, down=True)
    upper = _round_outward(sigma[k - 1] * den, sigma[k], e, s, down=False)
    return BoundsPair(k=k, lower=lower, upper=upper, family=family, radius_kind=kind)


def statement_form_bounds(params: StruveParams,
                          family: AuxiliaryFamily) -> tuple[float, float] | None:
    """Alternative k = 1 closed forms kept for report transparency.

    Two families circulate with slightly different printed bounds whose
    coefficients disagree with the series-derived ones (a factor sqrt(2)
    on the W' lower bound, a 2(p+5)(p+1) term in its upper denominator,
    and a missing 81 in the g-convexity upper denominator). The computed
    bounds use the series-derived forms, which the Bessel special cases
    confirm; these variants are only emitted alongside them in reports.
    """
    family = AuxiliaryFamily(family)
    p, c, q = params.p, params.c, params.q
    rising_q = shift_rising(params, q)
    g1 = float(1 / rising_q)                                 # Gamma(P)/Gamma(q+P)
    ratio21 = float(shift_rising(params, 2 * q) / rising_q)  # Gamma(2q+P)/Gamma(q+P)
    if family is AuxiliaryFamily.W_PRIME:
        lower = math.sqrt(2.0 * (p + 1.0) / (c * (p + 3.0) * g1))
        den = c * ((p + 3.0) ** 2 * g1 * ratio21 - 2.0 * (p + 5.0) * (p + 1.0))
        upper = 2.0 * math.sqrt((p + 1.0) * (p + 3.0) * ratio21 / den)
        return lower, upper
    if family is AuxiliaryFamily.ALEX_G_SUBST:
        lower = (2.0 / 3.0) * math.sqrt(1.0 / (c * g1))
        den = c * (g1 * ratio21 - 25.0)
        upper = 6.0 * math.sqrt(ratio21 / den) if den > 0.0 else math.inf
        return lower, upper
    return None
