"""Lower and upper bounds for the alpha = 0 radii from power sums of zeros.

For each auxiliary family the normalized series 1 + sum a_n u^n has only
positive real roots rho_1 < rho_2 < ..., and the power sums
S_k = sum_n rho_n^(-k) sandwich the smallest root:

    S_k^(-1/k) < rho_1 < S_k / S_(k+1),    k = 1, 2, ...

both sides tightening as k grows. Back-substituting each family's change
of variable turns the rho_1 bounds into bounds on the corresponding
radius (square roots and factors 2 or 4, see _BACK_SUBST).

S_1 and S_2 have closed forms in gamma ratios; general k comes from
Newton's identities applied to the normalized series coefficients,
S_k = -k a_k - sum_{i=1}^{k-1} a_i S_{k-i}, with the relative size of the
surviving sum monitored against the largest intermediate term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import PrecisionLossError
from .gammafn import gamma_ratio
from .struve import StruveParams
from .zeros import AuxiliaryFamily, family_series

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
_CANCEL_LIMIT = 1e-6


class SumSource(Enum):
    CLOSED_FORM = "closed-form"
    NEWTON = "newton"


class BoundRadiusKind(Enum):
    STARLIKE0 = "starlike0"
    CONVEX0 = "convex0"


_BOUND_FAMILIES = (
    AuxiliaryFamily.W_PRIME,
    AuxiliaryFamily.G_PRIME_SUBST,
    AuxiliaryFamily.H_PRIME_SUBST,
    AuxiliaryFamily.ALEX_G_SUBST,
    AuxiliaryFamily.ALEX_H,
)

_RADIUS_KIND = {
    AuxiliaryFamily.W_PRIME: BoundRadiusKind.STARLIKE0,
    AuxiliaryFamily.G_PRIME_SUBST: BoundRadiusKind.STARLIKE0,
    AuxiliaryFamily.H_PRIME_SUBST: BoundRadiusKind.STARLIKE0,
    AuxiliaryFamily.ALEX_G_SUBST: BoundRadiusKind.CONVEX0,
    AuxiliaryFamily.ALEX_H: BoundRadiusKind.CONVEX0,
}


@dataclass(frozen=True)
class RayleighSums:
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


def newton_power_sums(coeffs: Sequence[float], kmax: int) -> list[float]:
    """Power sums of reciprocal roots of 1 + sum_{n>=1} coeffs[n] u^n.

    ``coeffs[0]`` must be 1; missing high-order coefficients count as zero
    (a finite polynomial then yields the exact sums over its roots).
    Raises PrecisionLossError when cancellation in the recurrence leaves
    less than a 1e-6 fraction of the largest intermediate term, or when a
    sum comes out non-positive, which the positive-root setting forbids.
    """
    if not coeffs or coeffs[0] != 1.0:
        raise ValueError("coefficient list must start with 1.0")
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax!r}")

    def a(n: int) -> float:
        return float(coeffs[n]) if n < len(coeffs) else 0.0

    sums: list[float] = []
    for k in range(1, kmax + 1):
        terms = [-k * a(k)]
        terms.extend(-a(i) * sums[k - i - 1] for i in range(1, k))
        s_k = math.fsum(terms)
        largest = max(abs(t) for t in terms)
        if s_k <= 0.0 or (largest > 0.0 and abs(s_k) < _CANCEL_LIMIT * largest):
            raise PrecisionLossError(
                f"power sum S_{k} lost too many digits "
                f"(value {s_k!r}, largest term {largest!r})"
            )
        sums.append(s_k)
    return sums


def _normalized_coeffs(params: StruveParams, family: AuxiliaryFamily,
                       kmax: int) -> list[float]:
    a = family_series(params, family).coefficients(kmax)
    coeffs = [1.0] + [a_n / a[0] for a_n in a[1:]]
    if not all(math.isfinite(x) for x in coeffs):
        raise PrecisionLossError(
            f"normalized coefficients of {family.value} leave the double range: {coeffs}")
    return coeffs


def rayleigh_sums_newton(params: StruveParams, family: AuxiliaryFamily,
                         kmax: int) -> RayleighSums:
    """S_1 .. S_kmax from Newton's identities on the family's series."""
    family = AuxiliaryFamily(family)
    if not isinstance(kmax, int) or not 1 <= kmax <= MAX_K:
        raise ValueError(f"kmax must be an integer in [1, {MAX_K}], got {kmax!r}")
    sums = newton_power_sums(_normalized_coeffs(params, family, kmax), kmax)
    return RayleighSums(family=family, sums=tuple(sums), source=SumSource.NEWTON)


def rayleigh_sums_closed_form(params: StruveParams,
                              family: AuxiliaryFamily) -> RayleighSums:
    """The closed forms of S_1 and S_2 in gamma ratios, per family."""
    family = AuxiliaryFamily(family)
    if family not in _BOUND_FAMILIES:
        raise ValueError(f"no closed-form power sums for family {family}")
    p, c, q = params.p, params.c, params.q
    shift = params.gamma_shift
    g1 = gamma_ratio(shift, q + shift)        # Gamma(P) / Gamma(q+P)
    g2 = gamma_ratio(shift, 2.0 * q + shift)  # Gamma(P) / Gamma(2q+P)
    if family is AuxiliaryFamily.W_PRIME:
        s1 = c * (p + 3.0) * g1 / (4.0 * (p + 1.0))
        s2 = (c * c * (p + 3.0) ** 2 * g1 * g1 / (16.0 * (p + 1.0) ** 2)
              - c * c * (p + 5.0) * g2 / (16.0 * (p + 1.0)))
    elif family is AuxiliaryFamily.G_PRIME_SUBST:
        s1 = 3.0 * c * g1
        s2 = 9.0 * c * c * g1 * g1 - 5.0 * c * c * g2
    elif family is AuxiliaryFamily.H_PRIME_SUBST:
        s1 = 2.0 * c * g1
        s2 = 4.0 * c * c * g1 * g1 - 3.0 * c * c * g2
    elif family is AuxiliaryFamily.ALEX_G_SUBST:
        s1 = 9.0 * c * g1
        s2 = 81.0 * c * c * g1 * g1 - 25.0 * c * c * g2
    else:  # ALEX_H
        s1 = c * g1
        s2 = c * c * g1 * g1 - 9.0 * c * c * g2 / 16.0
    return RayleighSums(family=family, sums=(s1, s2), source=SumSource.CLOSED_FORM)


def _back_substitute(family: AuxiliaryFamily, k: int, s_k: float,
                     s_k1: float) -> tuple[float, float]:
    # W' zeros enter the sums as eps^(-2k) and the radius is eps_1 itself;
    # g-side substitutions map u back through 2 sqrt(u); h' lives at 4u;
    # the h convexity function is already in the radius variable.
    if family is AuxiliaryFamily.W_PRIME:
        return s_k ** (-0.5 / k), math.sqrt(s_k / s_k1)
    if family in (AuxiliaryFamily.G_PRIME_SUBST, AuxiliaryFamily.ALEX_G_SUBST):
        return 2.0 * s_k ** (-0.5 / k), 2.0 * math.sqrt(s_k / s_k1)
    if family is AuxiliaryFamily.H_PRIME_SUBST:
        return 4.0 * s_k ** (-1.0 / k), 4.0 * s_k / s_k1
    return s_k ** (-1.0 / k), s_k / s_k1  # ALEX_H


def bounds_for(params: StruveParams, family: AuxiliaryFamily, k: int) -> BoundsPair:
    """Lower/upper bounds at index k for the family's alpha = 0 radius."""
    family = AuxiliaryFamily(family)
    if family not in _BOUND_FAMILIES:
        raise ValueError(f"no radius bounds are defined for family {family}")
    if not isinstance(k, int) or not 1 <= k <= MAX_K - 1:
        raise ValueError(f"k must be an integer in [1, {MAX_K - 1}], got {k!r}")
    sums = rayleigh_sums_newton(params, family, k + 1)
    if k == 1:
        closed = rayleigh_sums_closed_form(params, family)
        for newton_s, closed_s in zip(sums.sums, closed.sums):
            if abs(newton_s - closed_s) > 1e-9 * abs(closed_s):
                raise PrecisionLossError(
                    f"Newton sums disagree with closed forms for {family}: "
                    f"{sums.sums[:2]} vs {closed.sums}"
                )
    lower, upper = _back_substitute(family, k, sums.sums[k - 1], sums.sums[k])
    # Strict ordering holds mathematically; at large k the two sides can
    # converge to the same double, which is success rather than failure.
    if not (math.isfinite(lower) and math.isfinite(upper) and 0.0 < lower <= upper):
        raise PrecisionLossError(
            f"bounds for {family} at k={k} are not ordered: ({lower}, {upper})"
        )
    return BoundsPair(k=k, lower=lower, upper=upper, family=family,
                      radius_kind=_RADIUS_KIND[family])


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
    shift = params.gamma_shift
    g1 = gamma_ratio(shift, q + shift)
    ratio21 = gamma_ratio(2.0 * q + shift, q + shift)  # Gamma(2q+P)/Gamma(q+P)
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
