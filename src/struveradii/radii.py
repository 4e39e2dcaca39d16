"""Radii of starlikeness and convexity of order alpha.

Each radius is the smallest positive root of a transcendental equation.
On the search interval the underlying quotient (r v'(r)/v(r) for
starlikeness, 1 + r v''(r)/v'(r) for convexity, v in {f, g, h}) decreases
strictly from 1 at r = 0+ to -inf at the interval's right end, so the
root is unique and simple. It is polished (``zeros._polish``, a
safeguarded regula falsi) on certified signs of (quotient - alpha): +1 at
r = 0, where the value is 1 - alpha, elsewhere as the carriers' error
bounds settle it, from the double sums or else from the exact re-sums,
and -1 required at the right end (else BracketError). Solving the
quotient form rather than the cleared-denominator form avoids spurious
roots at zeros of W or W'.

Search intervals, bounded by first zeros from the zeros module:

    starlike f, g   (0, x1)     x1 = first zero of W
    starlike h      (0, x1^2)
    convex f        (0, x1')    x1' = first zero of W'
    convex g        (0, first zero of g')
    convex h        (0, first zero of h')
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import BracketError
from .series import UNIT_ROUNDOFF, scaled_ratio
from .struve import NormalizationKind, StruveParams, carrier, compensated_carrier_value
from .zeros import AuxiliaryFamily, _polish, first_zero

__all__ = [
    "RadiusKind",
    "RadiusQuery",
    "RadiusResult",
    "radius_starlike",
    "radius_convex",
]

_BRACKET_HI = 1.0 - 1e-10  # times the upper limit
_WIDTH = 1e-13             # relative bracket width
_EPS = 2.0 * UNIT_ROUNDOFF


class RadiusKind(Enum):
    STARLIKE = "starlike"
    CONVEX = "convex"


@dataclass(frozen=True)
class RadiusQuery:
    params: StruveParams
    kind: RadiusKind
    normalization: NormalizationKind
    alpha: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", RadiusKind(self.kind))
        object.__setattr__(self, "normalization", NormalizationKind(self.normalization))
        a = float(self.alpha)
        if not (math.isfinite(a) and 0.0 <= a < 1.0):
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class RadiusResult:
    """A computed radius with its sign-certified bracket and diagnostics.

    ``iterations`` counts the polish steps, ``residual`` is the double
    quotient-minus-alpha value at ``value`` and ``upper_limit`` the
    first-zero bound of the search interval.
    """

    value: float
    bracket: tuple[float, float]
    residual: float
    iterations: int
    upper_limit: float


# Each quotient as data: const + sum coef * num / den over carriers summed
# at u = r^2 (f, g) or u = r (h). A row maps p to (const, ((coef, num, den),
# ...)); a const is within one rounding of exact, a coef within two.
_EQUATIONS: dict[tuple[str, str], Callable[[float], tuple]] = {
    ("starlike", "f"): lambda p: (0.0, ((1.0 / (p + 1.0), "w1", "w0"),)),
    ("starlike", "g"): lambda p: (-p, ((1.0, "w1", "w0"),)),
    ("starlike", "h"): lambda p: ((1.0 - p) / 2.0, ((0.5, "w1", "w0"),)),
    ("convex", "f"): lambda p: (1.0, ((-p / (p + 1.0), "w1", "w0"), (1.0, "w2", "w1"))),
    ("convex", "g"): lambda p: (1.0, ((1.0, "g2", "g1"),)),
    ("convex", "h"): lambda p: (1.0, ((1.0, "h2", "h1"),)),
}


def _upper_limit(params: StruveParams, kind: RadiusKind,
                 norm: NormalizationKind) -> float:
    if kind is RadiusKind.STARLIKE:
        w1 = first_zero(params, AuxiliaryFamily.W)
        return w1 * w1 if norm is NormalizationKind.H else w1
    if norm is NormalizationKind.F:
        return first_zero(params, AuxiliaryFamily.W_PRIME)
    if norm is NormalizationKind.G:
        return 2.0 * math.sqrt(first_zero(params, AuxiliaryFamily.G_PRIME_SUBST))
    return 4.0 * first_zero(params, AuxiliaryFamily.H_PRIME_SUBST)


def _solve(query: RadiusQuery) -> RadiusResult:
    params, alpha = query.params, query.alpha
    const, terms = _EQUATIONS[query.kind.value, query.normalization.value](params.p)
    keys = list(dict.fromkeys(k for _, num, den in terms for k in (num, den)))
    series = [carrier(params, k) for k in keys]
    terms = [(coef, abs(coef), keys.index(num), keys.index(den)) for coef, num, den in terms]
    squared = query.normalization is not NormalizationKind.H

    def excess(r: float, compensated: bool = False) -> tuple[float, float, float]:
        """quotient - alpha at r, the error bound of its carrier sums and
        that of its own roundings: sums n~, d~ with bounds e_n, e_d put n/d
        within (e_n + |n~/d~| e_d) / (|d~| - e_d) of n~/d~ (unbounded if d's
        sign is uncertain); roundings: 4 units per term, 1 per constant and
        partial sum, 8 per ratio bound, all doubled."""
        if compensated:
            values = [compensated_carrier_value(params, k, r, squared) for k in keys]
        else:
            values = [s.eval_scaled(r, squared) for s in series]
        value = const - alpha
        error, rounding = 0.0, abs(const) + abs(value)
        for coef, abs_coef, i, j in terms:
            n, d = values[i], values[j]
            term = coef * scaled_ratio(n, d)
            value += term
            rounding += 4.0 * abs(term) + abs(value)
            room = abs(d.mantissa) - d.error
            if not room > 0.0:
                error = math.inf
                continue
            e = (n.error + abs(n.mantissa / d.mantissa) * d.error) / room
            error += abs_coef * math.ldexp(e, n.exponent - d.exponent)
        return value, (1.0 + 8.0 * _EPS) * error, _EPS * rounding

    def at(r: float) -> tuple[float, int]:
        """quotient - alpha at r and its certified sign. The exact re-sum
        shares the rounding term of the quotient, so it is skipped
        where that term alone reaches the value."""
        value, error, rounding = excess(r)
        if rounding < abs(value) <= error + rounding:
            value, error, rounding = excess(r, True)
        if abs(value) > error + rounding:
            return value, (value > 0.0) - (value < 0.0)
        return value, 0

    upper = _upper_limit(params, query.kind, query.normalization)
    hi = _BRACKET_HI * upper
    f_hi, s = at(hi)
    if s != -1:
        raise BracketError(f"quotient - alpha is not certified negative at r={hi!r}")
    lo, hi, steps = _polish(at, 0.0, hi, 1.0 - alpha, f_hi, _WIDTH)
    value = 0.5 * (lo + hi)
    return RadiusResult(
        value=value,
        bracket=(lo, hi),
        residual=excess(value)[0],
        iterations=steps,
        upper_limit=upper,
    )


def radius_starlike(query: RadiusQuery) -> RadiusResult:
    """Radius of starlikeness of order alpha for the chosen normalization."""
    if query.kind is not RadiusKind.STARLIKE:
        raise ValueError(f"query kind must be STARLIKE, got {query.kind}")
    return _solve(query)


def radius_convex(query: RadiusQuery) -> RadiusResult:
    """Radius of convexity of order alpha for the chosen normalization."""
    if query.kind is not RadiusKind.CONVEX:
        raise ValueError(f"query kind must be CONVEX, got {query.kind}")
    return _solve(query)
