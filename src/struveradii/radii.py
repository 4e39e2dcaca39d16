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

Every quotient is a ratio of the zero families' carriers (``zeros``):
r g'/g = g'/(g/r), 1 + r g''/g' = (r g')'/g', likewise for h, and f on W,
W' and W''. The search interval ends at the first zero of the family of
the row's last denominator (W' for convex f: W' zeros precede W zeros),
mapped back to r. The same rows say which family bounds which alpha = 0
radius (``_BOUNDED``, read by ``bounds``, ``bessel``, ``verify``, ``cli``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import BracketError
from .series import UNIT_ROUNDOFF, ScaledValue, scaled_ratio
from .struve import (_WEIGHTS, NormalizationKind, StruveParams, carrier,
                     compensated_carrier_value)
from .zeros import _CARRIER_KEY, _SQUARED, _polish, first_zero

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


# Each quotient as data: const + sum_i coef_i num_i / den_i over carriers,
# a row holding p -> (const, coef_1, ...) and the keys (num_i, den_i). Rows
# of f and g sum at u = r^2 and rows of h at u = r, each carrier at u / s
# for its scale s (``struve._WEIGHTS``): at (r / sqrt(s))^2 or at r / s,
# exact dyadic arguments. A const is within one rounding of exact, a coef
# within two.
_EQUATIONS = {
    ("starlike", "f"): (lambda p: (0.0, 1.0 / (p + 1.0)), (("w1", "w0"),)),
    ("starlike", "g"): (lambda p: (0.0, 1.0), (("gp_subst", "w0"),)),
    ("starlike", "h"): (lambda p: (0.0, 1.0), (("hp_subst", "w0"),)),
    ("convex", "f"): (lambda p: (1.0, -p / (p + 1.0), 1.0), (("w1", "w0"), ("w2", "w1"))),
    ("convex", "g"): (lambda p: (0.0, 1.0), (("alexg_subst", "gp_subst"),)),
    ("convex", "h"): (lambda p: (0.0, 1.0), (("alexh", "hp_subst"),)),
}

_FAMILY = {key: family for family, key in _CARRIER_KEY.items()}


def _scale(key: str, norm: str) -> tuple[int, int]:
    """(s, e) such that the row of ``norm`` sums the carrier at (r / s)^e."""
    base = _WEIGHTS[key][0]
    return (base, 1) if norm == "h" else (math.isqrt(base), 2)


# A one-term row has const 0, so at alpha = 0 its radius is the first zero
# of its numerator's family. By the family's CLI flag: the family, the row,
# and the (s, e) that make the family's root rho = (r / s)^e.
_BOUNDED = {
    f"{norm}-{kind}": (_FAMILY[terms[0][0]], RadiusKind(kind), NormalizationKind(norm),
                       *_scale(terms[0][0], norm))
    for (kind, norm), (_, terms) in _EQUATIONS.items() if len(terms) == 1
}


def _upper_limit(params: StruveParams, key: str, norm: str) -> float:
    """The first zero of the carrier ``key``'s family, as a radius."""
    family = _FAMILY[key]
    s, e = _scale(key, norm)
    z = first_zero(params, family)  # sqrt(u) for W and W', else u
    if (family in _SQUARED) != (e == 2):
        z = z * z if e == 1 else math.sqrt(z)
    return s * z


def _solve(query: RadiusQuery) -> RadiusResult:
    params, alpha, norm = query.params, query.alpha, query.normalization.value
    row, pairs = _EQUATIONS[query.kind.value, norm]
    const, *coefs = row(params.p)
    keys = list(dict.fromkeys(k for pair in pairs for k in pair))
    series = [carrier(params, k) for k in keys]
    scales = [_scale(k, norm)[0] for k in keys]
    terms = [(coef, abs(coef), keys.index(num), keys.index(den))
             for coef, (num, den) in zip(coefs, pairs)]
    squared = norm != "h"

    def doubles(r: float) -> list[ScaledValue]:
        return [c.eval_scaled(r / s, squared) for c, s in zip(series, scales)]

    def excess(values: list[ScaledValue]) -> tuple[float, float, float]:
        """quotient - alpha from the carriers' sums, the error bound of
        those sums and that of its own roundings: sums n~, d~ with bounds
        e_n, e_d put n/d within (e_n + |n~/d~| e_d) / (|d~| - e_d) of n~/d~
        (unbounded if d's sign is uncertain); roundings: 4 units per term, 1
        per constant and partial sum, 8 per ratio bound, all doubled."""
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
        """quotient - alpha at r and its certified sign. The exact re-sums
        start from the double sums and share the rounding term of the
        quotient, so they are skipped where that term alone reaches the
        value."""
        values = doubles(r)
        value, error, rounding = excess(values)
        if rounding < abs(value) <= error + rounding:
            value, error, rounding = excess([
                compensated_carrier_value(params, k, r / s, squared, v)
                for k, s, v in zip(keys, scales, values)])
        if abs(value) > error + rounding:
            return value, (value > 0.0) - (value < 0.0)
        return value, 0

    upper = _upper_limit(params, pairs[-1][1], norm)
    hi = _BRACKET_HI * upper
    f_hi, s = at(hi)
    if s != -1:
        raise BracketError(f"quotient - alpha is not certified negative at r={hi!r}")
    lo, hi, steps = _polish(at, 0.0, hi, 1.0 - alpha, f_hi, _WIDTH)
    value = 0.5 * (lo + hi)
    return RadiusResult(
        value=value,
        bracket=(lo, hi),
        residual=excess(doubles(value))[0],
        iterations=steps,
        upper_limit=upper,
    )


def _radius(query: RadiusQuery) -> RadiusResult:
    """The radius the query asks for, by the public solver of its kind,
    looked up at call time so that a wrapper on either name sees the solve."""
    return (radius_starlike if query.kind is RadiusKind.STARLIKE else radius_convex)(query)


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
