"""Independent Bessel J oracle and the closed-form bound specializations.

The series W reduces to the Bessel function of the first kind at
q = 1, p = nu - 1, b = 2, c = 1, delta = 1, which makes J_nu an
end-to-end cross-check for every other module. To keep that check
honest, ``bessel_j`` shares no code with the series summation: it
sums the ascending series in exact rational arithmetic (the alternating
sum cancels heavily for larger x, where any double-precision summation
would silently lose the digits this oracle is supposed to certify) and
converts once at the end.
"""

from __future__ import annotations

import math
from enum import Enum

from .bounds import _FAMILIES, BoundsPair
from .errors import ConvergenceError, ScanOverflowError
from .radii import _BOUNDED
from .struve import StruveParams
from .zeros import _polish

__all__ = [
    "bessel_j",
    "bessel_j_zeros",
    "reduce_to_bessel",
    "CorollaryFamily",
    "corollary_bounds",
]

MAX_X = 50.0
_MAX_TERMS = 800


def _check_order(nu: float) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu <= 0.0:
        raise ValueError(f"order nu must be finite and > 0, got {nu!r}")
    return nu


def bessel_j(nu: float, x: float) -> float:
    """J_nu(x) for 0 < x <= 50 by its ascending series, summed exactly.

    The terms t_k = (-1)^k (x/2)^(2k) / (k! (nu+1)...(nu+k)) are rational
    in the float inputs, so the inner sum carries no rounding error at
    all; accuracy is set by the final conversion and the (positive,
    cancellation-free) prefactor (x/2)^nu / Gamma(nu+1).
    """
    nu = _check_order(nu)
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"x must be finite and > 0, got {x!r}")
    if x > MAX_X:
        raise ValueError(f"x must be <= {MAX_X:g}, got {x!r}")

    # The term t / d and the total a / d share one unreduced denominator d;
    # each step multiplies the term by -(x/2)^2 / (k (nu + k)) = lift / grow.
    x_num, x_den = x.as_integer_ratio()
    nu_num, nu_den = nu.as_integer_ratio()
    lift = -x_num * x_num * nu_den
    t = a = d = 1
    peak = 1.0
    k = 0
    while True:
        k += 1
        grow = 4 * x_den * x_den * k * (nu_num + k * nu_den)
        t *= lift
        a = a * grow + t
        d *= grow
        total = a / d  # int true division rounds correctly
        peak = max(peak, abs(total))
        # The partial sums cancel down from ~e^x to the final value, so
        # the cut must be relative to the current total (which has
        # converged near it by then), with an absolute floor for the
        # case of a total that is genuinely zero to double precision.
        t_mag = abs(t / d)
        if k >= 8 and (t_mag <= 1e-22 * abs(total) or t_mag <= 1e-40 * peak):
            break
        if k > _MAX_TERMS:
            raise ConvergenceError(f"Bessel series needed more than {_MAX_TERMS} terms")
    prefactor = math.exp(nu * math.log(x / 2.0) - math.lgamma(nu + 1.0))
    return prefactor * total


def bessel_j_zeros(nu: float, count: int) -> tuple[float, ...]:
    """The first ``count`` positive zeros of J_nu by scan and polish.

    Its values come from the oracle series alone (the polish is the shared
    ``zeros._polish``), so it is an independent check for the zero finder
    of the main family.
    """
    nu = _check_order(nu)
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")

    def at(x: float) -> tuple[float, int]:
        # The exact series leaves no sign uncertain; 0 counts as negative.
        v = bessel_j(nu, x)
        return v, 1 if v > 0.0 else -1

    zeros: list[float] = []
    step = 0.1
    t_prev = step
    f_prev = bessel_j(nu, t_prev)
    t = t_prev
    while len(zeros) < count:
        t += step
        if t > MAX_X:
            raise ScanOverflowError(
                f"only {len(zeros)} of {count} zeros of J_{nu:g} lie below {MAX_X:g}"
            )
        f = bessel_j(nu, t)
        if (f_prev > 0.0) != (f > 0.0):
            lo, hi, _ = _polish(at, t_prev, t, f_prev, f, 1e-13)
            zeros.append(0.5 * (lo + hi))
        t_prev, f_prev = t, f
    return tuple(zeros)


def reduce_to_bessel(nu: float) -> StruveParams:
    """Parameters at which W coincides with J_nu."""
    nu = _check_order(nu)
    return StruveParams(q=1, p=nu - 1.0, b=2.0, c=1.0, delta=1.0)


class CorollaryFamily(Enum):
    """Which specialized k = 1 bound pair to evaluate, by its CLI flag."""

    F_STAR = "f-starlike"
    G_STAR = "g-starlike"
    H_STAR = "h-starlike"
    G_CONV = "g-convex"
    H_CONV = "h-convex"


def corollary_bounds(nu: float, which: CorollaryFamily) -> BoundsPair:
    """Closed-form k = 1 bounds for the Bessel specialization, in nu."""
    nu = _check_order(nu)
    which = CorollaryFamily(which)
    if which is CorollaryFamily.F_STAR:
        lower = 2.0 * math.sqrt(nu * (nu + 1.0) / (nu + 2.0))
        upper = 2.0 * (nu + 2.0) * math.sqrt(
            nu * (nu + 1.0) / (nu * nu + 8.0 * nu + 8.0))
    elif which is CorollaryFamily.G_STAR:
        lower = 2.0 * math.sqrt((nu + 1.0) / 3.0)
        upper = 2.0 * math.sqrt(3.0 * (nu + 1.0) * (nu + 2.0) / (4.0 * nu + 13.0))
    elif which is CorollaryFamily.H_STAR:
        lower = 2.0 * (nu + 1.0)
        upper = 8.0 * (nu + 1.0) * (nu + 2.0) / (nu + 5.0)
    elif which is CorollaryFamily.G_CONV:
        lower = (2.0 / 3.0) * math.sqrt(nu + 1.0)
        upper = 6.0 * math.sqrt((nu + 1.0) * (nu + 2.0) / (56.0 * nu + 137.0))
    else:  # H_CONV
        lower = nu + 1.0
        upper = 16.0 * (nu + 1.0) * (nu + 2.0) / (7.0 * nu + 23.0)
    family = _BOUNDED[which.value][0]
    return BoundsPair(k=1, lower=lower, upper=upper, family=family,
                      radius_kind=_FAMILIES[family][0])
