"""Ordered positive zeros of W, W' and the derived auxiliary functions.

All functions handled here have only real zeros under the parameter
constraints, so a sign scan along the positive axis followed by a
bracketed polish finds every zero. The scan starts with step 0.1,
doubles the step after each zero beyond the fourth (zeros of these
families spread out, never bunch up), stops at MAX_ABSCISSA, and, when a
reference sequence is supplied, falls back to a half-step rescan if the
expected interlacing pattern is violated; a violation can only mean a
missed sign change, not mathematics.

Every sign the scan and the polish act on is certified, for the series
at the exact abscissa and parameters (see ``struve.carrier``). The sign
of the double-precision sum counts only where the value exceeds its error
bound; elsewhere the series is re-summed in double-double
(``certified_sign``). A scan point whose sign not even that certifies
raises PrecisionLossError; inside a bracket, such points end the polish
at the certified bracket reached so far. Both ends of every returned
bracket therefore have certified, opposite signs.

The polish, ``_polish``, is the package's one root loop; ``radii`` and the
Bessel oracle use it too. It is a regula falsi with the Anderson–Björck
scaling (BIT 13, 1973), safeguarded by bisection steps, so it converges
superlinearly on the simple roots of these functions and, at worst,
still shrinks the bracket geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, PrecisionLossError, ScanOverflowError
from .series import LogSeries, ScaledValue
from .struve import StruveParams, carrier, compensated_carrier_value

__all__ = [
    "AuxiliaryFamily",
    "ZeroSequence",
    "InterlacingReport",
    "find_zeros",
    "check_interlacing",
    "first_zero",
    "family_series",
    "certified_sign",
]

MAX_COUNT = 64
MAX_ABSCISSA = 1.0e6
INITIAL_STEP = 0.1
_MAX_RESCANS = 8
_BLOCK = 1024
_NUDGE = 1e-6  # share of the step by which a scan point on a zero moves


class AuxiliaryFamily(Enum):
    """Which auxiliary entire function to locate zeros of.

    W and W_PRIME report zeros in the natural abscissa x. The remaining
    families live in a substituted variable u: G_PRIME_SUBST is
    g'(2 sqrt(u)), H_PRIME_SUBST is h'(4u), ALEX_G_SUBST is (x g'(x))'
    at x = 2 sqrt(u), and ALEX_H is (x h'(x))' at x = u.
    """

    W = "w"
    W_PRIME = "w-prime"
    G_PRIME_SUBST = "g-prime-subst"
    H_PRIME_SUBST = "h-prime-subst"
    ALEX_G_SUBST = "alex-g-subst"
    ALEX_H = "alex-h"


_CARRIER_KEY = {
    AuxiliaryFamily.W: "w0",
    AuxiliaryFamily.W_PRIME: "w1",
    AuxiliaryFamily.G_PRIME_SUBST: "gp_subst",
    AuxiliaryFamily.H_PRIME_SUBST: "hp_subst",
    AuxiliaryFamily.ALEX_G_SUBST: "alexg_subst",
    AuxiliaryFamily.ALEX_H: "alexh",
}

# Families whose zeros are reported in x while the series argument is x^2.
_SQUARED = frozenset({AuxiliaryFamily.W, AuxiliaryFamily.W_PRIME})


@dataclass(frozen=True)
class ZeroSequence:
    """Strictly increasing positive zeros with polish diagnostics.

    ``residuals`` holds the function value at each zero divided by the
    peak partial-sum magnitude of its series evaluation, i.e. how close
    to zero the evaluation can certify. ``brackets`` are the sign-change
    intervals the polish finished with.
    """

    family: AuxiliaryFamily
    params: StruveParams
    zeros: tuple[float, ...]
    residuals: tuple[float, ...]
    brackets: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        zs = self.zeros
        if any(z <= 0.0 for z in zs) or any(a >= b for a, b in zip(zs, zs[1:])):
            raise NumericalError(
                f"zero sequence for {self.family} is not strictly increasing: {zs}"
            )


@dataclass(frozen=True)
class InterlacingReport:
    ok: bool
    first_violation: int | None  # 1-based index of the first failing pair


def family_series(params: StruveParams, family: AuxiliaryFamily) -> LogSeries:
    """The series whose positive roots are the family's zeros.

    For W and W_PRIME the zeros quoted by find_zeros are the square roots
    of this series' roots in u.
    """
    return carrier(params, _CARRIER_KEY[AuxiliaryFamily(family)])


def _compensated(params: StruveParams, family: AuxiliaryFamily, t: float) -> ScaledValue:
    """The double-double sum of the family's series at t."""
    return compensated_carrier_value(params, _CARRIER_KEY[family], t,
                                     family in _SQUARED)


def certified_sign(params: StruveParams, family: AuxiliaryFamily, t: float) -> int:
    """Sign of the family's function at t from the compensated summation.

    Returns 0 when the value does not exceed the error bound of the
    double-double sum, i.e. cannot be distinguished from zero even at
    double-double precision.
    """
    return _compensated(params, AuxiliaryFamily(family), float(t)).certain_sign


def _value_at(series: LogSeries, family: AuxiliaryFamily, t: float,
              params: StruveParams) -> ScaledValue:
    """The double sum at t where its error bound certifies the sign, else
    the double-double sum."""
    sv = series.eval_scaled(t, family in _SQUARED)
    if sv.certain_sign == 0:
        sv = _compensated(params, family, t)
    return sv


def _as_float(mantissa: float, exponent: int) -> float:
    """mantissa * 2**exponent, saturating to +-inf instead of overflowing."""
    try:
        return math.ldexp(mantissa, int(exponent))
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def _polish(at: Callable[[float], tuple[float, int]], lo: float, hi: float,
            f_lo: float, f_hi: float, width: float) -> tuple[float, float, int]:
    """Shrink a certified sign change on (lo, hi) to width * (1 + hi).

    ``at(x)`` returns the function's value at x and its certified sign, 0
    where the sign is uncertain; f_lo and f_hi are the values at the ends,
    whose signs are certified and opposite. Each step takes the regula
    falsi point, with the Anderson–Björck scaling of an end that stays put
    twice in a row, held tol = 0.45 width (1 + lo) inside the bracket, so
    that once the estimate has converged the next step closes the far
    side. A step is the midpoint instead when the bracket has not halved
    over the last three steps. An interpolated point of uncertain sign is
    followed by probes at tol on either side of it, once per polish (tol
    is just under half the final width, so that two such probes close the
    bracket despite their rounding); after that, or at a midpoint, a point
    of uncertain sign ends the polish at the certified bracket reached.
    Returns the final bracket and the number of points evaluated.
    """
    sign_lo = 1 if f_lo > 0.0 else -1
    steps = 0
    moved = 0        # the end the last step moved: -1 lo, +1 hi
    spans: list[float] = []  # the bracket's width before each step
    probes: list[float] = []
    probed = False
    while hi - lo > width * (1.0 + hi):
        tol = 0.45 * width * (1.0 + lo)
        span = hi - lo
        interpolated = False
        if probes:
            x = probes.pop()
            if not lo < x < hi:
                continue
        else:
            x = lo + 0.5 * span
            if len(spans) < 3 or span <= 0.5 * spans[-3]:
                share = f_lo / (f_lo - f_hi) if f_lo != f_hi else math.nan
                if 0.0 <= share <= 1.0:
                    x = min(max(lo + share * span, lo + tol), hi - tol)
                    interpolated = True
        spans.append(span)
        value, s = at(x)
        steps += 1
        if s == 0:
            if interpolated and not probed:
                probed = True
                probes = [x + tol, x - tol]
            if probes:
                continue
            break
        if s == sign_lo:
            if moved == -1:
                m = 1.0 - value / f_lo if f_lo else 0.0
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo, moved = x, value, -1
        else:
            if moved == 1:
                m = 1.0 - value / f_hi if f_hi else 0.0
                f_lo *= m if m > 0.0 else 0.5
            hi, f_hi, moved = x, value, 1
    return lo, hi, steps


def _scan(series: LogSeries, family: AuxiliaryFamily, count: int,
          step0: float, params: StruveParams,
          ) -> tuple[list[float], list[tuple[float, float]], list[float]]:
    zeros: list[float] = []
    brackets: list[tuple[float, float]] = []
    residuals: list[float] = []
    squared = family in _SQUARED

    def at(x: float) -> tuple[float, int]:
        sv = _value_at(series, family, x, params)
        return _as_float(sv.mantissa, sv.exponent), sv.certain_sign

    t_lo = 0.0
    v_lo: float | None = series.coefficients(0)[0]  # None: not evaluated
    sign_lo = (v_lo > 0.0) - (v_lo < 0.0)
    if sign_lo == 0:
        raise NumericalError("scan requires a nonzero leading coefficient")
    step = step0
    while len(zeros) < count:
        if t_lo >= MAX_ABSCISSA:
            raise ScanOverflowError(
                f"found only {len(zeros)} of {count} zeros below "
                f"abscissa {MAX_ABSCISSA:g} for {series.label}"
            )
        ts = t_lo + step * np.arange(1, _BLOCK + 1)
        if ts[-1] >= MAX_ABSCISSA:
            ts = np.append(ts[ts < MAX_ABSCISSA], MAX_ABSCISSA)
        mant, expo, err = series.eval_block(ts, squared)
        signs = np.where(mant > 0.0, 1, -1)
        unsure = ~(np.abs(mant) > err)
        # Walk to the first certified sign change. Points before the next
        # unsure one or the next provisional flip keep the current sign.
        prev_t, prev_s, prev_v = t_lo, sign_lo, v_lo
        start = 0
        flip = None
        while flip is None:
            ahead = np.flatnonzero(unsure[start:] | (signs[start:] != prev_s))
            if ahead.size == 0:
                break
            i = start + int(ahead[0])
            if i > start:
                prev_t, prev_v = float(ts[i - 1]), _as_float(mant[i - 1], expo[i - 1])
            t = float(ts[i])
            if unsure[i]:
                sv = _compensated(params, family, t)
                if sv.certain_sign == 0:
                    # A zero can sit on the grid point itself (for simple
                    # parameters, to all digits); step just past it.
                    t += _NUDGE * step
                    sv = _compensated(params, family, t)
                s, v = sv.certain_sign, sv.mantissa
            else:
                s, v = int(signs[i]), _as_float(mant[i], expo[i])
            if s == 0:
                raise PrecisionLossError(
                    f"the sign of {series.label} at abscissa {t!r} "
                    f"cannot be certified even in double-double precision"
                )
            if s != prev_s:
                flip, f_flip = t, v
            else:
                prev_t, prev_v, start = t, v, i + 1
        if flip is None:
            if prev_t < ts[-1]:
                prev_t, prev_v = float(ts[-1]), _as_float(mant[-1], expo[-1])
            t_lo, sign_lo, v_lo = prev_t, prev_s, prev_v
            continue
        if prev_v is None:
            prev_v = at(prev_t)[0]
        lo, hi, _ = _polish(at, prev_t, flip, prev_v, f_flip, 1e-12)
        zeros.append(0.5 * (lo + hi))
        brackets.append((lo, hi))
        residuals.append(_value_at(series, family, zeros[-1], params).over_peak())
        if len(zeros) >= 5:
            # Zeros only spread out; never let the doubled step
            # outgrow half of the last observed gap.
            gap = zeros[-1] - zeros[-2]
            step = max(step0, min(step * 2.0, 0.5 * gap))
        t_lo, sign_lo, v_lo = hi, -prev_s, None
    return zeros, brackets, residuals


def _first_violation(first: Sequence[tuple[float, float]],
                     second: Sequence[tuple[float, float]]) -> int | None:
    """1-based index of the first pair that breaks first_1 < second_1 <
    first_2 < second_2 < ... over the common length, or None.

    Each entry is a bracket (lo, hi) of a zero; one zero lies below
    another for certain only when its bracket's hi is below the other's lo.
    """
    n = min(len(first), len(second))
    for i in range(n):
        if not first[i][1] < second[i][0]:
            return i + 1
        if i + 1 < len(first) and not second[i][1] < first[i + 1][0]:
            return i + 2
    return None


@lru_cache(maxsize=4096)
def _find_zeros_cached(params: StruveParams, family: AuxiliaryFamily, count: int,
                       reference: tuple[tuple[float, float], ...] | None) -> ZeroSequence:
    series = family_series(params, family)
    for attempt in range(_MAX_RESCANS):
        step = INITIAL_STEP / (2.0 ** attempt)
        zeros, brackets, residuals = _scan(series, family, count, step, params)
        ok = reference is None or not reference
        if not ok:
            # Either sequence may come first along the axis.
            pair = ((brackets, reference) if brackets[0][0] < reference[0][0]
                    else (reference, brackets))
            ok = _first_violation(*pair) is None
        if ok:
            return ZeroSequence(
                family=family,
                params=params,
                zeros=tuple(zeros),
                residuals=tuple(residuals),
                brackets=tuple(brackets),
            )
    raise NumericalError(
        f"zeros of {family} for {params} kept violating the reference "
        f"interlacing pattern after {_MAX_RESCANS} half-step rescans"
    )


def find_zeros(params: StruveParams, family: AuxiliaryFamily, count: int,
               reference: "ZeroSequence | tuple[float, ...] | None" = None) -> ZeroSequence:
    """Locate the first ``count`` positive zeros of the family's function.

    Each zero is bracketed by a certified sign change and polished
    (``_polish``) to interval width 1e-12 * (1 + zero), or to the narrowest
    bracket whose ends double-double summation still certifies.
    ``reference`` optionally supplies a sequence whose zeros must interlace
    the requested ones (e.g. pass the W zeros when scanning W'); an
    interlacing violation triggers half-step rescans. The brackets of a
    ZeroSequence reference are compared, and plain floats count as
    brackets of width 0.

    Raises ScanOverflowError when fewer than ``count`` zeros lie below
    MAX_ABSCISSA, and PrecisionLossError when the sign at a scan point
    cannot be certified even in double-double precision.
    """
    family = AuxiliaryFamily(family)
    if not isinstance(count, int) or count < 1 or count > MAX_COUNT:
        raise ValueError(f"count must be an integer in [1, {MAX_COUNT}], got {count!r}")
    ref: tuple[tuple[float, float], ...] | None
    if reference is None:
        ref = None
    elif isinstance(reference, ZeroSequence):
        ref = reference.brackets
    else:
        ref = tuple((float(z), float(z)) for z in reference)
    return _find_zeros_cached(params, family, count, ref)


def first_zero(params: StruveParams, family: AuxiliaryFamily) -> float:
    """The smallest positive zero; used as a search limit by the solvers."""
    return find_zeros(params, family, 1).zeros[0]


def check_interlacing(a: ZeroSequence, b: ZeroSequence) -> InterlacingReport:
    """Check a_1 < b_1 < a_2 < b_2 < ... strictly for equally long
    sequences, comparing brackets: a_1 < b_1 holds when a_1's bracket lies
    wholly below b_1's.

    ``a`` should hold the derivative-side zeros (e.g. W') and ``b`` the
    base-function zeros (e.g. W) of the same parameter set.
    """
    if len(a.zeros) != len(b.zeros):
        raise ValueError(
            f"zero sequences differ in length: {len(a.zeros)} vs {len(b.zeros)}"
        )
    if a.params != b.params:
        raise ValueError("zero sequences belong to different parameter sets")
    violation = _first_violation(a.brackets, b.brackets)
    return InterlacingReport(violation is None, violation)
