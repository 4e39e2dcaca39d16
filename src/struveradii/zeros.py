"""Ordered positive zeros of W, W' and the derived auxiliary functions.

All functions handled here have only real zeros under the parameter
constraints, so a sign scan along the positive axis followed by bisection
finds every zero. The scan starts with step 0.1, doubles the step after
each zero beyond the fourth (zeros of these families spread out, never
bunch up), stops at MAX_ABSCISSA, and, when a reference sequence is
supplied, falls back to a half-step rescan if the expected interlacing
pattern is violated; a violation can only mean a missed sign change, not
mathematics.

Every sign the scan and the bisection act on is certified. The sign of
the double-precision sum counts only where the value exceeds its error
bound; elsewhere the series is re-summed in double-double
(``certified_sign``). A scan point whose sign not even that certifies
raises PrecisionLossError; a bisection midpoint of that kind ends the
bisection at the certified bracket reached so far. Both ends of every
returned bracket therefore have certified, opposite signs. The bisection,
``_polish``, is the package's one root polisher; ``radii`` and the Bessel
oracle use it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

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
    """Strictly increasing positive zeros with bisection diagnostics.

    ``residuals`` holds the function value at each zero divided by the
    peak partial-sum magnitude of its series evaluation, i.e. how close
    to zero the evaluation can certify. ``brackets`` are the sign-change
    intervals the bisection finished with.
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


def _series_arg(family: AuxiliaryFamily, t: float) -> float:
    return t * t if family in _SQUARED else t


def certified_sign(params: StruveParams, family: AuxiliaryFamily, t: float) -> int:
    """Sign of the family's function at t from the compensated summation.

    Returns 0 when the value does not exceed the error bound of the
    double-double sum, i.e. cannot be distinguished from zero even at
    double-double precision.
    """
    family = AuxiliaryFamily(family)
    return compensated_carrier_value(
        params, _CARRIER_KEY[family], _series_arg(family, float(t))).certain_sign


def _value_at(series: LogSeries, family: AuxiliaryFamily, t: float,
              params: StruveParams) -> ScaledValue:
    """The double sum at t where its error bound certifies the sign, else
    the double-double sum."""
    arg = _series_arg(family, t)
    sv = series.eval_scaled(arg)
    if sv.certain_sign == 0:
        sv = compensated_carrier_value(params, _CARRIER_KEY[family], arg)
    return sv


def _polish(sign_at: Callable[[float], int], lo: float, hi: float, sign_lo: int,
            width: float) -> tuple[float, float, int]:
    """Bisect a certified sign change on (lo, hi) to width * (1 + hi), or
    until ``sign_at`` cannot certify a midpoint's sign (returns 0). Returns
    the final bracket and the number of midpoints evaluated."""
    steps = 0
    while hi - lo > width * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        s = sign_at(mid)
        steps += 1
        if s == 0:
            break
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi, steps


def _scan(series: LogSeries, family: AuxiliaryFamily, count: int,
          step0: float, params: StruveParams,
          ) -> tuple[list[float], list[tuple[float, float]], list[float]]:
    zeros: list[float] = []
    brackets: list[tuple[float, float]] = []
    residuals: list[float] = []
    t_lo = 0.0
    a0 = series.coefficients(0)[0]
    sign_lo = (a0 > 0.0) - (a0 < 0.0)
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
        mant, _, err = series.eval_block(_series_arg(family, ts))
        signs = np.where(mant > 0.0, 1, -1)
        unsure = ~(np.abs(mant) > err)
        # Walk to the first certified sign change. Points before the next
        # unsure one or the next provisional flip keep the current sign.
        prev_t, prev_s = t_lo, sign_lo
        start = 0
        flip = None
        while flip is None:
            ahead = np.flatnonzero(unsure[start:] | (signs[start:] != prev_s))
            if ahead.size == 0:
                break
            i = start + int(ahead[0])
            if i > start:
                prev_t = float(ts[i - 1])
            t = float(ts[i])
            s = certified_sign(params, family, t) if unsure[i] else int(signs[i])
            if s == 0:
                # A zero can sit on the grid point itself (for simple
                # parameters, to all digits); step just past it.
                t += _NUDGE * step
                s = certified_sign(params, family, t)
            if s == 0:
                raise PrecisionLossError(
                    f"the sign of {series.label} at abscissa {t!r} "
                    f"cannot be certified even in double-double precision"
                )
            if s != prev_s:
                flip = t
            else:
                prev_t, start = t, i + 1
        if flip is None:
            t_lo, sign_lo = max(prev_t, float(ts[-1])), prev_s
            continue
        lo, hi, _ = _polish(lambda x: _value_at(series, family, x, params).certain_sign,
                            prev_t, flip, prev_s, 1e-12)
        zeros.append(0.5 * (lo + hi))
        brackets.append((lo, hi))
        residuals.append(_value_at(series, family, zeros[-1], params).over_peak())
        if len(zeros) >= 5:
            # Zeros only spread out; never let the doubled step
            # outgrow half of the last observed gap.
            gap = zeros[-1] - zeros[-2]
            step = max(step0, min(step * 2.0, 0.5 * gap))
        t_lo, sign_lo = hi, -prev_s
    return zeros, brackets, residuals


def _first_violation(first: tuple[float, ...] | list[float],
                     second: tuple[float, ...] | list[float]) -> int | None:
    """1-based index of the first pair that breaks first_1 < second_1 <
    first_2 < second_2 < ... over the common length, or None."""
    n = min(len(first), len(second))
    for i in range(n):
        if not first[i] < second[i]:
            return i + 1
        if i + 1 < len(first) and not second[i] < first[i + 1]:
            return i + 2
    return None


@lru_cache(maxsize=4096)
def _find_zeros_cached(params: StruveParams, family: AuxiliaryFamily, count: int,
                       reference: tuple[float, ...] | None) -> ZeroSequence:
    series = family_series(params, family)
    for attempt in range(_MAX_RESCANS):
        step = INITIAL_STEP / (2.0 ** attempt)
        zeros, brackets, residuals = _scan(series, family, count, step, params)
        ok = reference is None or not reference
        if not ok:
            # Either sequence may come first along the axis.
            pair = (zeros, reference) if zeros[0] < reference[0] else (reference, zeros)
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

    Each zero is bracketed by a certified sign change and bisected to
    interval width 1e-12 * (1 + zero), or to the narrowest bracket whose
    ends double-double summation still certifies. ``reference`` optionally
    supplies a sequence whose zeros must interlace the requested ones (e.g.
    pass the W zeros when scanning W'); an interlacing violation triggers
    half-step rescans.

    Raises ScanOverflowError when fewer than ``count`` zeros lie below
    MAX_ABSCISSA, and PrecisionLossError when the sign at a scan point
    cannot be certified even in double-double precision.
    """
    family = AuxiliaryFamily(family)
    if not isinstance(count, int) or count < 1 or count > MAX_COUNT:
        raise ValueError(f"count must be an integer in [1, {MAX_COUNT}], got {count!r}")
    ref: tuple[float, ...] | None
    if reference is None:
        ref = None
    elif isinstance(reference, ZeroSequence):
        ref = reference.zeros
    else:
        ref = tuple(float(z) for z in reference)
    return _find_zeros_cached(params, family, count, ref)


def first_zero(params: StruveParams, family: AuxiliaryFamily) -> float:
    """The smallest positive zero; used as a search limit by the solvers."""
    return find_zeros(params, family, 1).zeros[0]


def check_interlacing(a: ZeroSequence, b: ZeroSequence) -> InterlacingReport:
    """Check a_1 < b_1 < a_2 < b_2 < ... strictly for equally long sequences.

    ``a`` should hold the derivative-side zeros (e.g. W') and ``b`` the
    base-function zeros (e.g. W) of the same parameter set.
    """
    if len(a.zeros) != len(b.zeros):
        raise ValueError(
            f"zero sequences differ in length: {len(a.zeros)} vs {len(b.zeros)}"
        )
    if a.params != b.params:
        raise ValueError("zero sequences belong to different parameter sets")
    violation = _first_violation(a.zeros, b.zeros)
    return InterlacingReport(violation is None, violation)
