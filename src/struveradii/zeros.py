"""Ordered positive zeros of W, W' and the derived auxiliary functions.

All functions handled here have only real zeros under the parameter
constraints, so a sign scan along the positive axis followed by a
bracketed polish finds every zero. The scan starts with step 0.1,
doubles the step after each zero beyond the fourth (zeros of these
families spread out, never bunch up), after the first zero sums blocks
of scan points about twice the last gap long and stops at MAX_ABSCISSA.
A step that holds two zeros hides both, so the scan falls back to
half-step rescans when its first zero fails the Euler–Rayleigh count
certificate (``_certified_first``) or, when a reference ZeroSequence is
supplied, the expected interlacing pattern is violated; either can only
mean a missed sign change, not mathematics. A rescan's blocks start at 16
points and double until its first zero. Each scan attempt's longest
sequence per point and family answers every shorter request.

When the first block holds no zero, the scan jumps toward the
Euler–Rayleigh floor (``_euler_rayleigh_floor``): the roots rho_n are
real and positive, so S_1 = sum_n 1/rho_n > 1/rho_1, and no zero lies at
or below 1/S_1 in the family's variable. A floor at or past MAX_ABSCISSA
raises ScanOverflowError at once. Otherwise the scan passes over the
blocks below the floor without summing them, stepping its block start
and size by the very float operations it would have made, and sums the
last of them. Its grid, and so every zero and bracket, is the one the
scan from the origin gives.

Every sign the scan and the polish act on is certified, for the series
at the exact abscissa and parameters (see ``struve.carrier``). The sign
of the double-precision sum counts only where the value exceeds its error
bound; elsewhere the series is re-summed exactly, in fixed point at a
precision that doubles until the sign is certified (``certified_sign``).
A scan point whose sign not even the largest precision certifies raises
PrecisionLossError; inside a bracket, such points end the polish at the
certified bracket reached so far. Both ends of every returned bracket
therefore have certified, opposite signs.

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
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, PrecisionLossError, ScanOverflowError
from .series import LogSeries, ScaledValue, _as_float
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
_BLOCK = 1024  # scan points summed at once, at most
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

    ``residuals`` holds the double sum of the function at each zero
    divided by the peak partial-sum magnitude of that sum, i.e. how close
    to zero the double sum comes there; it is a diagnostic, never re-summed
    exactly. ``brackets`` are the sign-change intervals the polish finished
    with.
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


def _compensated(params: StruveParams, family: AuxiliaryFamily, t: float,
                 double: ScaledValue | None = None) -> ScaledValue:
    """The exact-tier sum of the family's series at t, from the double sum
    at t if the caller has it."""
    return compensated_carrier_value(params, _CARRIER_KEY[family], t,
                                     family in _SQUARED, double)


def certified_sign(params: StruveParams, family: AuxiliaryFamily, t: float) -> int:
    """Sign of the family's function at t from the exact-tier sum.

    Returns 0 when the value does not exceed the error bound of that sum
    at its largest precision, i.e. cannot be distinguished from zero.
    """
    return _compensated(params, AuxiliaryFamily(family), float(t)).certain_sign


def _value_at(series: LogSeries, family: AuxiliaryFamily, t: float,
              params: StruveParams) -> ScaledValue:
    """The double sum at t where its error bound certifies the sign, else
    the exact-tier sum."""
    sv = series.eval_scaled(t, family in _SQUARED)
    if sv.certain_sign == 0:
        sv = _compensated(params, family, t, sv)
    return sv


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
          attempt: int, params: StruveParams,
          ) -> tuple[list[float], list[tuple[float, float]], list[float]]:
    zeros: list[float] = []
    brackets: list[tuple[float, float]] = []
    residuals: list[float] = []
    squared = family in _SQUARED

    def at(x: float) -> tuple[float, int]:
        sv = _value_at(series, family, x, params)
        return _as_float(sv.mantissa, sv.exponent), sv.certain_sign

    t_lo = 0.0
    v_lo: float | None = series.leading  # None: not evaluated
    sign_lo = (v_lo > 0.0) - (v_lo < 0.0)
    if sign_lo == 0:
        raise NumericalError("scan requires a nonzero leading coefficient")
    step = step0 = INITIAL_STEP / (2.0 ** attempt)
    # A rescan seeks zeros a coarser scan saw: its blocks start small, doubling until a zero.
    block = 16 if attempt else _BLOCK
    floor = None  # _euler_rayleigh_floor, once the first block holds no zero
    while len(zeros) < count:
        if t_lo >= MAX_ABSCISSA:
            raise ScanOverflowError(
                f"found only {len(zeros)} of {count} zeros below "
                f"abscissa {MAX_ABSCISSA:g} for {series.label}"
            )
        ts = t_lo + step * np.arange(1, block + 1)
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
                    f"cannot be certified even by the exact re-sum"
                )
            if s != prev_s:
                flip, f_flip = t, v
            else:
                prev_t, prev_v, start = t, v, i + 1
        if flip is None:
            if not zeros:
                block = min(_BLOCK, 2 * block)
            if prev_t < ts[-1]:
                prev_t, prev_v = float(ts[-1]), _as_float(mant[-1], expo[-1])
            t_lo, sign_lo, v_lo = prev_t, prev_s, prev_v
            if not zeros and floor is None:
                floor = _euler_rayleigh_floor(series, family)
                if floor >= MAX_ABSCISSA:
                    raise ScanOverflowError(
                        f"found only 0 of {count} zeros below abscissa {MAX_ABSCISSA:g} "
                        f"for {series.label}: the first lies above its Euler–Rayleigh "
                        f"floor {floor:g}")
                # Pass over every block whose successor also lies below the
                # floor, with the scan's own float operations, so that the
                # block after them is summed and the grid stays the same.
                while True:
                    end, after = t_lo + step * block, min(_BLOCK, 2 * block)
                    if end + step * after > floor:
                        break
                    t_lo, block, v_lo = end, after, None
            continue
        if prev_v is None:
            prev_v = at(prev_t)[0]
        lo, hi, _ = _polish(at, prev_t, flip, prev_v, f_flip, 1e-12)
        zeros.append(0.5 * (lo + hi))
        brackets.append((lo, hi))
        residuals.append(series.eval_scaled(zeros[-1], squared).over_peak())
        gap = zeros[-1] - (zeros[-2] if len(zeros) > 1 else 0.0)
        if len(zeros) >= 5:
            # Zeros only spread out; never let the doubled step
            # outgrow half of the last observed gap.
            step = max(step0, min(step * 2.0, 0.5 * gap))
        # The next zero most likely lies within twice the last gap.
        block = min(_BLOCK, max(16, int(2.0 * gap / step) + 1))
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


def _certified_first(series: LogSeries, family: AuxiliaryFamily, hi: float) -> bool | None:
    """Whether the zero bracketed below hi is the first. The roots rho_n are
    real and positive, so two at or below hi make S_k hi^k >= 2 for every k,
    S_k = sum_n rho_n^(-k); below a first zero's bracket top, S_k hi^k falls
    toward 1 until (hi / rho_1)^k takes over. So k rises until S_k hi^k < 2
    (True), until it stops falling (False: a zero below was missed), or to
    the series' term count at hi, past which the power sums would cost more
    than the scan (None). Exact rationals, at hi^2 for W and W'."""
    num, hi_den = hi.as_integer_ratio()
    if family in _SQUARED:
        num, hi_den = num * num, hi_den * hi_den
    kmax = series.eval_scaled(hi, family in _SQUARED).terms
    sigma: list[int] = []
    for k in range(1, kmax + 1):
        if k > len(sigma):  # k = 1 almost always settles it, and costs least
            sigma, den = series.power_sums(min(kmax, 2 * len(sigma) or 1))
            scale = den * hi_den
        if sigma[k - 1] * num ** k < 2 * scale ** k:
            return True
        if k > 1 and sigma[k - 1] * num >= sigma[k - 2] * scale:
            return False
    return None


def _euler_rayleigh_floor(series: LogSeries, family: AuxiliaryFamily) -> float:
    """The largest double x_0 with x_0 (x_0^2 for W and W') at most 1/S_1,
    checked in exact rationals. The roots are real and positive, so
    1/S_1 < rho_1: the first zero lies above x_0."""
    (sigma,), den = series.power_sums(1)  # 1/S_1 = den / sigma
    squared = family in _SQUARED

    def below(x: float) -> bool:
        num, x_den = x.as_integer_ratio()
        return (num * num * sigma <= den * x_den * x_den if squared
                else num * sigma <= den * x_den)

    try:
        x = den / sigma
    except OverflowError:
        return math.inf
    x = math.sqrt(x) if squared else x
    while not below(x):
        x = math.nextafter(x, 0.0)
    while (up := math.nextafter(x, math.inf)) < math.inf and below(up):
        x = up
    return x


_MAX_SEQUENCES = 4096
# (params, family, scan attempt) -> (longest ZeroSequence, its _certified_first).
_SEQUENCES: dict[tuple[StruveParams, AuxiliaryFamily, int], tuple[ZeroSequence, bool | None]] = {}


def _scanned(params: StruveParams, family: AuxiliaryFamily, count: int,
             attempt: int) -> tuple[ZeroSequence, bool | None]:
    """The first ``count`` zeros of the scan with step INITIAL_STEP / 2^attempt,
    and ``_certified_first`` of the first of them. The scan is
    prefix-deterministic (a scan for fewer zeros stops where one for more
    goes on), so only a request longer than the stored one scans."""
    key = (params, family, attempt)
    seq, certified = _SEQUENCES.get(key, (None, None))
    if seq is None or len(seq.zeros) < count:
        series = family_series(params, family)
        zeros, brackets, residuals = _scan(series, family, count, attempt, params)
        seq = ZeroSequence(family, params, tuple(zeros), tuple(residuals), tuple(brackets))
        certified = _certified_first(series, family, brackets[0][1])
        _SEQUENCES[key] = seq, certified
        if len(_SEQUENCES) > _MAX_SEQUENCES:
            del _SEQUENCES[next(iter(_SEQUENCES))]
    return ZeroSequence(family, params, seq.zeros[:count], seq.residuals[:count],
                        seq.brackets[:count]), certified


def find_zeros(params: StruveParams, family: AuxiliaryFamily, count: int,
               reference: ZeroSequence | None = None) -> ZeroSequence:
    """Locate the first ``count`` positive zeros of the family's function.

    Each zero is bracketed by a certified sign change and polished
    (``_polish``) to interval width 1e-12 * (1 + zero), or to the narrowest
    bracket whose ends the exact re-sum still certifies. The first zero is
    certified to be the first by the power sums of the family's series
    (``_certified_first``). ``reference`` optionally supplies a sequence
    whose zeros must interlace the requested ones (e.g. pass the W zeros
    when scanning W'), compared by their brackets. A failed certificate or
    an interlacing violation triggers half-step rescans. A scan attempt
    runs again only to find more zeros than it already holds for the point
    and family, so ``first_zero`` after ``find_zeros`` scans nothing. The
    scan for the first zero sums no block wholly below the Euler–Rayleigh
    floor 1/S_1 but the last, and gives the zeros the scan from the
    origin gives.

    Raises ScanOverflowError when fewer than ``count`` zeros lie below
    MAX_ABSCISSA (right after the first block when the floor does not),
    PrecisionLossError when the sign at a scan point cannot be certified
    even by the exact re-sum at its largest precision, and NumericalError
    when no scan attempt passes both checks or, at once, when the
    certificate runs out of power sums before it decides.
    """
    family = AuxiliaryFamily(family)
    if not isinstance(count, int) or count < 1 or count > MAX_COUNT:
        raise ValueError(f"count must be an integer in [1, {MAX_COUNT}], got {count!r}")
    ref = reference.brackets if reference is not None else ()
    for attempt in range(_MAX_RESCANS):
        seq, certified = _scanned(params, family, count, attempt)
        if certified is None:  # a finer scan finds the same first zero
            raise NumericalError(f"the first zero of {family} for {params} could not "
                                 f"be certified the first before k reached the term count")
        # Either sequence may come first along the axis: the lower first bracket leads.
        if certified and (not ref or _first_violation(*sorted((seq.brackets, ref))) is None):
            return seq
    raise NumericalError(
        f"zeros of {family} for {params} kept failing the first-zero certificate "
        f"or the reference interlacing pattern after {_MAX_RESCANS} half-step rescans"
    )


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
