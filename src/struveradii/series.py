"""Power series summed by the exact ratio of consecutive coefficients.

Every series of this package is a weighted gamma series

    sum_n a_n u^n,   a_n = w(n) prod_(k<n) rho_k,
    rho_n = s / (4 (n+1) prod_(j<q) (q n + j + P)),

with a scale s and a weight w(n) that is a product of factors k + a (k
an integer, a a double). Coefficients such as c^n / (n! Gamma(q n + P))
span hundreds of orders of magnitude, so no table of them is kept: a
series stores the ratios rho_n and the weights w(n), and each sum runs
the recurrence t_(n+1) = t_n rho_n u, applying the weight per term so
that a zero weight stays exact. The running term is rescaled by powers
of two, so no finite argument can overflow a sum. Summation stops once
the current term falls below a fixed share of the largest partial sum
seen, with at least MIN_TERMS terms always included; a hard cap guards
against a runaway loop.

Every sum carries a running error bound (Higham, *Accuracy and Stability
of Numerical Algorithms*, ch. 4): each term is off by at most the
roundings behind it (those of its ratios and multiplications, and of its
weight) times the unit roundoff, each addition by the unit roundoff times
the partial sum, and the truncated tail is bounded by the last term kept.
The bound covers the series the caller means, not just the doubles it
sums: a shift known to the series as a double-double (the exact value to
within a stated error) adds the distance of the double shift from it to
every gamma factor, and a sum at u = x^2 (``square=True``) adds the
rounding of x*x to every power of u. A sign counts as certain only where
the value exceeds this bound (``ScaledValue.certain_sign``); elsewhere
callers re-sum with the double-double walk (Dekker 1971) of the same
recurrence, ``LogSeries.eval_compensated``, which takes x^2 as an exact
product, the shift as a double-double and forms every other factor
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError

MIN_TERMS = 8
MAX_TERMS = 10_000

_CUTOFF = 1e-16     # double sums: last term vs peak partial sum
_DD_CUTOFF = 1e-34  # double-double sums
_BIG = 2.0 ** 512   # a running term past this is rescaled
_BLOCK_ROWS = 32    # terms per reduction of a block's error bound

# Unit roundoff of a double, and a bound on the relative error of one
# double-double operation (2^-104 up to the small constants of the
# sloppy add and the division).
UNIT_ROUNDOFF = 2.0 ** -53
DD_UNIT_ERROR = 2.0 ** -100

# ---------------------------------------------------------------------------
# Double-double helpers (error-free transformations).

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    return s, b - (s - a)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    s, e = _two_sum(xh, yh)
    e += xl + yl
    return _quick_two_sum(s, e)


def dd_div_d(xh: float, xl: float, f: float) -> tuple[float, float]:
    q1 = xh / f
    p, e = _two_prod(q1, f)
    q2 = (((xh - p) - e) + xl) / f
    return _quick_two_sum(q1, q2)


def dd_mul(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    p, e = _two_prod(xh, yh)
    e += xh * yl + xl * yh
    return _quick_two_sum(p, e)


def dd_mul_sum(xh: float, xl: float, a: float, b: float) -> tuple[float, float]:
    """x * (a + b), with the sum a + b taken exactly."""
    s, e = _two_sum(a, b)
    return dd_mul(xh, xl, s, e)


def dd_div_sum(xh: float, xl: float, a: float, b: float,
               c: float = 0.0) -> tuple[float, float]:
    """x / (a + b + c) for a >= 0 and a double-double (b, c), with the sum
    a + b taken exactly.

    The low part e of a + b is at most half an ulp of its high part s, and
    so is c, so e + c rounds by at most 2^-105 of s and x / (s + e + c) =
    (x / s)(1 - (e + c)/s) to within 2^-104.
    """
    s, e = _two_sum(a, b)
    e += c
    qh, ql = dd_div_d(xh, xl, s)
    return _quick_two_sum(qh, ql - qh * (e / s))


@dataclass(frozen=True)
class ScaledValue:
    """A number in the form mantissa * 2**exponent.

    ``peak`` is the largest partial-sum magnitude seen while summing, in
    the units of the mantissa; a residual near a zero of the series is
    only meaningful relative to it. ``error`` bounds the distance of the
    mantissa from that of the exact sum, in the same units.
    """

    mantissa: float
    exponent: int
    peak: float
    terms: int
    error: float

    @property
    def sign(self) -> int:
        if self.mantissa > 0.0:
            return 1
        if self.mantissa < 0.0:
            return -1
        return 0

    @property
    def certain_sign(self) -> int:
        """The sign when the error bound certifies it, otherwise 0."""
        return self.sign if abs(self.mantissa) > self.error else 0

    def over_peak(self) -> float:
        """Value divided by the peak partial-sum magnitude."""
        if self.mantissa == 0.0:
            return 0.0
        return self.mantissa / self.peak


def scaled_ratio(num: ScaledValue, den: ScaledValue) -> float:
    """num / den as a float, saturating to +-inf instead of overflowing."""
    if den.mantissa == 0.0:
        if num.mantissa == 0.0:
            return math.nan
        return math.copysign(math.inf, num.mantissa)
    q = num.mantissa / den.mantissa
    try:
        return math.ldexp(q, num.exponent - den.exponent)
    except OverflowError:
        return math.copysign(math.inf, q)


class LogSeries:
    """Power series sum_n a_n u^n kept as a table of coefficient ratios.

    ``scale`` is s, ``q`` and ``shift`` give the gamma factors q n + j + P
    of rho_n, and ``weight(n)`` returns the factors (k, a) of w(n). The
    double-double sum takes ``scale`` as exact, so it must be the series'
    constant itself, not a rounded product. The exact P is ``shift +
    shift_lo`` to within ``shift_error``: the double sums run at ``shift``
    and the double-double sum at ``shift + shift_lo``, and both bounds
    count the rest as extra roundings of each gamma factor.

    The class is named for the log-space coefficients it stored before the
    ratio table replaced them; the name stays because callers and the
    benchmark's tracer look it up, together with ``eval_scaled`` and
    ``eval_block``.
    """

    def __init__(self, scale: float, q: int, shift: float,
                 weight: Callable[[int], tuple[tuple[float, float], ...]],
                 label: str = "", shift_lo: float = 0.0, shift_error: float = 0.0):
        self._scale = scale
        self._q = q
        self._shift = shift
        self._shift_lo = shift_lo
        self._weight = weight
        self.label = label
        self._ratios: list[float] = []
        self._weights: list[float] = []
        # Roundings behind a term: 2q + 1 in each ratio (q sums, q - 1
        # products, the factor 4(n+1) and the division) and 2 in applying
        # it to the running term, plus 2 per weight factor (its sum, its
        # product or the final multiplication). A gamma factor q n + j + P
        # is at least P, so a shift off by d adds d / P to its relative
        # error: d / (unit roundoff P) roundings in double, d / (double-
        # double unit error P) operations in double-double.
        distance = abs(shift_lo) + shift_error
        smallest = shift - distance
        if smallest > 0.0:
            extra = distance / (UNIT_ROUNDOFF * smallest)
            dd_extra = shift_error / (DD_UNIT_ERROR * smallest)
        else:
            extra = dd_extra = math.inf
        self._step_ops = 2 * q + 3 + q * extra
        self._dd_step_ops = q + 2 + q * dd_extra
        self._weight_ops = 2 * len(weight(0))

    def _grow(self, size: int) -> None:
        """Extend the ratio and weight tables to ``size`` entries."""
        q, shift = self._q, self._shift
        for n in range(len(self._weights), size):
            w = 1.0
            for k, a in self._weight(n):
                w *= k + a
            self._weights.append(w)
            d = 4.0 * (n + 1)
            for j in range(q):
                d *= q * n + j + shift
            self._ratios.append(self._scale / d)

    def coefficients(self, k: int) -> list[float]:
        """a_0 .. a_k as doubles."""
        self._grow(k + 1)
        out = []
        b = 1.0
        for n in range(k + 1):
            out.append(b * self._weights[n])
            b *= self._ratios[n]
        return out

    def _sum(self, u: float, rounded: bool = False) -> ScaledValue:
        """eval_scaled without its argument check, at u itself or, if
        ``rounded``, at a u within one rounding of the intended argument.
        eval_block calls this for its term count, so that wherever calls of
        eval_scaled are counted, a block counts as one evaluation."""
        ratios, weights = self._ratios, self._weights
        step, ops = self._step_ops + rounded, self._weight_ops
        t = 1.0         # prod_(k<n) rho_k u^n, in units of 2**exponent
        s = 0.0
        exponent = 0
        peak = 0.0      # largest |partial sum|
        bound = 0.0     # sum of |term| * roundings behind it and |partial sums|
        a = 0.0
        n = 0
        while True:
            if n == len(weights):
                self._grow(n + MIN_TERMS)
            w = weights[n]
            if w:
                term = t * w
                s += term
                a = abs(term)
                m = abs(s)
                if m > peak:
                    peak = m
                bound += a * ops + m
                if n + 1 >= MIN_TERMS and a <= _CUTOFF * peak:
                    break
            t *= ratios[n] * u
            ops += step
            if not -_BIG < t < _BIG:
                if not math.isfinite(t):
                    raise ConvergenceError(
                        f"series {self.label or '<anonymous>'} overflowed at u={u!r}")
                t, k = math.frexp(t)
                s = math.ldexp(s, -k)
                peak = math.ldexp(peak, -k)
                bound = math.ldexp(bound, -k)
                exponent += k
            n += 1
            if n >= MAX_TERMS:
                raise ConvergenceError(
                    f"series {self.label or '<anonymous>'} needed more than "
                    f"{MAX_TERMS} terms at u={u!r}"
                )
        return ScaledValue(s, exponent, peak, n + 1, UNIT_ROUNDOFF * bound + a)

    def eval_scaled(self, u: float, square: bool = False) -> ScaledValue:
        """Sum the series at u >= 0 (at u^2 if ``square``) in double, with an
        error bound."""
        u = float(u)
        if not (math.isfinite(u) and u >= 0.0):
            raise ValueError(f"series argument must be finite and >= 0, got {u!r}")
        if square:
            u *= u
        return self._sum(u, square)

    def eval_block(self, u: np.ndarray, square: bool = False,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The recurrence of eval_scaled, vectorized over positive arguments.

        Returns (mantissa, exponent, error) per point, with the error bound
        of eval_scaled. Every point sums as many terms as eval_scaled takes
        at the largest argument; the terms of smaller arguments fall faster.
        """
        u = np.asarray(u, dtype=float)
        if u.size == 0:
            return np.empty(0), np.empty(0, dtype=int), np.empty(0)
        if square:
            u = u * u
        u_max = float(u.max())
        if not (u.min() > 0.0 and math.isfinite(u_max)):
            raise ValueError("block arguments must be finite and > 0")
        nterms = self._sum(u_max, square).terms
        step = self._step_ops + square
        ratios, weights = self._ratios, self._weights
        t = np.ones_like(u)
        s = np.zeros_like(u)
        bound = np.zeros_like(u)
        exponent = np.zeros(u.shape, dtype=int)
        tmp = np.empty_like(u)
        # Rows of |term| and |partial sum|, reduced into the bound with
        # their roundings (and 1) as weights once the buffer fills.
        rows = np.empty((2 * _BLOCK_ROWS, u.size))
        ops = np.empty(2 * _BLOCK_ROWS)
        i = 0
        room = 1.0  # bounds |t| at every point
        for n in range(nterms):
            if n:
                r = ratios[n - 1]
                np.multiply(u, r, out=tmp)
                t *= tmp
                room *= abs(r) * u_max
                if room > _BIG:
                    if not np.all(np.isfinite(t)):
                        raise ConvergenceError(
                            f"series {self.label or '<anonymous>'} overflowed at u={u_max!r}")
                    bound += ops[:i] @ rows[:i]
                    i = 0
                    k = np.maximum(np.frexp(t)[1], 0)
                    t = np.ldexp(t, -k)
                    s = np.ldexp(s, -k)
                    bound = np.ldexp(bound, -k)
                    exponent += k
                    room = 1.0
            w = weights[n]
            if w:
                term = t if w == 1.0 else np.multiply(t, w, out=tmp)
                s += term
                np.abs(term, out=rows[i])
                np.abs(s, out=rows[i + 1])
                ops[i] = self._weight_ops + n * step
                ops[i + 1] = 1.0
                i += 2
                if i == len(ops):
                    bound += ops @ rows
                    i = 0
        bound += ops[:i] @ rows[:i]
        error = UNIT_ROUNDOFF * bound + np.abs(t) * abs(weights[nterms - 1])
        return s, exponent, error

    def eval_compensated(self, u: float, square: bool = False) -> ScaledValue:
        """Double-double sum at u > 0 (at u^2 if ``square``), with an error
        bound.

        The result has exponent 0: its mantissa is the value rounded to a
        double, and its error bounds the distance from the exact sum. The
        square is taken exactly, and every factor of the ratios and weights
        is formed from doubles exactly or, with the double-double shift, to
        within 2^-105, so the error comes from the double-double operations
        and the shift's own error: q + 2 per step of the recurrence (one
        more for the square), one per weight factor and one per addition.
        """
        u = float(u)
        if not (math.isfinite(u) and u > 0.0):
            raise ValueError(f"series argument must be finite and > 0, got {u!r}")
        q, shift, shift_lo = self._q, self._shift, self._shift_lo
        if square:
            zh, zl = dd_mul(self._scale, 0.0, *_two_prod(u, u))
        else:
            zh, zl = _two_prod(self._scale, u)
        step = self._dd_step_ops + square
        bh, bl = 1.0, 0.0  # prod_(k<n) rho_k u^n
        sh, sl = 0.0, 0.0
        peak = 0.0
        weighted = 0.0  # sum of |term| * operations behind it, plus |partial sums|
        n = 0
        while True:
            th, tl = bh, bl
            ops = n * step + 1
            for k, a in self._weight(n):
                th, tl = dd_mul_sum(th, tl, k, a)
                ops += 1
            sh, sl = dd_add(sh, sl, th, tl)
            mag = abs(sh)
            if mag > peak:
                peak = mag
            weighted += abs(th) * ops + mag
            if n + 1 >= MIN_TERMS and abs(th) <= _DD_CUTOFF * peak:
                break
            bh, bl = dd_mul(bh, bl, zh, zl)
            bh, bl = dd_div_d(bh, bl, 4.0 * (n + 1.0))
            for j in range(q):
                bh, bl = dd_div_sum(bh, bl, q * n + j, shift, shift_lo)
            if not math.isfinite(bh):
                raise ConvergenceError(
                    f"compensated evaluation of {self.label} overflowed at u={u!r}"
                )
            n += 1
            if n >= MAX_TERMS:
                raise ConvergenceError(
                    f"compensated evaluation of {self.label} needed more than "
                    f"{MAX_TERMS} terms at u={u!r}"
                )
        # The mantissa drops the low part of the sum.
        error = DD_UNIT_ERROR * weighted + 2.0 * abs(th) + abs(sl)
        return ScaledValue(sh, 0, peak, n + 1, error)
