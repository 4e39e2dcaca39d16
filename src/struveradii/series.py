"""Power series summed by the exact ratio of consecutive coefficients.

Every series of this package is a weighted gamma series

    sum_n a_n u^n,   a_n = w(n) prod_(k<n) rho_k,
    rho_n = s / (4 (n+1) prod_(j<q) (q n + j + P)),

with a rational scale s, a rational shift P > 0 and a weight w(n) that is
a product of factors m n + k + a (m, k integers, a rational). Coefficients
such as c^n / (n! Gamma(q n + P)) span hundreds of orders of magnitude, so
no table of them is kept. Integer tables are kept instead, built once
from the exact s, P and a (every double is a rational): rho_n = r / t_n in
one table per (s, q, P), shared by every series of those three, and each
series' own weights w(n) = w_n / d. Each sum runs t_(n+1) = t_n rho_n u
over them and applies the weight per term, so a zero weight stays exact.

The double sums (``eval_scaled``, and ``eval_block`` vectorized over
arguments) run on these tables, each entry rounded once to a double. The
running term is rescaled by powers of two, so no finite argument can
overflow a sum. Summation stops once the current term falls below a fixed
share of the largest partial sum seen, with at least MIN_TERMS terms
always included; a hard cap guards against a runaway loop. Every double
sum carries a running error bound (Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 4): each term is off by at most the roundings
behind it (one per rounded ratio or weight, one per multiplication) times
the unit roundoff, each addition by the unit roundoff times the partial
sum, and the truncated tail is bounded by the last term kept. A sum at
u = x^2 (``square=True``) adds the rounding of x*x to every power of u,
so the bound covers the series at the exact x^2 and the exact parameters.

A sign counts as certain only where the value exceeds this bound
(``ScaledValue.certain_sign``); elsewhere callers re-sum exactly with
``LogSeries.eval_compensated``. It walks the same integer tables in fixed
point, in the manner of mpmath's hypergeometric summators: the argument
is a dyadic rational (a double, or its square), each step is one floor
division, and the error is kept in units of the last bit, so the bound
holds for the exact argument and parameters. The working precision
starts from what a double sum measures and doubles until the sign is
certified.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, PrecisionLossError

MIN_TERMS = 8
MAX_TERMS = 10_000

_CUTOFF = 1e-16       # double sums: last term vs peak partial sum
_BIG = 2.0 ** 512     # a running term past this is rescaled
_BLOCK_ROWS = 32      # terms per reduction of a block's error bound
_GUARD_BITS = 64      # exact sums: bits beyond the double sum's error
_MAX_BITS = 1 << 13   # exact sums: the largest working precision
# Roundings per step of a double sum: the rounded ratio, and its products
# with u and with the running term.
_STEP_OPS = 3

# Unit roundoff of a double.
UNIT_ROUNDOFF = 2.0 ** -53


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
    return _as_float(num.mantissa / den.mantissa, num.exponent - den.exponent)


def _newton(coeffs: list[int], den: int, kmax: int) -> list[int]:
    """sigma_1 .. sigma_kmax, S_k = sigma_k / den^k, for the reciprocal roots
    of sum_n (coeffs[n] / den) u^n, constant term 1, by Newton's identities in
    integers; a sum that is not positive raises PrecisionLossError."""
    a = list(coeffs) + [0] * (kmax + 1 - len(coeffs))
    powers = [den ** i for i in range(kmax + 1)]
    sigma: list[int] = []
    for k in range(1, kmax + 1):
        s = -k * a[k] * powers[k - 1] - sum(
            a[i] * sigma[k - i - 1] * powers[i - 1] for i in range(1, k))
        if s <= 0:
            raise PrecisionLossError(f"S_{k} = {Fraction(s, powers[k])} is not positive")
        sigma.append(s)
    return sigma


def _as_float(mantissa: float, exponent: int) -> float:
    """mantissa * 2**exponent, saturating to +-inf instead of overflowing."""
    try:
        return math.ldexp(mantissa, int(exponent))
    except OverflowError:
        return math.copysign(math.inf, mantissa)


class _Ratios:
    """rho_n = r / t_n for one exact (s, q, P), P = N / D: r = s_num D^q,
    the integers t_n = 4 s_den (n+1) prod_j ((q n + j) D + N) and the rho_n
    rounded to doubles. The lists only grow, so a local binding stays valid."""

    def __init__(self, scale: Fraction, q: int, shift: Fraction):
        s_num, s_den = scale.as_integer_ratio()
        self.q, self.shift = q, shift.as_integer_ratio()
        self.r = s_num * self.shift[1] ** q
        self.t_unit = 4 * s_den
        self.divisors: list[int] = []
        self.ratios: list[float] = []

    def grow(self, size: int) -> None:
        q, (num, den) = self.q, self.shift
        for n in range(len(self.divisors), size):
            t = self.t_unit * (n + 1)
            for j in range(q):
                t *= (q * n + j) * den + num
            self.divisors.append(t)
            try:
                ratio = self.r / t  # correctly rounded, as is w / d
            except OverflowError:
                ratio = math.copysign(math.inf, self.r)
            self.ratios.append(ratio)


# (s, q, P) -> its ratio table, for as long as some series holds it.
_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class LogSeries:
    """Power series sum_n a_n u^n kept as a table of coefficient ratios.

    ``scale`` is s and ``shift`` is P, both exact rationals; ``q`` gives
    the gamma factors q n + j + P of rho_n, and each factor (m, k, a) of
    ``weight`` is m n + k + a for a rational a (a double is taken exactly).
    Every series of one (s, q, P) shares its ratio table (``_TABLES``); a
    series keeps only its own weights and label.

    The class is named for the log-space coefficients it stored before the
    ratio table replaced them; the name stays because callers and the
    benchmark's tracer look it up, together with ``eval_scaled`` and
    ``eval_block``.
    """

    def __init__(self, scale: Fraction, q: int, shift: Fraction,
                 weight: tuple[tuple[int, int, float | Fraction], ...], label: str = ""):
        key = (Fraction(scale), q, Fraction(shift))
        self._table = _TABLES.get(key) or _TABLES.setdefault(key, _Ratios(*key))
        self.label = label
        # A weight factor with a = a_num / a_den is ((m a_den) n + k a_den
        # + a_num) / a_den.
        self._factors: list[tuple[int, int]] = []
        self._weight_den = 1
        for m, k, a in weight:
            a_num, a_den = Fraction(a).as_integer_ratio()
            self._factors.append((m * a_den, k * a_den + a_num))
            self._weight_den *= a_den
        self._weight_nums: list[int] = []  # w_n
        self._weights: list[float] = []    # w(n), rounded to doubles
        # Roundings of a weight: its own and that of its product with a term.
        self._weight_ops = 2 if weight else 0

    def _grow(self, size: int) -> None:
        """Extend the shared ratios, then the weights, to ``size`` entries."""
        self._table.grow(size)
        for n in range(len(self._weights), size):
            w = 1
            for slope, offset in self._factors:
                w *= slope * n + offset
            self._weight_nums.append(w)
            self._weights.append(w / self._weight_den)

    @property
    def leading(self) -> float:
        """The constant term a_0 = w(0)."""
        self._grow(1)
        return self._weights[0]

    def _coefficients(self, count: int) -> tuple[list[int], int]:
        """a_n / a_0 for n < count, a_0 != 0, as integer numerators over one
        positive denominator: w_n r^n prod_(n<=i<count-1) t_i over w_0
        prod_(i<count-1) t_i, both times the sign of w_0."""
        self._grow(count)
        weights, divisors, r = self._weight_nums, self._table.divisors, self._table.r
        sign = 1 if weights[0] > 0 else -1
        nums, tail = [0] * count, 1  # tail = prod_(n<=i<count-1) t_i
        for n in reversed(range(count)):
            nums[n] = sign * weights[n] * r ** n * tail
            if n:
                tail *= divisors[n - 1]
        return nums, sign * weights[0] * tail

    def power_sums(self, kmax: int) -> tuple[list[int], int]:
        """S_1 .. S_kmax of the series' reciprocal roots exactly, as sigma_k
        and d with S_k = sigma_k / d^k (``_newton`` on ``_coefficients``)."""
        coeffs, den = self._coefficients(kmax + 1)
        return _newton(coeffs, den, kmax), den

    def _sum(self, u: float, rounded: bool = False) -> ScaledValue:
        """eval_scaled without its argument check, at u itself or, if
        ``rounded``, at a u within one rounding of the intended argument.
        eval_block calls this for its term count, so that wherever calls of
        eval_scaled are counted, a block counts as one evaluation."""
        ratios, weights = self._table.ratios, self._weights
        step, ops = _STEP_OPS + rounded, self._weight_ops
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
        step = _STEP_OPS + square
        ratios, weights = self._table.ratios, self._weights
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

    def _walk(self, u_num: int, u_shift: int, bits: int) -> tuple[int, int, int]:
        """The series at u = u_num / 2**u_shift in fixed point: d 2**bits
        times the sum, a bound on its error in the same units, and the
        number of terms.

        A term T_n = prod_(k<n) rho_k u^n is held as an integer in units of
        2**-bits, T_(n+1) = floor(T_n r u_num / (t_n 2**u_shift)). A floor
        is off by less than one unit, and an error carried into a step is
        scaled by the step's exact ratio, so the error of T_(n+1) is at most
        ceil(|rho_n u| eps_n) + 1 units; the weight w_n multiplies it
        exactly. The walk stops once a term falls to the error bound; by
        then the terms alternate and fall, so the tail is bounded by the
        last term kept.
        """
        r = self._table.r * u_num
        abs_r = abs(r)
        divisors, weights = self._table.divisors, self._weight_nums
        term, error = 1 << bits, 0
        total = bound = 0
        n = 0
        while True:
            if n == len(weights):
                self._grow(n + MIN_TERMS)
            w = weights[n]
            if w:
                a = term * w
                total += a
                e = error * abs(w)
                bound += e
                if n + 1 >= MIN_TERMS and abs(a) <= bound:
                    return total, bound + abs(a) + e, n + 1
            div = divisors[n] << u_shift
            term = term * r // div
            error = -(-abs_r * error // div) + 1
            n += 1
            if n >= MAX_TERMS:
                raise ConvergenceError(
                    f"exact evaluation of {self.label} needed more than "
                    f"{MAX_TERMS} terms"
                )

    def eval_compensated(self, u: float, square: bool = False,
                         double: ScaledValue | None = None) -> ScaledValue:
        """Exact-tier sum at u > 0 (at u^2 if ``square``), with an error
        bound.

        The result has exponent 0: its mantissa is the value rounded to a
        double, and its error bounds the distance from the exact sum at the
        exact u (or u^2), so it covers that rounding too. A double sum
        (``double``, the caller's ``eval_scaled(u, square)`` if it has one)
        measures the peak partial sum and the double error; the
        fixed-point walk starts with bits enough to resolve 2**-_GUARD_BITS
        of that error (or of 1, whichever is smaller) and doubles them,
        up to _MAX_BITS, until the sign is certified.
        """
        u = float(u)
        if not (math.isfinite(u) and u > 0.0):
            raise ValueError(f"series argument must be finite and > 0, got {u!r}")
        sv = double or self._sum(u * u if square else u, square)
        u_num, u_den = u.as_integer_ratio()
        u_shift = u_den.bit_length() - 1
        if square:
            u_num, u_shift = u_num * u_num, 2 * u_shift
        bits = (max(0, math.frexp(sv.peak)[1] + sv.exponent)
                - min(0, math.frexp(sv.error)[1] + sv.exponent)
                + sv.terms.bit_length() + _GUARD_BITS)
        while True:
            total, bound, terms = self._walk(u_num, u_shift, bits)
            den = self._weight_den << bits
            try:
                value = total / den
                # Both quotients are correctly rounded, and the mantissa
                # is within half an ulp of the sum.
                error = (bound / den + 0.5 * math.ulp(value)) * (1.0 + 4.0 * UNIT_ROUNDOFF)
            except OverflowError:
                raise ConvergenceError(
                    f"exact evaluation of {self.label} overflowed at u={u!r}"
                ) from None
            if abs(value) > error or bits >= _MAX_BITS:
                return ScaledValue(value, 0, _as_float(sv.peak, sv.exponent), terms, error)
            bits *= 2
