"""Executable verification suites over a parameter grid.

Each suite re-checks a family of claims numerically and reports one
CheckResult per check with a margin: how far inside the required
inequality or tolerance the check landed (positive means pass, with the
pass threshold already subtracted where one applies). Reports list
failures first so a non-zero exit surfaces the offending checks at the
top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bessel import bessel_j, bessel_j_zeros, corollary_bounds, CorollaryFamily, reduce_to_bessel
from .bounds import bounds_for
from .radii import RadiusKind, RadiusQuery, RadiusResult, radius_convex, radius_starlike
from .struve import NormalizationKind, StruveParams, eval_w
from .zeros import AuxiliaryFamily, check_interlacing, find_zeros

__all__ = ["CheckResult", "SuiteReport", "run_suite", "SUITES"]

SUITES = ("interlacing", "sandwich", "bessel", "monotone", "all")

SANDWICH_MARGIN = 1e-9
DUAL_PATH_TOL = 1e-10
COROLLARY_TOL = 1e-11
FIRST_ZERO_TOL = 1e-9
CONTAINMENT_SLACK = 1e-10

_ALPHAS = (0.0, 0.25, 0.5, 0.75)

_SANDWICH_FAMILIES = (
    (AuxiliaryFamily.W_PRIME, RadiusKind.STARLIKE, NormalizationKind.F),
    (AuxiliaryFamily.G_PRIME_SUBST, RadiusKind.STARLIKE, NormalizationKind.G),
    (AuxiliaryFamily.H_PRIME_SUBST, RadiusKind.STARLIKE, NormalizationKind.H),
    (AuxiliaryFamily.ALEX_G_SUBST, RadiusKind.CONVEX, NormalizationKind.G),
    (AuxiliaryFamily.ALEX_H, RadiusKind.CONVEX, NormalizationKind.H),
)

_BESSEL_NUS = (0.5, 1.0, 2.0, 3.5)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def ordered(self) -> tuple[CheckResult, ...]:
        """Failures first, otherwise in grid order."""
        return self.failed + tuple(c for c in self.checks if c.passed)

    @property
    def worst(self) -> CheckResult | None:
        return min(self.checks, key=lambda c: c.margin) if self.checks else None


def _point_id(params: StruveParams) -> str:
    return (
        f"q={params.q} p={params.p:g} b={params.b:g} "
        f"c={params.c:g} delta={params.delta:g}"
    )


def _radius(params: StruveParams, kind: RadiusKind, norm: NormalizationKind,
            alpha: float) -> RadiusResult:
    query = RadiusQuery(params=params, kind=kind, normalization=norm, alpha=alpha)
    if kind is RadiusKind.STARLIKE:
        return radius_starlike(query)
    return radius_convex(query)


def interlacing_suite(grid: Sequence[StruveParams], count: int = 5) -> SuiteReport:
    """First ``count`` zeros of W' strictly interlace those of W."""
    checks = []
    for params in grid:
        w = find_zeros(params, AuxiliaryFamily.W, count)
        wp = find_zeros(params, AuxiliaryFamily.W_PRIME, count, reference=w)
        report = check_interlacing(wp, w)
        merged = [x for pair in zip(wp.zeros, w.zeros) for x in pair]
        margin = min(b - a for a, b in zip(merged, merged[1:]))
        detail = "" if report.ok else f"violation at index {report.first_violation}"
        checks.append(CheckResult(
            name=f"interlacing {_point_id(params)}",
            passed=report.ok and margin > 0.0,
            margin=margin,
            detail=detail,
        ))
    return SuiteReport("interlacing", tuple(checks))


def sandwich_suite(grid: Sequence[StruveParams]) -> SuiteReport:
    """k = 1 bounds strictly sandwich each alpha = 0 radius."""
    checks = []
    for params in grid:
        for family, kind, norm in _SANDWICH_FAMILIES:
            pair = bounds_for(params, family, 1)
            radius = _radius(params, kind, norm, 0.0).value
            margin = min(radius - pair.lower, pair.upper - radius)
            checks.append(CheckResult(
                name=f"sandwich {family.value} {_point_id(params)}",
                passed=margin >= SANDWICH_MARGIN,
                margin=margin,
                detail=f"lower={pair.lower!r} radius={radius!r} upper={pair.upper!r}",
            ))
    return SuiteReport("sandwich", tuple(checks))


def monotone_suite(grid: Sequence[StruveParams],
                   alphas: Sequence[float] = _ALPHAS) -> SuiteReport:
    """Radii decrease strictly in alpha; convexity radii never exceed
    starlikeness radii at matched order."""
    checks = []
    for params in grid:
        values: dict[tuple[RadiusKind, NormalizationKind, float], float] = {}
        for kind in (RadiusKind.STARLIKE, RadiusKind.CONVEX):
            for norm in NormalizationKind:
                for alpha in alphas:
                    values[(kind, norm, alpha)] = _radius(params, kind, norm, alpha).value
        drop = math.inf
        drop_detail = ""
        for kind in (RadiusKind.STARLIKE, RadiusKind.CONVEX):
            for norm in NormalizationKind:
                for a_lo, a_hi in zip(alphas, alphas[1:]):
                    d = values[(kind, norm, a_lo)] - values[(kind, norm, a_hi)]
                    if d < drop:
                        drop = d
                        drop_detail = f"{kind.value}/{norm.value} alpha {a_lo}->{a_hi}"
        checks.append(CheckResult(
            name=f"alpha-monotone {_point_id(params)}",
            passed=drop > 0.0,
            margin=drop,
            detail=drop_detail,
        ))
        slack = math.inf
        slack_detail = ""
        for norm in NormalizationKind:
            for alpha in alphas:
                s = (values[(RadiusKind.STARLIKE, norm, alpha)]
                     - values[(RadiusKind.CONVEX, norm, alpha)])
                if s < slack:
                    slack = s
                    slack_detail = f"{norm.value} alpha={alpha}"
        checks.append(CheckResult(
            name=f"convex-within-starlike {_point_id(params)}",
            passed=slack >= -CONTAINMENT_SLACK,
            margin=slack,
            detail=slack_detail,
        ))
    return SuiteReport("monotone", tuple(checks))


def bessel_suite(nus: Iterable[float] = _BESSEL_NUS) -> SuiteReport:
    """Dual-path evaluation, bound specializations and first zeros at the
    Bessel reduction."""
    checks = []
    for nu in nus:
        params = reduce_to_bessel(nu)

        worst = 0.0
        for i in range(1, 21):
            x = 0.5 * i
            dev = abs(eval_w(params, x) - bessel_j(nu, x)) / (1.0 + abs(bessel_j(nu, x)))
            worst = max(worst, dev)
        checks.append(CheckResult(
            name=f"bessel-dual-path nu={nu:g}",
            passed=worst <= DUAL_PATH_TOL,
            margin=DUAL_PATH_TOL - worst,
            detail=f"max scaled deviation {worst!r}",
        ))

        worst = 0.0
        for which in CorollaryFamily:
            closed = corollary_bounds(nu, which)
            general = bounds_for(params, closed.family, 1)
            worst = max(
                worst,
                abs(general.lower - closed.lower) / closed.lower,
                abs(general.upper - closed.upper) / closed.upper,
            )
        checks.append(CheckResult(
            name=f"bessel-corollary nu={nu:g}",
            passed=worst <= COROLLARY_TOL,
            margin=COROLLARY_TOL - worst,
            detail=f"max relative deviation {worst!r}",
        ))

        ours = find_zeros(params, AuxiliaryFamily.W, 3).zeros
        oracle = bessel_j_zeros(nu, 3)
        worst = max(abs(a - b) / b for a, b in zip(ours, oracle))
        checks.append(CheckResult(
            name=f"bessel-first-zeros nu={nu:g}",
            passed=worst <= FIRST_ZERO_TOL,
            margin=FIRST_ZERO_TOL - worst,
            detail=f"max relative deviation {worst!r}",
        ))
    return SuiteReport("bessel", tuple(checks))


def run_suite(suite: str, grid: Sequence[StruveParams], count: int = 5) -> SuiteReport:
    """Run one named suite (or all of them) over the grid; ``count`` is the
    number of zeros per point the interlacing suite checks."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    if suite != "bessel" and not grid:
        raise ValueError("parameter grid is empty")
    if suite == "interlacing":
        return interlacing_suite(grid, count)
    if suite == "sandwich":
        return sandwich_suite(grid)
    if suite == "bessel":
        return bessel_suite()
    if suite == "monotone":
        return monotone_suite(grid)
    checks: tuple[CheckResult, ...] = ()
    for name in ("interlacing", "sandwich", "bessel", "monotone"):
        checks += run_suite(name, grid, count).checks
    return SuiteReport("all", checks)
