import json
import math

import mpmath as mp
import pytest
from conftest import mp_shift, mp_w

from struveradii import (
    BoundRadiusKind,
    CorollaryFamily,
    RadiusKind,
    RadiusQuery,
    StruveParams,
    bounds_for,
    corollary_bounds,
    find_zeros,
    radius_convex,
    radius_starlike,
    run_suite,
)
from struveradii.cli import main
from struveradii.struve import NormalizationKind as NK
from struveradii.zeros import AuxiliaryFamily as AF

# Frozen oracle values at the nu = 1 Bessel reduction.
J1P_FIRST = 1.8411837813406593     # first zero of J_1'
J01_SQUARED = 5.7831859629467845   # first zero of J_0, squared
H_CONV_NU1 = 2.5582377641316632    # first root of (x h'(x))' at nu = 1

SAMPLE = (
    StruveParams(q=1, p=0.5, b=2.0, c=1.0, delta=1.0),
    StruveParams(q=2, p=-0.5, b=1.0, c=2.0, delta=0.5),
    StruveParams(q=3, p=2.0, b=2.0, c=0.5, delta=2.0),
)


# Default-grid point 73. Its starlike f root at alpha = 0.75 lies where the
# sign of the double-precision quotient minus alpha is not certain.
POINT_73 = StruveParams(q=2, p=0.5, b=1.0, c=0.5, delta=1.0)


def _mp_excess(params, kind, norm, r, alpha, dps=50):
    """Quotient minus alpha at r from dps-digit sums of v, v' and v''."""
    with mp.workdps(dps):
        x = mp.mpf(r)
        if norm is NK.F:
            w0, w1, w2 = (mp_w(params, x, k, dps) for k in range(3))
            star = x * w1 / ((mp.mpf(params.p) + 1) * w0)
            conv = 1 + star + x * w2 / w1 - x * w1 / w0
        else:
            # g(x) = x S(x^2) and h(x) = x S(x), S(u) = sum beta_n u^n.
            m = 2 if norm is NK.G else 1
            shift = mp_shift(params)
            v = dv = d2v = mp.mpf(0)
            for n in range(160):
                beta = ((-mp.mpf(params.c) / 4) ** n * mp.gamma(shift)
                        / (mp.factorial(n) * mp.gamma(params.q * n + shift)))
                e = m * n + 1
                v += beta * x ** e
                dv += beta * e * x ** (e - 1)
                d2v += beta * e * (e - 1) * x ** (e - 2)
            star = x * dv / v
            conv = 1 + x * d2v / dv
        return (star if kind is RadiusKind.STARLIKE else conv) - alpha


def _solve(params, kind, norm, alpha=0.0):
    query = RadiusQuery(params=params, kind=kind, normalization=norm, alpha=alpha)
    return (radius_starlike if kind is RadiusKind.STARLIKE else radius_convex)(query)


class TestQueryValidation:
    def test_alpha_range(self, bessel_params):
        for bad in (-0.1, 1.0, 1.5, float("nan")):
            with pytest.raises(ValueError):
                RadiusQuery(params=bessel_params, kind=RadiusKind.STARLIKE,
                            normalization=NK.F, alpha=bad)

    def test_kind_mismatch(self, bessel_params):
        query = RadiusQuery(params=bessel_params, kind=RadiusKind.CONVEX,
                            normalization=NK.F, alpha=0.0)
        with pytest.raises(ValueError):
            radius_starlike(query)
        query = RadiusQuery(params=bessel_params, kind=RadiusKind.STARLIKE,
                            normalization=NK.F, alpha=0.0)
        with pytest.raises(ValueError):
            radius_convex(query)


class TestStarlike:
    def test_f_alpha0_is_first_wprime_zero(self, bessel_params):
        res = _solve(bessel_params, RadiusKind.STARLIKE, NK.F)
        assert res.value == pytest.approx(J1P_FIRST, abs=1e-9)

    def test_g_alpha0_matches_f_at_p0(self, bessel_params):
        f = _solve(bessel_params, RadiusKind.STARLIKE, NK.F)
        g = _solve(bessel_params, RadiusKind.STARLIKE, NK.G)
        assert g.value == pytest.approx(f.value, abs=1e-10)

    def test_h_alpha0(self, bessel_params):
        res = _solve(bessel_params, RadiusKind.STARLIKE, NK.H)
        assert 4.0 < res.value < 8.0
        assert res.value == pytest.approx(J01_SQUARED, abs=1e-8)

    def test_alpha0_equals_first_zero_routes(self):
        # the polished quotient against direct scans of the carriers
        for params in SAMPLE:
            f = _solve(params, RadiusKind.STARLIKE, NK.F).value
            assert f == pytest.approx(
                find_zeros(params, AF.W_PRIME, 1).zeros[0], rel=1e-9)
            g = _solve(params, RadiusKind.STARLIKE, NK.G).value
            assert g == pytest.approx(
                2.0 * math.sqrt(find_zeros(params, AF.G_PRIME_SUBST, 1).zeros[0]),
                rel=1e-9)
            h = _solve(params, RadiusKind.STARLIKE, NK.H).value
            assert h == pytest.approx(
                4.0 * find_zeros(params, AF.H_PRIME_SUBST, 1).zeros[0], rel=1e-9)


class TestConvex:
    def test_g_alpha0_interval_and_alexander(self, bessel_params):
        res = _solve(bessel_params, RadiusKind.CONVEX, NK.G)
        assert 0.9428090415820634 < res.value < 1.0579087788916200
        rho1 = find_zeros(bessel_params, AF.ALEX_G_SUBST, 1).zeros[0]
        assert res.value == pytest.approx(2.0 * math.sqrt(rho1), abs=1e-9)

    def test_h_alpha0_interval(self, bessel_params):
        res = _solve(bessel_params, RadiusKind.CONVEX, NK.H)
        assert 2.0 < res.value < 3.2
        assert res.value == pytest.approx(H_CONV_NU1, abs=1e-9)
        tau1 = find_zeros(bessel_params, AF.ALEX_H, 1).zeros[0]
        assert res.value == pytest.approx(tau1, abs=1e-9)

    def test_alpha_to_one_shrinks_to_zero(self, bessel_params):
        values = [
            _solve(bessel_params, RadiusKind.CONVEX, NK.G, alpha).value
            for alpha in (0.9, 0.999, 0.999999)
        ]
        assert values[0] > values[1] > values[2]
        assert values[2] < 0.01 * values[0]


class TestInvariants:
    def test_alpha_monotonicity(self):
        for params in SAMPLE:
            for kind in (RadiusKind.STARLIKE, RadiusKind.CONVEX):
                for norm in (NK.F, NK.G, NK.H):
                    vals = [_solve(params, kind, norm, a).value
                            for a in (0.0, 0.25, 0.5, 0.75)]
                    assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_convex_within_starlike(self):
        for params in SAMPLE:
            for norm in (NK.F, NK.G, NK.H):
                for alpha in (0.0, 0.5):
                    rc = _solve(params, RadiusKind.CONVEX, norm, alpha).value
                    rs = _solve(params, RadiusKind.STARLIKE, norm, alpha).value
                    assert rc <= rs + 1e-10

    def test_search_interval_containment(self):
        for params in SAMPLE:
            w1 = find_zeros(params, AF.W, 1).zeros[0]
            wp1 = find_zeros(params, AF.W_PRIME, 1).zeros[0]
            assert _solve(params, RadiusKind.STARLIKE, NK.F).value < w1
            assert _solve(params, RadiusKind.STARLIKE, NK.G).value < w1
            assert _solve(params, RadiusKind.STARLIKE, NK.H).value < w1 * w1
            assert _solve(params, RadiusKind.CONVEX, NK.F).value < wp1

    def test_result_diagnostics(self, bessel_params):
        res = _solve(bessel_params, RadiusKind.STARLIKE, NK.G, 0.3)
        lo, hi = res.bracket
        assert lo < res.value < hi <= res.upper_limit
        assert abs(res.residual) < 1e-8
        assert 0 < res.iterations <= 20


def test_polish_steps_per_solve():
    # The radius is a simple root, on which the safeguarded regula falsi
    # converges superlinearly; bisection to the same width takes ~44 steps.
    steps = [_solve(params, kind, norm, alpha).iterations
             for params in SAMPLE for kind in RadiusKind for norm in NK
             for alpha in (0.0, 0.5)]
    assert sum(steps) / len(steps) <= 16


def test_brackets_are_sign_certified():
    cases = [(POINT_73, RadiusKind.STARLIKE, NK.F, 0.75)]
    pairs = [(kind, norm) for kind in RadiusKind for norm in NK]
    for i, (kind, norm) in enumerate(pairs):
        cases += [(SAMPLE[i % len(SAMPLE)], kind, norm, alpha) for alpha in (0.0, 0.5)]
    for params, kind, norm, alpha in cases:
        lo, hi = _solve(params, kind, norm, alpha).bracket
        assert _mp_excess(params, kind, norm, lo, alpha) > 0, (params, kind, norm, alpha)
        assert _mp_excess(params, kind, norm, hi, alpha) < 0, (params, kind, norm, alpha)


def test_upper_limits_are_the_first_zero_formulas():
    # each search limit, read off its row, is bit for bit the first zero of
    # the family that bounds the interval, mapped back to the radius
    for params in SAMPLE:
        x1 = find_zeros(params, AF.W, 1).zeros[0]
        xp1 = find_zeros(params, AF.W_PRIME, 1).zeros[0]
        rho_g = find_zeros(params, AF.G_PRIME_SUBST, 1).zeros[0]
        rho_h = find_zeros(params, AF.H_PRIME_SUBST, 1).zeros[0]
        expected = {
            (RadiusKind.STARLIKE, NK.F): x1,
            (RadiusKind.STARLIKE, NK.G): x1,
            (RadiusKind.STARLIKE, NK.H): x1 * x1,
            (RadiusKind.CONVEX, NK.F): xp1,
            (RadiusKind.CONVEX, NK.G): 2.0 * math.sqrt(rho_g),
            (RadiusKind.CONVEX, NK.H): 4.0 * rho_h,
        }
        for (kind, norm), limit in expected.items():
            assert _solve(params, kind, norm, 0.5).upper_limit == limit, (params, kind, norm)


# The family that bounds each alpha = 0 radius, by CLI flag: that family,
# the radius kind of its bounds and the radius it bounds.
BOUND_TABLE = {
    "f-starlike": (AF.W_PRIME, BoundRadiusKind.STARLIKE0, RadiusKind.STARLIKE, NK.F),
    "g-starlike": (AF.G_PRIME_SUBST, BoundRadiusKind.STARLIKE0, RadiusKind.STARLIKE, NK.G),
    "h-starlike": (AF.H_PRIME_SUBST, BoundRadiusKind.STARLIKE0, RadiusKind.STARLIKE, NK.H),
    "g-convex": (AF.ALEX_G_SUBST, BoundRadiusKind.CONVEX0, RadiusKind.CONVEX, NK.G),
    "h-convex": (AF.ALEX_H, BoundRadiusKind.CONVEX0, RadiusKind.CONVEX, NK.H),
}


def test_bound_family_table(capsys):
    params = SAMPLE[0]
    args = [f"--{k}={getattr(params, k)!r}" for k in ("q", "p", "b", "c", "delta")]
    checks = run_suite("sandwich", (params,)).checks
    assert sorted(c.value for c in CorollaryFamily) == sorted(BOUND_TABLE)
    assert len(checks) == len(BOUND_TABLE)
    for (flag, (family, bound_kind, kind, norm)), check in zip(BOUND_TABLE.items(), checks):
        pair = bounds_for(params, family, 1)
        assert pair.radius_kind is bound_kind
        closed = corollary_bounds(1.0, CorollaryFamily(flag))
        assert (closed.family, closed.radius_kind) == (family, bound_kind)
        assert main(["bounds", "--family", flag, *args, "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["results"] == {"lower": repr(pair.lower), "upper": repr(pair.upper)}
        assert record["diagnostics"]["radius_kind"] == bound_kind.value
        assert check.name.startswith(f"sandwich {family.value} ")
        assert f"radius={_solve(params, kind, norm).value!r}" in check.detail


def test_convex_g_radius_within_its_bounds_at_a_wide_point():
    # The first two zeros of g'(2 sqrt(u)) here lie within the scan's first
    # step; the search limit is the first of them, so the radius keeps to
    # its k = 1 bounds, about [0.0647, 0.0748].
    params = StruveParams(q=1, p=2.8658648501006665, b=3.3980979256170545,
                          c=473.9121941011824, delta=1.6301337957369189)
    pair = bounds_for(params, AF.ALEX_G_SUBST, 1)
    value = _solve(params, RadiusKind.CONVEX, NK.G).value
    assert pair.lower < value < pair.upper
