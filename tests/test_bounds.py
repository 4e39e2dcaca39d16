import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from struveradii import (
    BoundRadiusKind,
    NormalizationKind as NK,
    PrecisionLossError,
    RadiusKind,
    RadiusQuery,
    StruveParams,
    SumSource,
    bounds_for,
    default_grid,
    newton_power_sums,
    radius_convex,
    radius_starlike,
    rayleigh_sums_closed_form,
    rayleigh_sums_newton,
    statement_form_bounds,
)
from struveradii.zeros import AuxiliaryFamily as AF

BOUND_FAMILIES = (AF.W_PRIME, AF.G_PRIME_SUBST, AF.H_PRIME_SUBST,
                  AF.ALEX_G_SUBST, AF.ALEX_H)

SAMPLE = (
    StruveParams(q=1, p=0.5, b=2.0, c=1.0, delta=1.0),
    StruveParams(q=2, p=-0.5, b=1.0, c=2.0, delta=0.5),
    StruveParams(q=3, p=2.0, b=2.0, c=0.5, delta=2.0),
    StruveParams(q=1, p=0.0, b=2.0, c=1.0, delta=1.0),
)


class TestClosedForms:
    def test_bessel_values(self, bessel_params):
        # at q=1, p=0: P = 2, Gamma(2)/Gamma(3) = 1/2
        s = rayleigh_sums_closed_form(bessel_params, AF.W_PRIME)
        assert s.sums[0] == pytest.approx(0.375, rel=1e-14)
        s = rayleigh_sums_closed_form(bessel_params, AF.H_PRIME_SUBST)
        assert s.sums[0] == pytest.approx(1.0, rel=1e-14)
        s = rayleigh_sums_closed_form(bessel_params, AF.ALEX_G_SUBST)
        assert s.sums[0] == pytest.approx(4.5, rel=1e-14)
        s = rayleigh_sums_closed_form(bessel_params, AF.G_PRIME_SUBST)
        assert s.sums == pytest.approx((1.5, 9.0 / 4.0 - 5.0 / 6.0), rel=1e-13)
        assert s.source is SumSource.CLOSED_FORM

    def test_w_family_unsupported(self, bessel_params):
        with pytest.raises(ValueError):
            rayleigh_sums_closed_form(bessel_params, AF.W)
        with pytest.raises(ValueError):
            bounds_for(bessel_params, AF.W, 1)


class TestNewton:
    def test_synthetic_polynomial(self):
        # (1 - u)(1 - u/2) = 1 - 1.5 u + 0.5 u^2, roots 1 and 2
        sums = newton_power_sums([1.0, -1.5, 0.5], 3)
        assert sums[0] == pytest.approx(1.5, rel=1e-15)
        assert sums[1] == pytest.approx(1.25, rel=1e-15)
        assert sums[2] == pytest.approx(1.125, rel=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            newton_power_sums([2.0, -1.0], 1)

    def test_precision_loss_on_complex_roots(self):
        # 1 + u^2 has roots +-i: S_2 = -2 < 0 must be reported, not returned
        with pytest.raises(PrecisionLossError):
            newton_power_sums([1.0, 0.0, 1.0], 2)

    def test_matches_closed_form_bessel(self, bessel_params):
        sums = rayleigh_sums_newton(bessel_params, AF.G_PRIME_SUBST, 2)
        assert sums.sums[0] == pytest.approx(1.5, rel=1e-12)
        assert sums.sums[1] == pytest.approx(9.0 / 4.0 - 5.0 / 6.0, rel=1e-12)
        assert sums.source is SumSource.NEWTON

    def test_kmax_validation(self, bessel_params):
        for bad in (0, 13, 1.5):
            with pytest.raises(ValueError):
                rayleigh_sums_newton(bessel_params, AF.W_PRIME, bad)

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.integers(min_value=1, max_value=3),
        p=st.floats(min_value=-0.9, max_value=3.0),
        b=st.floats(min_value=0.5, max_value=3.0),
        c=st.floats(min_value=0.25, max_value=4.0),
        delta=st.floats(min_value=0.5, max_value=2.0),
    )
    def test_closed_newton_agreement_property(self, q, p, b, c, delta):
        assume(p / delta + (b + 2.0) / 2.0 > 0.0)  # admissible parameters only
        params = StruveParams(q=q, p=p, b=b, c=c, delta=delta)
        for family in BOUND_FAMILIES:
            newton = rayleigh_sums_newton(params, family, 2)
            closed = rayleigh_sums_closed_form(params, family)
            for n_val, c_val in zip(newton.sums, closed.sums):
                assert n_val == pytest.approx(c_val, rel=1e-11)


class TestBoundsFor:
    def test_bessel_nu1_values(self, bessel_params):
        pair = bounds_for(bessel_params, AF.G_PRIME_SUBST, 1)
        assert pair.lower == pytest.approx(2.0 * math.sqrt(2.0 / 3.0), rel=1e-12)
        assert pair.upper == pytest.approx(2.0 * math.sqrt(18.0 / 17.0), rel=1e-12)
        assert pair.radius_kind is BoundRadiusKind.STARLIKE0

        pair = bounds_for(bessel_params, AF.W_PRIME, 1)
        assert pair.lower == pytest.approx(2.0 * math.sqrt(2.0 / 3.0), rel=1e-12)
        assert pair.upper == pytest.approx(6.0 * math.sqrt(2.0 / 17.0), rel=1e-12)

        pair = bounds_for(bessel_params, AF.H_PRIME_SUBST, 1)
        assert pair.lower == pytest.approx(4.0, rel=1e-12)
        assert pair.upper == pytest.approx(8.0, rel=1e-12)

        pair = bounds_for(bessel_params, AF.ALEX_H, 1)
        assert pair.lower == pytest.approx(2.0, rel=1e-12)
        assert pair.upper == pytest.approx(3.2, rel=1e-12)
        assert pair.radius_kind is BoundRadiusKind.CONVEX0

    def test_lower_equals_inverse_sqrt_s1(self):
        # consistency with the closed-form display for the W' family:
        # lower = 1/sqrt(S_1) = 2 sqrt((p+1) Gamma(q+P) / (c (p+3) Gamma(P)))
        for params in SAMPLE:
            pair = bounds_for(params, AF.W_PRIME, 1)
            s1 = rayleigh_sums_closed_form(params, AF.W_PRIME).sums[0]
            assert pair.lower == pytest.approx(1.0 / math.sqrt(s1), rel=1e-12)
            shift = params.gamma_shift
            ratio = math.exp(math.lgamma(shift) - math.lgamma(params.q + shift))
            display = 2.0 * math.sqrt(
                (params.p + 1.0) / (params.c * (params.p + 3.0) * ratio))
            assert pair.lower == pytest.approx(display, rel=1e-12)

    def test_tightening(self):
        for params in SAMPLE:
            for family in BOUND_FAMILIES:
                pairs = [bounds_for(params, family, k) for k in range(1, 5)]
                for a, b in zip(pairs, pairs[1:]):
                    assert b.lower >= a.lower * (1.0 - 1e-12)
                    assert b.upper <= a.upper * (1.0 + 1e-12)
                assert (pairs[-1].upper - pairs[-1].lower) < (
                    pairs[0].upper - pairs[0].lower)

    def test_k_validation(self, bessel_params):
        for bad in (0, 12, 1.0):
            with pytest.raises(ValueError):
                bounds_for(bessel_params, AF.W_PRIME, bad)

    def test_coefficients_beyond_double_range(self):
        # At c = 1e200 the second normalized coefficient is about 1e400 and
        # at c = 1e-300 it is about 1e-600, but the exact power sums are
        # unaffected: the bounds follow the c-scaling law, r_c = r_1 / sqrt(c)
        # for the families in x and r_c = r_1 / c for those in x^2 (h).
        base = StruveParams(q=1, p=0.0, b=2.0, c=1.0, delta=1.0)
        for c in (1e200, 1e-300):
            params = StruveParams(q=1, p=0.0, b=2.0, c=c, delta=1.0)
            for family in BOUND_FAMILIES:
                factor = 1.0 / c if family in (AF.H_PRIME_SUBST, AF.ALEX_H) else c ** -0.5
                one, scaled = bounds_for(base, family, 2), bounds_for(params, family, 2)
                for got, ref in ((scaled.lower, one.lower), (scaled.upper, one.upper)):
                    assert abs(got - ref * factor) <= 4.0 * math.ulp(got)


def test_statement_form_variants(bessel_params):
    # the alternative printed forms exist for exactly two families and
    # differ from the series-derived bounds
    lower, upper = statement_form_bounds(bessel_params, AF.W_PRIME)
    pair = bounds_for(bessel_params, AF.W_PRIME, 1)
    assert lower == pytest.approx(pair.lower / math.sqrt(2.0), rel=1e-12)
    assert upper > pair.upper
    lo_g, up_g = statement_form_bounds(bessel_params, AF.ALEX_G_SUBST)
    pair_g = bounds_for(bessel_params, AF.ALEX_G_SUBST, 1)
    assert lo_g == pytest.approx(pair_g.lower, rel=1e-12)
    assert up_g != pytest.approx(pair_g.upper, rel=1e-6)
    assert statement_form_bounds(bessel_params, AF.H_PRIME_SUBST) is None


def test_convergence_gap_report(capsys):
    # the k = 8 gap is an empirical observation, reported rather than
    # asserted as a theorem
    worst = 0.0
    for params in SAMPLE:
        for family in (AF.W_PRIME, AF.ALEX_H):
            pair = bounds_for(params, family, 8)
            worst = max(worst, (pair.upper - pair.lower) / pair.lower)
    print(f"[REPORT] largest relative gap at k=8 over sample: {worst:.3e}")
    assert worst < 1.0  # sanity only; the informative part is the print


# The families' series, written out apart from the package's weight table:
# a_(n+1) / a_n = s (-c) w(n+1) / (4 (n+1) w(n) prod_(j<q) (q n + j + P)).
_ORACLE_SERIES = {
    AF.W_PRIME: (1, lambda n, p: 2 * n + 1 + p),
    AF.G_PRIME_SUBST: (4, lambda n, p: 2 * n + 1),
    AF.H_PRIME_SUBST: (4, lambda n, p: n + 1),
    AF.ALEX_G_SUBST: (4, lambda n, p: (2 * n + 1) ** 2),
    AF.ALEX_H: (1, lambda n, p: (n + 1) ** 2),
}

# The root rho of each series as a function of the radius r.
_ROOT_OF_RADIUS = {
    AF.W_PRIME: lambda r: r * r,
    AF.G_PRIME_SUBST: lambda r: r * r / 4,
    AF.H_PRIME_SUBST: lambda r: r / 4,
    AF.ALEX_G_SUBST: lambda r: r * r / 4,
    AF.ALEX_H: lambda r: r,
}


def _exact_power_sums(params, family, kmax):
    scale, weight = _ORACLE_SERIES[family]
    p, c = Fraction(params.p), Fraction(params.c)
    shift = p / Fraction(params.delta) + (Fraction(params.b) + 2) / 2
    coeffs, beta = [Fraction(1)], Fraction(1)
    for n in range(kmax):
        beta *= -scale * c / (4 * (n + 1) * math.prod(
            params.q * n + j + shift for j in range(params.q)))
        coeffs.append(beta * weight(n + 1, p) / weight(0, p))
    return newton_power_sums(coeffs, kmax)


@settings(max_examples=25, deadline=None)
@given(
    q=st.sampled_from([1, 2, 3, 4, 6]),
    p=st.floats(min_value=-0.9, max_value=8.0, exclude_min=True, exclude_max=True),
    b=st.floats(min_value=0.1, max_value=4.0, exclude_min=True, exclude_max=True),
    log_c=st.floats(min_value=-3.0, max_value=3.0),
    delta=st.floats(min_value=0.2, max_value=4.0, exclude_min=True, exclude_max=True),
)
def test_bounds_are_the_outward_rounded_exact_bounds(q, p, b, log_c, delta):
    # lower is the largest double whose root rho obeys rho^k S_k <= 1 and
    # upper the smallest whose rho obeys rho >= S_k / S_(k+1), in exact
    # rationals.
    assume(p / delta + (b + 2.0) / 2.0 > 0.0)
    params = StruveParams(q=q, p=p, b=b, c=10.0 ** log_c, delta=delta)
    for family in BOUND_FAMILIES:
        sums = _exact_power_sums(params, family, 5)
        rho = _ROOT_OF_RADIUS[family]
        for k in range(1, 5):
            pair = bounds_for(params, family, k)
            s_k, ratio = sums[k - 1], sums[k - 1] / sums[k]
            above_lower = math.nextafter(pair.lower, math.inf)
            below_upper = math.nextafter(pair.upper, 0.0)
            assert rho(Fraction(pair.lower)) ** k * s_k <= 1
            assert rho(Fraction(above_lower)) ** k * s_k > 1
            assert rho(Fraction(pair.upper)) >= ratio
            assert rho(Fraction(below_upper)) < ratio


_RADIUS_OF_FAMILY = {
    AF.W_PRIME: (RadiusKind.STARLIKE, NK.F),
    AF.G_PRIME_SUBST: (RadiusKind.STARLIKE, NK.G),
    AF.H_PRIME_SUBST: (RadiusKind.STARLIKE, NK.H),
    AF.ALEX_G_SUBST: (RadiusKind.CONVEX, NK.G),
    AF.ALEX_H: (RadiusKind.CONVEX, NK.H),
}


def test_high_k_bounds_meet_the_radius_bracket():
    # The q = 3, p <= 0.5 default-grid points hold every case where the
    # double-precision Newton sums gave up at k = 8 or 11 (for example
    # alex-h at q=3, p=-0.5, b=1, c=0.5, delta=0.5, k=8, and w-prime at
    # q=3, p=-0.5, b=2, c=0.5, delta=2, k=11). The bounds are narrower than
    # the radius bracket there, so they must overlap it.
    points = [params for params in default_grid() if params.q == 3 and params.p <= 0.5]
    for params in points:
        for family, (kind, norm) in _RADIUS_OF_FAMILY.items():
            query = RadiusQuery(params=params, kind=kind, normalization=norm, alpha=0.0)
            solve = radius_starlike if kind is RadiusKind.STARLIKE else radius_convex
            lo, hi = solve(query).bracket
            for k in (8, 11):
                pair = bounds_for(params, family, k)
                assert pair.lower <= hi and lo <= pair.upper, (params, family, k)
