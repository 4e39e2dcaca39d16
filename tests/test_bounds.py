import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from struveradii import (
    BoundRadiusKind,
    PrecisionLossError,
    StruveParams,
    SumSource,
    bounds_for,
    gamma_ratio,
    newton_power_sums,
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
            display = 2.0 * math.sqrt(
                (params.p + 1.0)
                / (params.c * (params.p + 3.0) * gamma_ratio(shift, params.q + shift)))
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
        # At c = 1e200 the second normalized coefficient is about 1e400:
        # a numerical failure, not a bad argument.
        params = StruveParams(q=1, p=0.0, b=2.0, c=1e200, delta=1.0)
        for family in BOUND_FAMILIES:
            with pytest.raises(PrecisionLossError):
                bounds_for(params, family, 2)


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
