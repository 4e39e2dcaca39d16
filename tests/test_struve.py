import math
from fractions import Fraction

import mpmath as mp
import pytest
from conftest import mp_carrier
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from struveradii import (
    BranchError,
    NormalizationKind,
    PoleError,
    StruveParams,
    eval_normalized,
    eval_w,
    find_zeros,
    log_derivative,
)
from struveradii.struve import carrier
from struveradii.zeros import AuxiliaryFamily

J1_AT_2 = 0.5767248077568734          # J_1(2), frozen from the mpmath oracle
J11 = 3.8317059702075123              # first zero of J_1
LOGDERIV_NU1_AT_1 = 0.7388857357447037  # J_1'(1) / J_1(1)
F_AT_1_P1 = 0.9587637245198651        # (4 Gamma(3) J_2(1))^(1/2)

Q2_PARAMS = StruveParams(q=2, p=0.5, b=1.0, c=2.0, delta=0.5)
# W and derivatives at x = 1.3 for Q2_PARAMS, frozen from the oracle
Q2_W_13 = (0.3567917962483928, 0.35509602783212096, -0.012750403611273827)


class TestParams:
    def test_gamma_shift(self):
        assert Q2_PARAMS.gamma_shift == pytest.approx(2.5, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q=0, p=0.0, b=2.0, c=1.0, delta=1.0),
            dict(q=-1, p=0.0, b=2.0, c=1.0, delta=1.0),
            dict(q=1, p=-1.0, b=2.0, c=1.0, delta=1.0),
            dict(q=1, p=0.0, b=0.0, c=1.0, delta=1.0),
            dict(q=1, p=0.0, b=2.0, c=0.0, delta=1.0),
            dict(q=1, p=0.0, b=2.0, c=1.0, delta=0.0),
            dict(q=1, p=0.0, b=2.0, c=float("nan"), delta=1.0),
            dict(q=1, p=0.0, b=2.0, c=True, delta=1.0),
            dict(q=1, p=False, b=2.0, c=1.0, delta=1.0),
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            StruveParams(**kwargs)

    def test_rejects_float_q(self):
        with pytest.raises(ValueError):
            StruveParams(q=1.0, p=0.0, b=2.0, c=1.0, delta=1.0)  # type: ignore[arg-type]


class TestCoefficient:
    # The exact coefficients beta_n of S(u); the coefficient of
    # (x/2)^(2n+p+1) in W is a_n = (-1)^n c^n / (n! Gamma(q n + P)) =
    # 4^n beta_n / Gamma(P). The W-carrier gives beta_n / beta_0 exactly.
    def test_first_terms_bessel(self, bessel_params):
        nums, den = carrier(bessel_params, "w0")._coefficients(2)
        assert nums[0] == den
        # a_1 = -1 / Gamma(3) = -1/2 and Gamma(P) = 1
        assert 4 * Fraction(nums[1], den) == Fraction(-1, 2)

    def test_q2_term(self):
        # a_3 = -2^3 / (3! Gamma(6 + 2.5)); log magnitude frozen from mpmath
        nums, den = carrier(Q2_PARAMS, "w0")._coefficients(4)
        beta_3 = Fraction(nums[3], den)
        rising = math.prod(Fraction(5 + 2 * j, 2) for j in range(6))  # (2.5)_6
        assert beta_3 == Fraction(-8, 4 ** 3 * 6) / rising
        a_3 = float(beta_3) * 4 ** 3 / math.gamma(2.5)
        assert math.log(-a_3) == pytest.approx(-9.261585184849217, rel=1e-13)

    def test_sign_alternates(self):
        nums, den = carrier(Q2_PARAMS, "w0")._coefficients(6)
        assert den > 0
        assert [(a > 0) - (a < 0) for a in nums] == [1, -1, 1, -1, 1, -1]


class TestEvalW:
    def test_bessel_value(self, bessel_params):
        assert eval_w(bessel_params, 2.0) == pytest.approx(J1_AT_2, rel=1e-11)

    def test_leading_term_limit(self, bessel_params):
        x = 1e-6
        scaled = 2.0 ** (bessel_params.p + 1) * math.gamma(2.0) * eval_w(
            bessel_params, x) / x ** (bessel_params.p + 1)
        assert scaled == pytest.approx(1.0, abs=1e-9)

    def test_near_first_zero(self, bessel_params):
        assert abs(eval_w(bessel_params, 3.8317059702)) < 1e-9

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    def test_against_oracle_q2(self, deriv):
        assert eval_w(Q2_PARAMS, 1.3, deriv) == pytest.approx(
            Q2_W_13[deriv], rel=1e-11)

    def test_derivative_consistency(self):
        h = 1e-5
        for x in (0.1, 0.5, 1.0, 2.0, 5.0):
            fd1 = (eval_w(Q2_PARAMS, x + h) - eval_w(Q2_PARAMS, x - h)) / (2 * h)
            assert abs(fd1 - eval_w(Q2_PARAMS, x, 1)) < 1e-6
            fd2 = (eval_w(Q2_PARAMS, x + h, 1) - eval_w(Q2_PARAMS, x - h, 1)) / (2 * h)
            assert abs(fd2 - eval_w(Q2_PARAMS, x, 2)) < 1e-6

    def test_domain_errors(self, bessel_params):
        with pytest.raises(ValueError):
            eval_w(bessel_params, 0.0)
        with pytest.raises(ValueError):
            eval_w(bessel_params, -1.0)
        with pytest.raises(ValueError):
            eval_w(bessel_params, 1.0, deriv=3)

    def test_bessel_reduction_grid(self):
        for nu in (0.5, 1.0, 2.0, 3.5):
            params = StruveParams(q=1, p=nu - 1.0, b=2.0, c=1.0, delta=1.0)
            for x in (0.5, 1.0, 2.5, 5.0, 10.0):
                ref = float(mp.besselj(nu, x))
                assert eval_w(params, x) == pytest.approx(ref, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(min_value=1, max_value=3),
    p=st.floats(min_value=-0.9, max_value=3.0),
    b=st.floats(min_value=0.5, max_value=3.0),
    c=st.floats(min_value=0.25, max_value=4.0),
    delta=st.floats(min_value=0.5, max_value=2.0),
    x=st.floats(min_value=0.05, max_value=8.0),
)
def test_c_scaling_law(q, p, b, c, delta, x):
    # W_c(x) = c^(-(p+1)/2) W_1(sqrt(c) x), on admissible parameters only
    assume(p / delta + (b + 2.0) / 2.0 > 0.0)
    params_c = StruveParams(q=q, p=p, b=b, c=c, delta=delta)
    params_1 = StruveParams(q=q, p=p, b=b, c=1.0, delta=delta)
    lhs = eval_w(params_c, x)
    rhs = c ** (-(p + 1.0) / 2.0) * eval_w(params_1, math.sqrt(c) * x)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)


class TestNormalized:
    @pytest.mark.parametrize("kind", [NormalizationKind.G, NormalizationKind.H])
    def test_unit_slope_at_origin(self, kind):
        # v(x)/x = S(u) = 1 + beta_1 u + O(u^2) with u = x^2 for g and u = x
        # for h, where beta_1 = -c Gamma(P) / (4 Gamma(q + P)).
        x = 1e-6
        shift = Q2_PARAMS.gamma_shift
        beta_1 = -Q2_PARAMS.c * math.gamma(shift) / (4.0 * math.gamma(Q2_PARAMS.q + shift))
        u = x * x if kind is NormalizationKind.G else x
        assert eval_normalized(Q2_PARAMS, kind, x) / x == pytest.approx(
            1.0 + beta_1 * u, abs=1e-9)

    def test_f_value(self):
        params = StruveParams(q=1, p=1.0, b=2.0, c=1.0, delta=1.0)
        assert eval_normalized(params, NormalizationKind.F, 1.0) == pytest.approx(
            F_AT_1_P1, rel=1e-11)

    def test_f_branch_error(self, bessel_params):
        # beyond the first zero of J_1 the radicand is negative
        with pytest.raises(BranchError):
            eval_normalized(bessel_params, NormalizationKind.F, 4.5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eval_normalized(Q2_PARAMS, NormalizationKind.G, -0.5)

    @pytest.mark.parametrize("x", [20.0, 30.0, 40.0])
    @pytest.mark.parametrize("kind", [NormalizationKind.G, NormalizationKind.H])
    def test_far_out_against_oracle(self, kind, x):
        # g(x) = x S(x^2) and h(x) = x S(x); at x^2 = 1600 the double sum of
        # S cancels away every digit and must be re-summed.
        params = StruveParams(q=1, p=0.5, b=1.0, c=1.0, delta=1.0)
        u = x * x if kind is NormalizationKind.G else x
        ref = float(x * mp_carrier(params, u, dps=80))
        assert eval_normalized(params, kind, x) == pytest.approx(ref, rel=1e-12)


class TestLogDerivative:
    def test_origin_limit(self):
        assert log_derivative(Q2_PARAMS, 1e-8) == pytest.approx(
            Q2_PARAMS.p + 1.0, abs=1e-9)

    def test_bessel_value(self, bessel_params):
        assert log_derivative(bessel_params, 1.0) == pytest.approx(
            LOGDERIV_NU1_AT_1, rel=1e-11)

    def test_decreases_to_pole(self, bessel_params):
        w1 = find_zeros(bessel_params, AuxiliaryFamily.W, 1).zeros[0]
        assert log_derivative(bessel_params, w1 * (1 - 1e-3)) < -100.0

    def test_pole_guard(self, bessel_params):
        with pytest.raises(PoleError):
            log_derivative(bessel_params, J11)


def test_truncated_product_consistency():
    # |2^(p+1) Gamma(P) W(x) - x^(p+1) prod_(n<=N) (1 - x^2/w_n^2)| shrinks
    # as N grows, for x inside the first zero.
    for params, counts in ((StruveParams(q=1, p=0.0, b=2.0, c=1.0, delta=1.0), (1, 2, 4, 8)),
                           (Q2_PARAMS, (1, 2, 4, 6))):
        zeros = find_zeros(params, AuxiliaryFamily.W, max(counts)).zeros
        x = 0.6 * zeros[0]
        shift = params.gamma_shift
        target = 2.0 ** (params.p + 1.0) * math.gamma(shift) * eval_w(params, x)
        errs = []
        for n_zeros in counts:
            prod = x ** (params.p + 1.0)
            for w in zeros[:n_zeros]:
                prod *= 1.0 - (x / w) ** 2
            errs.append(abs(target - prod))
        for a, b in zip(errs, errs[1:]):
            assert b <= a * (1.0 + 1e-9)
        assert errs[-1] < errs[0]
