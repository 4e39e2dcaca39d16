import math

import mpmath as mp
import pytest

from struveradii import (
    NumericalError,
    ScanOverflowError,
    StruveParams,
    check_interlacing,
    eval_normalized,
    find_zeros,
)
from struveradii.struve import NormalizationKind
from struveradii.zeros import AuxiliaryFamily, certified_sign, family_series

from conftest import mp_carrier

# Bessel J_1 zeros and J_1' zeros, frozen from the mpmath oracle.
J1_ZEROS = (3.8317059702075123, 7.0155866698156188)
J1P_ZEROS = (1.8411837813406593, 5.3314427735250326)

Q2_PARAMS = StruveParams(q=2, p=0.5, b=1.0, c=1.0, delta=1.0)


class TestFindZeros:
    def test_bessel_w_zeros(self, bessel_params):
        seq = find_zeros(bessel_params, AuxiliaryFamily.W, 2)
        for ours, ref in zip(seq.zeros, J1_ZEROS):
            assert ours == pytest.approx(ref, abs=1e-9)

    def test_bessel_wprime_zero(self, bessel_params):
        seq = find_zeros(bessel_params, AuxiliaryFamily.W_PRIME, 1)
        assert seq.zeros[0] == pytest.approx(J1P_ZEROS[0], abs=1e-9)

    def test_c_scaling_halves_zeros(self):
        base = find_zeros(Q2_PARAMS, AuxiliaryFamily.W, 3).zeros
        quad = StruveParams(q=2, p=0.5, b=1.0, c=4.0, delta=1.0)
        scaled = find_zeros(quad, AuxiliaryFamily.W, 3).zeros
        for a, b in zip(base, scaled):
            assert b == pytest.approx(a / 2.0, rel=1e-10)

    def test_residuals_within_scale(self, bessel_params):
        seq = find_zeros(bessel_params, AuxiliaryFamily.W, 5)
        assert all(abs(r) <= 1e-10 for r in seq.residuals)

    def test_brackets_enclose(self, bessel_params):
        seq = find_zeros(bessel_params, AuxiliaryFamily.W, 3)
        for z, (lo, hi) in zip(seq.zeros, seq.brackets):
            assert lo <= z <= hi
            assert hi - lo <= 1e-12 * (1.0 + z) + 1e-15

    def test_count_validation(self, bessel_params):
        for bad in (0, -1, 65, 2.0):
            with pytest.raises(ValueError):
                find_zeros(bessel_params, AuxiliaryFamily.W, bad)

    def test_scan_overflow(self):
        sparse = StruveParams(q=3, p=0.5, b=1.0, c=1e-4, delta=1.0)
        with pytest.raises(ScanOverflowError):
            find_zeros(sparse, AuxiliaryFamily.W, 64)

    def test_sparse_zeros_below_scan_limit(self):
        # 28 zeros lie below the scan limit; from the 24th on, the double
        # sums there are off by more than the series' value, so only
        # certified signs find them. An 80-digit sum confirms every bracket.
        sparse = StruveParams(q=3, p=0.5, b=1.0, c=1e-4, delta=1.0)
        seq = find_zeros(sparse, AuxiliaryFamily.W, 28)
        assert len(seq.zeros) == 28
        deep = ((730000, 732500), (792500, 795000), (857500, 860000),
                (925000, 927500), (995000, 997500))
        for z, (a, b) in zip(seq.zeros[23:], deep):
            assert a < z < b
        for lo, hi in seq.brackets:
            assert mp.sign(mp_carrier(sparse, lo * lo, dps=80)) * mp.sign(
                mp_carrier(sparse, hi * hi, dps=80)) < 0

    def test_sign_change_at_each_zero(self):
        # certified signs straddle every reported zero at h = 1e-8 (1 + z)
        for params in (StruveParams(q=1, p=2.0, b=2.0, c=0.5, delta=1.0), Q2_PARAMS):
            for family in (AuxiliaryFamily.W, AuxiliaryFamily.W_PRIME):
                for z in find_zeros(params, family, 5).zeros:
                    h = 1e-8 * (1.0 + z)
                    assert certified_sign(params, family, z - h) * certified_sign(
                        params, family, z + h) < 0


@pytest.mark.parametrize("params, x", [
    (StruveParams(q=1, p=-0.024879255120875965, b=1.1073627392808278,
                  c=4.225783654533311, delta=1.8635899936982172), 3.085740891231466),
    (StruveParams(q=1, p=3.370401773508187, b=2.8471631172399716,
                  c=6.319748980594043, delta=1.7722403703122305), 5.3544132066340655),
])
def test_certified_sign_at_exact_square_and_shift(params, x):
    # Within a rounding of a zero of W: the series summed at the rounded
    # x*x with P rounded to double has the opposite sign to W(x) itself.
    with mp.workdps(80):
        exact = mp_carrier(params, mp.mpf(x) ** 2, dps=80)
    assert certified_sign(params, AuxiliaryFamily.W, x) == mp.sign(exact)


class TestInterlacing:
    def test_bessel_case(self, bessel_params):
        w = find_zeros(bessel_params, AuxiliaryFamily.W, 2)
        wp = find_zeros(bessel_params, AuxiliaryFamily.W_PRIME, 2)
        report = check_interlacing(wp, w)
        assert report.ok and report.first_violation is None

    def test_identical_sequences_fail(self, bessel_params):
        w = find_zeros(bessel_params, AuxiliaryFamily.W, 2)
        report = check_interlacing(w, w)
        assert not report.ok
        assert report.first_violation == 1

    def test_length_mismatch(self, bessel_params):
        w2 = find_zeros(bessel_params, AuxiliaryFamily.W, 2)
        w3 = find_zeros(bessel_params, AuxiliaryFamily.W, 3)
        with pytest.raises(ValueError):
            check_interlacing(w2, w3)

    def test_reference_never_interlaced_raises(self, bessel_params):
        # A sequence cannot interlace itself, so every half-step rescan
        # fails and the search gives up.
        wp = find_zeros(bessel_params, AuxiliaryFamily.W_PRIME, 3)
        with pytest.raises(NumericalError, match="half-step rescans"):
            find_zeros(bessel_params, AuxiliaryFamily.W_PRIME, 3, reference=wp)

    def test_q2_case_against_fine_scan(self):
        # five zeros, independently confirmed by a high-precision sign scan
        w = find_zeros(Q2_PARAMS, AuxiliaryFamily.W, 5)
        wp = find_zeros(Q2_PARAMS, AuxiliaryFamily.W_PRIME, 5, reference=w)
        assert check_interlacing(wp, w).ok
        for z in w.zeros:
            lo = mp_carrier(Q2_PARAMS, (z * (1 - 1e-6)) ** 2)
            hi = mp_carrier(Q2_PARAMS, (z * (1 + 1e-6)) ** 2)
            assert mp.sign(lo) * mp.sign(hi) < 0
        # no zero was missed below the fifth one
        samples = [w.zeros[4] * (i + 0.5) / 400.0 for i in range(400)]
        signs = [mp.sign(mp_carrier(Q2_PARAMS, s * s)) for s in samples]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)
        assert flips == 4  # the fifth flip happens beyond the last sample


class TestSubstitutedFamilies:
    def test_g_prime_substitution(self, bessel_params):
        s = find_zeros(bessel_params, AuxiliaryFamily.G_PRIME_SUBST, 1).zeros[0]
        x = 2.0 * math.sqrt(s)
        h = 1e-5 * (1.0 + x)
        fd = (eval_normalized(bessel_params, NormalizationKind.G, x + h)
              - eval_normalized(bessel_params, NormalizationKind.G, x - h)) / (2 * h)
        assert abs(fd) < 1e-6

    def test_h_prime_substitution(self, bessel_params):
        s = find_zeros(bessel_params, AuxiliaryFamily.H_PRIME_SUBST, 1).zeros[0]
        x = 4.0 * s
        h = 1e-5 * (1.0 + x)
        fd = (eval_normalized(bessel_params, NormalizationKind.H, x + h)
              - eval_normalized(bessel_params, NormalizationKind.H, x - h)) / (2 * h)
        assert abs(fd) < 1e-6

    def test_alex_g_substitution(self, bessel_params):
        s = find_zeros(bessel_params, AuxiliaryFamily.ALEX_G_SUBST, 1).zeros[0]
        x = 2.0 * math.sqrt(s)
        h = 1e-4 * (1.0 + x)
        g = lambda t: eval_normalized(bessel_params, NormalizationKind.G, t)
        # (t g'(t))' by a second-order central difference of t -> t g'(t)
        tgp = lambda t: t * (g(t + h) - g(t - h)) / (2 * h)
        fd = (tgp(x + h) - tgp(x - h)) / (2 * h)
        assert abs(fd) < 1e-4

    def test_direct_series_consistency(self):
        # the substituted carrier at s equals the unsubstituted one at its
        # mapped argument, exercising the 4^n bookkeeping between paths
        for params in (Q2_PARAMS, StruveParams(q=1, p=0.5, b=2.0, c=2.0, delta=1.0)):
            s = find_zeros(params, AuxiliaryFamily.G_PRIME_SUBST, 1).zeros[0]
            direct = family_series(params, AuxiliaryFamily.G_PRIME_SUBST).eval_scaled(s)
            from struveradii.struve import carrier
            mapped = carrier(params, "g1").eval_scaled(4.0 * s)
            assert abs(mapped.over_peak()) < 1e-9
            assert abs(direct.over_peak()) < 1e-9
