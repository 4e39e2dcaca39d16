import math
from fractions import Fraction

import mpmath as mp
import pytest

from struveradii import (
    NumericalError,
    ScanOverflowError,
    StruveParams,
    ZeroSequence,
    check_interlacing,
    eval_normalized,
    find_zeros,
    first_zero,
    reduce_to_bessel,
)
from struveradii import zeros
from struveradii.series import LogSeries
from struveradii.struve import NormalizationKind
from struveradii.verify import default_grid
from struveradii.zeros import AuxiliaryFamily, certified_sign, family_series

from conftest import mp_carrier, mp_shift

def mp_carrier_sign(params: StruveParams, x: float, dps: int = 120) -> int:
    """Sign of S(x^2) at the exact x^2, from a dps-digit sum of the ratio
    recurrence run until its terms fall below 10^-dps of the largest. The
    sum must stand 20 digits clear of that level."""
    with mp.workdps(dps):
        shift = mp_shift(params)
        z = -mp.mpf(params.c) * mp.mpf(x) ** 2 / 4
        term = total = biggest = mp.mpf(1)
        n = 0
        while abs(term) >= mp.mpf(10) ** -dps * biggest:
            term *= z / ((n + 1) * mp.fprod(params.q * n + j + shift
                                            for j in range(params.q)))
            total += term
            biggest = max(biggest, abs(term))
            n += 1
        assert abs(total) > mp.mpf(10) ** (20 - dps) * biggest
        return int(mp.sign(total))


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

    @pytest.mark.parametrize("q, count", [(1, 24), (2, 48)])
    def test_deep_zeros_certified(self, q, count):
        # Out to x = 76 (q = 1) and x = 1769 (q = 2) the alternating sum
        # cancels by 30 to 60 digits from its peak term down to its value,
        # so the scan and the polish certify their signs by the exact
        # re-sum. A 120-digit sum confirms both ends of every bracket.
        params = StruveParams(q=q, p=0.5, b=1.0, c=1.0, delta=1.0)
        seq = find_zeros(params, AuxiliaryFamily.W, count)
        assert len(seq.zeros) == count
        for lo, hi in seq.brackets:
            assert mp_carrier_sign(params, lo) * mp_carrier_sign(params, hi) < 0

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


class TestSequenceCache:
    def test_first_zero_after_find_zeros_scans_nothing(self, monkeypatch):
        params = StruveParams(q=2, p=1.5, b=0.5, c=3.0, delta=2.0)
        w = find_zeros(params, AuxiliaryFamily.W, 5)
        wp = find_zeros(params, AuxiliaryFamily.W_PRIME, 5, reference=w)
        scans = []
        scan = zeros._scan

        def counted(*args):
            scans.append(args)
            return scan(*args)

        monkeypatch.setattr(zeros, "_scan", counted)
        assert first_zero(params, AuxiliaryFamily.W) == w.zeros[0]
        assert first_zero(params, AuxiliaryFamily.W_PRIME) == wp.zeros[0]
        assert scans == []

    @pytest.mark.parametrize("params", [
        StruveParams(q=1, p=0.0, b=2.0, c=1.0, delta=1.0),
        Q2_PARAMS,
        StruveParams(q=3, p=-0.5, b=1.5, c=2.0, delta=0.5),
    ])
    def test_shorter_requests_are_prefixes(self, params, monkeypatch):
        # Fresh scans for 1, 2 and 3 zeros give the first zeros, brackets
        # and residuals of a scan for 5 bit for bit, so the stored longer
        # sequence can answer them, whichever is asked for first.
        for family in AuxiliaryFamily:
            runs = []
            for order in ((1, 2, 3, 5), (5, 3, 2, 1)):
                monkeypatch.setattr(zeros, "_SEQUENCES", {})
                runs.append({k: find_zeros(params, family, k) for k in order})
            short_first, long_first = runs
            full = short_first[5]
            assert long_first[5] == full
            for k in (1, 2, 3):
                prefix = ZeroSequence(family, params, full.zeros[:k],
                                      full.residuals[:k], full.brackets[:k])
                assert short_first[k] == prefix
                assert long_first[k] == prefix


# Points where the first 0.1 step of the scan holds the first two zeros of
# g'(2 sqrt(u)) and of h'(4u), so that the first sign change the scan sees
# is the third zero.
WIDE_POINTS = [
    StruveParams(q=1, p=2.8658648501006665, b=3.3980979256170545,
                 c=473.9121941011824, delta=1.6301337957369189),
    StruveParams(q=2, p=5.915360096481802, b=0.27851559241673174,
                 c=810.4953516413045, delta=2.9523240632798666),
]


@pytest.mark.parametrize("params", WIDE_POINTS)
@pytest.mark.parametrize("family", [AuxiliaryFamily.G_PRIME_SUBST,
                                    AuxiliaryFamily.H_PRIME_SUBST])
def test_first_zero_is_certified_the_first(params, family):
    # The scan at the initial step fails the certificate; the first zero
    # returned lies in the k = 8 Euler-Rayleigh bracket
    # S_8^(-1/8) < rho_1 < S_8 / S_9, compared in exact rationals.
    assert zeros._scanned(params, family, 1, 0)[1] is False
    sigma, den = family_series(params, family).power_sums(9)
    z = Fraction(first_zero(params, family))
    assert z ** 8 * sigma[7] > den ** 8
    assert z * sigma[8] < sigma[7] * den


@pytest.mark.parametrize("nu", [50, 100])
def test_first_zero_certified_at_large_order(nu):
    # For W at q = 1 the roots are j_(nu,n)^2, and the ratio j_(nu,1) /
    # j_(nu,2) nears 1 as nu grows: S_4 j_(nu,1)^4 exceeds 2 here, so the
    # certificate has to go on to higher power sums.
    params = reduce_to_bessel(nu)
    z = find_zeros(params, AuxiliaryFamily.W, 1).zeros[0]
    assert z == pytest.approx(float(mp.besseljzero(nu, 1)), rel=1e-11)
    assert zeros._scanned(params, AuxiliaryFamily.W, 1, 0)[1] is True


def test_undecided_certificate_raises_without_rescans(monkeypatch):
    params = StruveParams(q=1, p=0.7, b=1.3, c=0.4, delta=1.1)
    monkeypatch.setattr(zeros, "_certified_first", lambda *args: None)
    monkeypatch.setattr(zeros, "_SEQUENCES", {})
    with pytest.raises(NumericalError, match="could not be certified the first"):
        find_zeros(params, AuxiliaryFamily.W, 1)
    assert [key[2] for key in zeros._SEQUENCES] == [0]


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
        # the substituted carrier at s against a 40-digit sum of
        # sum_n beta_n (2n+1) (4s)^n, the series of g' at x^2 = 4s, with
        # beta_n from gamma functions: this exercises the 4^n bookkeeping
        for params in (Q2_PARAMS, StruveParams(q=1, p=0.5, b=2.0, c=2.0, delta=1.0)):
            series = family_series(params, AuxiliaryFamily.G_PRIME_SUBST)
            s1 = find_zeros(params, AuxiliaryFamily.G_PRIME_SUBST, 1).zeros[0]
            for s in (0.5 * s1, s1, 2.0 * s1):
                sv = series.eval_scaled(s)
                value = math.ldexp(sv.mantissa, sv.exponent)
                with mp.workdps(40):
                    shift = mp_shift(params)
                    exact = mp.fsum(
                        (-mp.mpf(params.c)) ** n * mp.gamma(shift) * (2 * n + 1)
                        * mp.mpf(s) ** n / (mp.factorial(n) * mp.gamma(params.q * n + shift))
                        for n in range(160))
                assert abs(value - exact) <= math.ldexp(sv.error, sv.exponent)
                if s == s1:
                    assert abs(sv.over_peak()) < 1e-9
                else:
                    assert value == pytest.approx(float(exact), rel=1e-12)


# radii-wide points whose first zeros lie far out: at FAR_OUT the floor of
# g'(2 sqrt(u)) is 2.03e6, past MAX_ABSCISSA; at FLOOR_BELOW the floor of
# ALEX_H is 9,948 and its first zero 10,126.
FAR_OUT = StruveParams(q=6, p=7.119778829023639, b=1.281886673540658,
                       c=0.008939425725402945, delta=3.1576564556632842)
FLOOR_BELOW = StruveParams(q=4, p=2.3329738620732456, b=2.0589864886945453,
                           c=0.026834968041021805, delta=3.4920126250934915)


def _spy_blocks(monkeypatch) -> list[int]:
    """Record the size of every eval_block call from now on."""
    sizes = []
    eval_block = LogSeries.eval_block

    def spy(self, u, square=False):
        sizes.append(len(u))
        return eval_block(self, u, square)

    monkeypatch.setattr(LogSeries, "eval_block", spy)
    monkeypatch.setattr(zeros, "_SEQUENCES", {})
    return sizes


def test_floor_past_the_cap_raises_after_the_first_block(monkeypatch):
    # A scan from the origin would sum about 9,800 blocks before it gave up.
    sizes = _spy_blocks(monkeypatch)
    with pytest.raises(ScanOverflowError, match="Euler–Rayleigh floor 2.03"):
        find_zeros(FAR_OUT, AuxiliaryFamily.G_PRIME_SUBST, 1)
    assert len(sizes) <= 1


def test_floor_leaves_zeros_and_brackets_unchanged(monkeypatch):
    sizes = _spy_blocks(monkeypatch)
    with_floor = find_zeros(FLOOR_BELOW, AuxiliaryFamily.ALEX_H, 2)
    points_with_floor = sum(sizes)
    sizes.clear()
    monkeypatch.setattr(zeros, "_SEQUENCES", {})
    monkeypatch.setattr(zeros, "_euler_rayleigh_floor", lambda *args: 0.0)
    from_origin = find_zeros(FLOOR_BELOW, AuxiliaryFamily.ALEX_H, 2)
    assert with_floor == from_origin
    assert points_with_floor < sum(sizes)


@pytest.mark.parametrize("params", [*default_grid()[::27], StruveParams(
    q=1, p=0.0, b=2.0, c=1.0, delta=1.0), FAR_OUT, FLOOR_BELOW])
def test_floor_is_the_largest_double_below_the_first_zero(params):
    # In the family's variable (x^2 for W and W'), the floor is the largest
    # double at most 1/S_1, exactly, and lies below the first bracket.
    for family in AuxiliaryFamily:
        series = family_series(params, family)
        floor = zeros._euler_rayleigh_floor(series, family)
        (sigma,), den = series.power_sums(1)
        power = 2 if family in (AuxiliaryFamily.W, AuxiliaryFamily.W_PRIME) else 1
        assert Fraction(floor) ** power <= Fraction(den, sigma)
        assert Fraction(math.nextafter(floor, math.inf)) ** power > Fraction(den, sigma)
        try:
            lo = find_zeros(params, family, 1).brackets[0][0]
        except ScanOverflowError:
            assert floor >= zeros.MAX_ABSCISSA
        else:
            assert floor < lo
