"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The parameter grid is the full default grid (162 points over q, p, b, c,
delta); the Bessel order grid is {0.5, 1, 2, 3.5}.
"""

import math
from functools import lru_cache

import pytest

from struveradii import (
    StruveParams,
    bessel_j,
    bessel_j_zeros,
    bounds_for,
    check_interlacing,
    corollary_bounds,
    eval_w,
    find_zeros,
    radius_convex,
    radius_starlike,
    rayleigh_sums_closed_form,
    rayleigh_sums_newton,
    reduce_to_bessel,
)
from struveradii.bessel import CorollaryFamily
from struveradii.verify import default_grid, default_shapes
from struveradii.radii import RadiusKind, RadiusQuery
from struveradii.struve import NormalizationKind as NK
from struveradii.zeros import AuxiliaryFamily as AF

GRID = default_grid()
NUS = (0.5, 1.0, 2.0, 3.5)
ALPHAS = (0.0, 0.25, 0.5, 0.75)

BOUND_FAMILIES = (
    (AF.W_PRIME, RadiusKind.STARLIKE, NK.F),
    (AF.G_PRIME_SUBST, RadiusKind.STARLIKE, NK.G),
    (AF.H_PRIME_SUBST, RadiusKind.STARLIKE, NK.H),
    (AF.ALEX_G_SUBST, RadiusKind.CONVEX, NK.G),
    (AF.ALEX_H, RadiusKind.CONVEX, NK.H),
)


@lru_cache(maxsize=None)
def _radius(params: StruveParams, kind: RadiusKind, norm: NK, alpha: float) -> float:
    query = RadiusQuery(params=params, kind=kind, normalization=norm, alpha=alpha)
    solver = radius_starlike if kind is RadiusKind.STARLIKE else radius_convex
    return solver(query).value


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_bessel_dual_path():
    worst = 0.0
    for nu in NUS:
        params = reduce_to_bessel(nu)
        for i in range(1, 21):
            x = 0.5 * i
            ref = bessel_j(nu, x)
            dev = abs(eval_w(params, x) - ref) / (1.0 + abs(ref))
            worst = max(worst, dev)
    _report("criterion 1 (Bessel dual path)", worst <= 1e-10,
            f"worst scaled deviation {worst:.3e} <= 1e-10")


def test_criterion_2_corollary_equality():
    worst = 0.0
    for nu in NUS:
        params = reduce_to_bessel(nu)
        for which in CorollaryFamily:
            closed = corollary_bounds(nu, which)
            general = bounds_for(params, closed.family, 1)
            worst = max(worst,
                        abs(general.lower - closed.lower) / closed.lower,
                        abs(general.upper - closed.upper) / closed.upper)
    _report("criterion 2 (corollary equality at k=1)", worst <= 1e-11,
            f"worst relative deviation {worst:.3e} <= 1e-11")


def test_criterion_3_sandwich():
    worst = math.inf
    for params in GRID:
        for family, kind, norm in BOUND_FAMILIES:
            pair = bounds_for(params, family, 1)
            radius = _radius(params, kind, norm, 0.0)
            worst = min(worst, radius - pair.lower, pair.upper - radius)
    _report("criterion 3 (k=1 bounds sandwich the radius)", worst >= 1e-9,
            f"smallest margin {worst:.3e} >= 1e-9 over {len(GRID)} points x 5 families")


def test_criterion_4_tightening():
    ok = True
    worst_shrink = math.inf
    for params in GRID:
        for family, _, _ in BOUND_FAMILIES:
            pairs = [bounds_for(params, family, k) for k in range(1, 5)]
            for a, b in zip(pairs, pairs[1:]):
                ok = ok and b.lower >= a.lower * (1.0 - 1e-12)
                ok = ok and b.upper <= a.upper * (1.0 + 1e-12)
            gap1 = pairs[0].upper - pairs[0].lower
            gap4 = pairs[-1].upper - pairs[-1].lower
            ok = ok and gap4 < gap1
            worst_shrink = min(worst_shrink, (gap1 - gap4) / gap1)
    _report("criterion 4 (bounds tighten for k=1..4)", ok,
            f"smallest relative gap shrink {worst_shrink:.3e} > 0")


def test_criterion_5_interlacing():
    worst_gap = math.inf
    ok = True
    for params in GRID:
        w = find_zeros(params, AF.W, 5)
        wp = find_zeros(params, AF.W_PRIME, 5, reference=w)
        report = check_interlacing(wp, w)
        ok = ok and report.ok
        merged = [x for pair in zip(wp.zeros, w.zeros) for x in pair]
        worst_gap = min(worst_gap, min(b - a for a, b in zip(merged, merged[1:])))
    _report("criterion 5 (W' zeros interlace W zeros)", ok and worst_gap > 0.0,
            f"smallest interlacing gap {worst_gap:.3e} over {len(GRID)} points")


def test_criterion_6_alpha_monotonicity_and_containment():
    worst_drop = math.inf
    worst_slack = math.inf
    for params in GRID:
        for kind in (RadiusKind.STARLIKE, RadiusKind.CONVEX):
            for norm in NK:
                values = [_radius(params, kind, norm, a) for a in ALPHAS]
                worst_drop = min(worst_drop, min(
                    a - b for a, b in zip(values, values[1:])))
        for norm in NK:
            for alpha in ALPHAS:
                worst_slack = min(
                    worst_slack,
                    _radius(params, RadiusKind.STARLIKE, norm, alpha)
                    - _radius(params, RadiusKind.CONVEX, norm, alpha))
    ok = worst_drop > 0.0 and worst_slack >= -1e-10
    _report("criterion 6 (radii decrease in alpha; convex <= starlike)", ok,
            f"smallest alpha drop {worst_drop:.3e}, smallest containment slack "
            f"{worst_slack:.3e}")


def test_criterion_7_scaling_law():
    worst = 0.0
    for (q, p, b, d) in default_shapes():
        base = StruveParams(q=q, p=p, b=b, c=1.0, delta=d)
        base_w = find_zeros(base, AF.W, 5).zeros
        base_wp = find_zeros(base, AF.W_PRIME, 5).zeros
        base_sub = {
            fam: find_zeros(base, fam, 3).zeros
            for fam in (AF.G_PRIME_SUBST, AF.H_PRIME_SUBST,
                        AF.ALEX_G_SUBST, AF.ALEX_H)
        }
        base_radius = {
            norm: _radius(base, RadiusKind.STARLIKE, norm, 0.0)
            for norm in NK
        }
        for c in (0.25, 4.0):
            root_c = math.sqrt(c)
            scaled = StruveParams(q=q, p=p, b=b, c=c, delta=d)
            for ref, z in zip(base_w, find_zeros(scaled, AF.W, 5).zeros):
                worst = max(worst, abs(z * root_c - ref) / ref)
            for ref, z in zip(base_wp, find_zeros(scaled, AF.W_PRIME, 5).zeros):
                worst = max(worst, abs(z * root_c - ref) / ref)
            for fam, refs in base_sub.items():
                for ref, z in zip(refs, find_zeros(scaled, fam, 3).zeros):
                    worst = max(worst, abs(z * c - ref) / ref)
            for norm in NK:
                factor = c if norm is NK.H else root_c
                value = _radius(scaled, RadiusKind.STARLIKE, norm, 0.0)
                worst = max(worst, abs(value * factor - base_radius[norm])
                            / base_radius[norm])
    _report("criterion 7 (zeros and radii obey the c-scaling law)", worst <= 1e-9,
            f"worst relative deviation {worst:.3e} <= 1e-9 for c in {{0.25, 4}}")


def test_criterion_8_newton_vs_closed_form():
    worst = 0.0
    for params in GRID:
        for family, _, _ in BOUND_FAMILIES:
            newton = rayleigh_sums_newton(params, family, 2)
            closed = rayleigh_sums_closed_form(params, family)
            for n_val, c_val in zip(newton.sums, closed.sums):
                worst = max(worst, abs(n_val - c_val) / abs(c_val))
    _report("criterion 8 (Newton sums match closed forms)", worst <= 1e-11,
            f"worst relative deviation {worst:.3e} <= 1e-11")


def test_criterion_9_known_zero_spot_checks():
    params = reduce_to_bessel(1.0)
    first_w = find_zeros(params, AF.W, 1).zeros[0]
    first_wp = find_zeros(params, AF.W_PRIME, 1).zeros[0]
    dev_w = abs(first_w - 3.8317059702)
    dev_wp = abs(first_wp - 1.8411837813)
    oracle_w = bessel_j_zeros(1.0, 1)[0]
    dev_oracle = abs(first_w - oracle_w)
    ok = dev_w <= 1e-8 and dev_wp <= 1e-8 and dev_oracle <= 1e-9
    _report("criterion 9 (known first zeros of J_1 and J_1')", ok,
            f"|dev| = {dev_w:.2e}, {dev_wp:.2e}; vs oracle {dev_oracle:.2e}")
