"""Seeded inputs, timed operations and output checks of each workload.

A workload turns a design and a seed into a list of ``StruveParams``
(nothing else reaches the package), a list of operations to time, and a
check that judges each operation's output after the timed region.
Operations call the package through its public names only.

The design fixes which points there are: design 0 is the main one,
design 1 the held-out one. The seed only orders the points.

An operation is a pair ``(label, fn)``. ``fn(done)`` returns the output;
``done`` maps the labels of earlier operations that succeeded to their
outputs, for operations that need an earlier result; ``needs`` raises
``Skipped`` when that result is missing, and the operation counts as
failed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import struveradii as sr
from struveradii import AuxiliaryFamily as AF
from struveradii import NormalizationKind as NK
from struveradii import RadiusKind as RK
from struveradii import RadiusQuery, StruveParams

Op = tuple[str, Callable[[dict], Any]]


class Skipped(Exception):
    """An operation could not run because one it depends on failed."""


def needs(done: dict, label: str) -> Any:
    if label not in done:
        raise Skipped(label)
    return done[label]


ZEROS_PER_SEQUENCE = 10

_SUITES = ("interlacing", "sandwich", "monotone")
# CheckResults per run_suite call: per grid point, and for the bessel suite.
_CHECKS_PER_POINT = {"interlacing": 1, "sandwich": 5, "monotone": 2}
_BESSEL_CHECKS = 12

_BOUNDED_FAMILIES = (
    (AF.W_PRIME, RK.STARLIKE, NK.F),
    (AF.G_PRIME_SUBST, RK.STARLIKE, NK.G),
    (AF.H_PRIME_SUBST, RK.STARLIKE, NK.H),
    (AF.ALEX_G_SUBST, RK.CONVEX, NK.G),
    (AF.ALEX_H, RK.CONVEX, NK.H),
)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, int, int], tuple[StruveParams, ...]]  # (seed, points, design)
    ops: Callable[[tuple[StruveParams, ...]], list[Op]]
    check: Callable[[dict], dict[str, str]]  # outputs -> {label: what is wrong}


def _even(qs: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """(q, number of points) for n points split evenly over ``qs``."""
    return [(q, n // len(qs) + (1 if i < n % len(qs) else 0)) for i, q in enumerate(qs)]


def _stratified(rng: random.Random, counts: list[tuple[int, int]],
                ranges: tuple[tuple[float, float], ...]) -> list[tuple]:
    """For each (q, m) in ``counts``, m points on a Latin hypercube over
    ``ranges`` (each coordinate takes one value, placed by ``rng``, from
    each of its m equal strata, and ``rng`` pairs the strata)."""
    points = []
    for q, m in counts:
        cols = []
        for lo, hi in ranges:
            strata = list(range(m))
            rng.shuffle(strata)
            cols.append([lo + (hi - lo) * (k + rng.random()) / m for k in strata])
        points.extend((q, *row) for row in zip(*cols))
    return points


# --- verify-default --------------------------------------------------------

def _verify_generate(seed: int, points: int, design: int) -> tuple[StruveParams, ...]:
    """The default grid in a seeded order (the first ``points`` of it).
    There is one grid, so every design is the same."""
    grid = list(sr.default_grid())
    random.Random(seed).shuffle(grid)
    return tuple(grid[:points])


def _verify_ops(grid: tuple[StruveParams, ...]) -> list[Op]:
    ops: list[Op] = []
    for suite in _SUITES:
        for i, params in enumerate(grid):
            ops.append((f"{suite}/{i}",
                        lambda done, s=suite, p=params: sr.run_suite(s, (p,))))
    ops.append(("bessel", lambda done: sr.run_suite("bessel", ())))
    return ops


def _verify_check(outputs: dict) -> dict[str, str]:
    bad = {}
    for label, report in outputs.items():
        suite = label.split("/")[0]
        expected = _BESSEL_CHECKS if suite == "bessel" else _CHECKS_PER_POINT[suite]
        failed = [c.name for c in report.checks if not c.passed]
        if len(report.checks) != expected:
            bad[label] = f"{len(report.checks)} checks, expected {expected}"
        elif failed:
            bad[label] = "failed: " + "; ".join(failed)
    return bad


# --- radii-wide ------------------------------------------------------------

def _radii_generate(seed: int, points: int, design: int) -> tuple[StruveParams, ...]:
    """A fixed stratified design, split evenly over q in {1,2,3,4,6}, with
    log10 c in [-3,3], p in (-1,8], b in (0,4] and delta in [0.25,4] (a
    draw with p/delta + (b+2)/2 <= 0 is redrawn); the seed orders it.

    The points do not change with the seed: a handful of 1-9 s first-zero
    scans carry most of the time, and which points have them is a matter
    of the draw.
    """
    rng = random.Random(design)
    raw = _stratified(rng, _even((1, 2, 3, 4, 6), points),
                      ((-3.0, 3.0), (0.0, 1.0), (0.0, 1.0), (0.25, 4.0)))
    out = []
    for q, log_c, up, ub, delta in raw:
        p, b = 8.0 - 9.0 * up, 4.0 - 4.0 * ub  # maps [0,1) onto (-1,8] and (0,4]
        while p / delta + (b + 2.0) / 2.0 <= 0.0:
            p, delta = 8.0 - 9.0 * rng.random(), rng.uniform(0.25, 4.0)
        out.append(StruveParams(q=q, p=p, b=b, c=10.0 ** log_c, delta=delta))
    random.Random(seed).shuffle(out)
    return tuple(out)


def _radii_op(params: StruveParams, family: AF, kind: RK,
              norm: NK) -> tuple[float, float, float]:
    pair = sr.bounds_for(params, family, 1)
    query = RadiusQuery(params=params, kind=kind, normalization=norm, alpha=0.0)
    solve = sr.radius_starlike if kind is RK.STARLIKE else sr.radius_convex
    return pair.lower, solve(query).value, pair.upper


def _radii_ops(points: tuple[StruveParams, ...]) -> list[Op]:
    return [(f"radii/{i}/{fam.value}", lambda done, p=params, f=fam, k=kind, n=norm:
             _radii_op(p, f, k, n))
            for i, params in enumerate(points) for fam, kind, norm in _BOUNDED_FAMILIES]


def _radii_check(outputs: dict) -> dict[str, str]:
    return {label: f"{lo!r} < {r!r} < {hi!r} fails"
            for label, (lo, r, hi) in outputs.items() if not lo < r < hi}


# --- zeros-deep ------------------------------------------------------------

def _zeros_generate(seed: int, points: int, design: int) -> tuple[StruveParams, ...]:
    """A fixed stratified design, two thirds of it with q = 1 and one
    third with q = 2, with log10 c in [-1,1], p in [-0.5,4], b in [0.5,3]
    and delta in [0.5,2]; the seed orders it.

    The points do not change with the seed: whether a point raises after
    eight rescans (0.6 s) flips under a 1% change of its parameters, and
    with seeded points wall_s spread by 16-23% across seeds.

    The q = 2 operations take at most 50-70 ms and the q = 1 operations at
    least 85-95 ms. With as many points of each, the median operation lies
    in the gap and is the mean of two single operations, whose latencies
    vary by up to 30% between repetitions; op_ms_p50 spread by 10% over six
    seeds. With two thirds at q = 1 it lies among the q = 1 operations.
    """
    raw = _stratified(random.Random(design), [(1, points - points // 3), (2, points // 3)],
                      ((-1.0, 1.0), (-0.5, 4.0), (0.5, 3.0), (0.5, 2.0)))
    random.Random(seed).shuffle(raw)
    return tuple(StruveParams(q=q, p=p, b=b, c=10.0 ** log_c, delta=delta)
                 for q, log_c, p, b, delta in raw)


def _zeros_ops(points: tuple[StruveParams, ...]) -> list[Op]:
    ops: list[Op] = []
    for i, params in enumerate(points):
        ops.append((f"w/{i}", lambda done, p=params:
                    sr.find_zeros(p, AF.W, ZEROS_PER_SEQUENCE)))
        ops.append((f"wp/{i}", lambda done, p=params, i=i:
                    sr.find_zeros(p, AF.W_PRIME, ZEROS_PER_SEQUENCE,
                                  reference=needs(done, f"w/{i}"))))
    return ops


def _bracket_problems(seq, derivative: bool) -> list[str]:
    """Brackets whose ends do not have opposite signs under the mpmath
    reference, or that do not hold their zero."""
    from reference import series_sign  # mpmath stays out of the timed set-up

    prm = seq.params
    problems = []
    if len(seq.zeros) != ZEROS_PER_SEQUENCE:
        problems.append(f"{len(seq.zeros)} zeros")
    for k, ((lo, hi), z) in enumerate(zip(seq.brackets, seq.zeros), start=1):
        if not lo <= z <= hi:
            problems.append(f"zero {k} = {z!r} outside ({lo!r}, {hi!r})")
            continue
        s_lo = series_sign(prm.q, prm.p, prm.b, prm.c, prm.delta, lo, derivative)
        s_hi = series_sign(prm.q, prm.p, prm.b, prm.c, prm.delta, hi, derivative)
        if s_lo * s_hi != -1:
            problems.append(f"zero {k}: signs {s_lo}, {s_hi} on ({lo!r}, {hi!r})")
    return problems


def _zeros_check(outputs: dict) -> dict[str, str]:
    bad = {}
    for label, seq in outputs.items():
        problems = _bracket_problems(seq, derivative=label.startswith("wp/"))
        if label.startswith("wp/"):
            report = sr.check_interlacing(seq, outputs["w/" + label[3:]])
            if not report.ok:
                problems.append(f"interlacing fails at {report.first_violation}")
        if problems:
            bad[label] = "; ".join(problems)
    return bad


# --- output digests --------------------------------------------------------

def summary(output: Any) -> Any:
    """A plain, exactly comparable form of an operation's output."""
    if isinstance(output, sr.SuiteReport):
        return [(c.name, c.passed, repr(c.margin)) for c in output.checks]
    if isinstance(output, sr.ZeroSequence):
        return [repr(z) for z in output.zeros] + [repr(b) for b in output.brackets]
    return repr(output)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-default", _verify_generate, _verify_ops, _verify_check),
        Workload("radii-wide", _radii_generate, _radii_ops, _radii_check),
        Workload("zeros-deep", _zeros_generate, _zeros_ops, _zeros_check),
    )
}
