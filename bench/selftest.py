"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/selftest.py

Run from the repository root. They use tiny inputs and take well under
a minute.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import struveradii  # noqa: E402
import tracer  # noqa: E402
from run import _child_env  # noqa: E402
from workloads import WORKLOADS, Skipped  # noqa: E402

# Layer metrics that are counts (or ratios of counts) and must repeat exactly.
COUNT_METRICS = [
    "series.eval_scaled.calls", "series.eval_scaled.terms_per_call",
    "series.eval_block.calls", "series.eval_block.points",
    "struve.compensated_carrier_value.calls", "struve.carrier.misses",
    "zeros.find_zeros.calls", "zeros.find_zeros.failed", "zeros.zeros_found",
    "zeros.scalar_evals_per_zero", "zeros.dd_evals_per_zero",
    "zeros.block_points_per_zero", "zeros.first_zero.calls",
    "radii.solve.calls", "radii.solve.failed", "radii.iterations_per_solve",
    "radii.scalar_evals_per_solve", "bounds.bounds_for.calls",
    "bounds.bounds_for.failed", "bessel.bessel_j.calls",
]

TINY = {"verify-default": 2, "radii-wide": 3, "zeros-deep": 2}


def _run_ops(workload: str, seed: int = 5) -> None:
    w = WORKLOADS[workload]
    done: dict = {}
    for label, fn in w.ops(w.generate(seed, TINY[workload], 0)):
        try:
            done[label] = fn(done)
        except (struveradii.NumericalError, Skipped):
            pass


def _rep(workload: str, points: int, *flags: str) -> dict:
    """One repetition in a fresh interpreter, as run.py starts it."""
    proc = subprocess.run(
        [sys.executable, "bench/rep.py", "--workload", workload, "--seed", "5",
         "--points", str(points), "--started", "0", *flags],
        cwd=ROOT, env=_child_env(ROOT), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_wrapped_counts_equal_cprofile_ncalls(workload):
    originals = tracer.originals()
    cached = {name: fn for name, fn in originals.items() if hasattr(fn, "cache_info")}
    before = {name: fn.cache_info() for name, fn in cached.items()}
    trace = tracer.Tracer()
    profile = cProfile.Profile()
    trace.install()
    try:
        profile.enable()
        _run_ops(workload)
        profile.disable()
    finally:
        trace.uninstall()
    stats = pstats.Stats(profile).stats
    counts = trace.counts()
    recorded = {name: sum(n for key, n in counts.items()
                          if key == name or key.startswith(name + "."))
                for name in originals}
    assert recorded["series.eval_scaled"] > 0
    for name, fn in originals.items():
        code = getattr(fn, "__wrapped__", fn).__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        ncalls = stats[key][1] if key in stats else 0
        if name in cached:
            # cProfile sees only the misses of an lru_cache; every call,
            # hit or miss, goes through the wrapper.
            info = fn.cache_info()
            assert ncalls == info.misses - before[name].misses, name
            assert recorded[name] == (info.hits + info.misses
                                      - before[name].hits - before[name].misses), name
        else:
            assert recorded[name] == ncalls, name


def test_uninstall_restores_every_original():
    originals = tracer.originals()
    trace = tracer.Tracer()
    trace.install()
    wrapped = set(tracer.wrapped_names())
    assert {"struveradii.series.LogSeries.eval_scaled",
            "struveradii.series.LogSeries.eval_block",
            "struveradii.zeros.compensated_carrier_value", "struveradii.radii.first_zero",
            "struveradii.zeros.find_zeros", "struveradii.verify.find_zeros",
            "struveradii.verify.bounds_for", "struveradii.verify.radius_starlike",
            "struveradii.verify.radius_convex", "struveradii.run_suite"} <= wrapped
    trace.uninstall()
    assert tracer.wrapped_names() == []
    assert tracer.originals() == originals


@pytest.mark.parametrize("workload", ["radii-wide", "zeros-deep"])
def test_seed_orders_a_fixed_design(workload):
    generate = WORKLOADS[workload].generate
    main = generate(1, 10, 0)
    assert main != generate(2, 10, 0)
    assert sorted(map(repr, main)) == sorted(map(repr, generate(2, 10, 0)))
    assert not set(main) & set(generate(1, 10, 1))  # the held-out design


def test_untraced_repetition_sees_originals():
    out = _rep("zeros-deep", 1)
    assert out["wrapped"] == [] and out["wrapped_after"] == []


def test_traced_counts_repeat_exactly():
    runs = [_rep("radii-wide", 3, "--trace", "1") for _ in range(2)]
    a, b = ({k: run["layers"][k] for k in COUNT_METRICS} for run in runs)
    assert a == b
    assert a["radii.solve.calls"] == 15 and a["bounds.bounds_for.calls"] == 15
    assert runs[0]["counts"] == runs[1]["counts"]
    assert runs[0]["digest"] == runs[1]["digest"]


def test_failures_repeat_exactly():
    runs = [_rep("zeros-deep", 3, "--check", "1") for _ in range(2)]
    assert len(runs[0]["status"]) == 6
    assert runs[0]["status"] == runs[1]["status"]
