"""One repetition of a workload, in a fresh interpreter.

Started by run.py with ``src`` on PYTHONPATH; prints one JSON object on
its last line of output. Steps:

1. import struveradii and generate the inputs (set-up, measured from the
   moment run.py started this process), then time the speed probe;
2. unless --setup-only, run every operation in the timed region, with the
   tracer installed if --trace 1, the speed probe timed right before and
   after each operation and a burst of probes every PROBE_EVERY_S;
3. after the timed region, check the outputs if --check 1 (otherwise
   run.py compares their digest with a checked repetition's).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--points", type=int, required=True)
    ap.add_argument("--design", type=int, default=0)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() when run.py started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default="", help="where a traced repetition saves its spans")
    args = ap.parse_args()

    import numpy
    import struveradii
    from workloads import WORKLOADS, Skipped, summary

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(struveradii.__file__).startswith(src + os.sep):
        raise SystemExit(f"struveradii was imported from {struveradii.__file__}, not {src}")
    workload = WORKLOADS[args.workload]
    inputs = workload.generate(args.seed, args.points, args.design)
    setup_s = time.monotonic() - args.started

    import tracer
    from probe import PROBE_EVERY_S, REFERENCE_S, burst, probe, speed_factor
    setup_speed = REFERENCE_S / burst()
    out = {"setup_s": setup_s, "setup_speed": setup_speed, "python": sys.version.split()[0],
           "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    ops = workload.ops(inputs)
    trace = None
    if args.trace:
        trace = tracer.Tracer()
        trace.install()
    out["wrapped"] = tracer.wrapped_names()  # what the timed region calls
    done: dict = {}
    status: dict[str, str] = {}
    latency_ms: dict[str, float] = {}
    adjacent: dict[str, float] = {}  # mean of the probes right before and after
    bursts: list[float] = []
    burst_index: dict[str, int] = {}  # the last burst before each operation
    next_burst = 0.0
    perf = time.perf_counter
    t_start = perf()
    for label, fn in ops:
        if perf() >= next_burst:
            bursts.append(burst())
            next_burst = perf() + PROBE_EVERY_S
        burst_index[label] = len(bursts) - 1
        before = probe()
        t0 = perf()
        try:
            done[label] = fn(done)
            status[label] = "ok"
        except struveradii.NumericalError as exc:
            status[label] = f"raised {type(exc).__name__}"
        except Skipped:
            status[label] = "skipped: an operation it needs failed"
            continue
        except Exception as exc:  # a crash outside the package's error contract
            status[label] = f"error {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        latency_ms[label] = (perf() - t0) * 1e3
        adjacent[label] = (before + probe()) / 2.0
    bursts.append(burst())
    wall_s = perf() - t_start
    # Machine speed at each operation, as a factor onto REFERENCE_S; the
    # five bursts around an operation span about a second of the run.
    speed = {label: speed_factor(latency_ms[label] / 1e3, adjacent[label],
                                 statistics.median(bursts[max(0, j - 2):j + 3]))
             for label, j in burst_index.items() if label in latency_ms}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace is not None:
        trace.uninstall()
        misses = struveradii.struve.carrier.cache_info().misses
        out["layers"] = tracer.layer_metrics(trace.arrays(), misses)
        out["counts"] = trace.counts()
        if args.spans:
            trace.save(args.spans)
    # Exact outputs of every operation, compared across repetitions.
    digest = hashlib.sha256(json.dumps(
        [(label, summary(done[label])) for label in done]).encode()).hexdigest()
    if args.check:
        for label, problem in workload.check(done).items():
            status[label] = f"wrong: {problem}"
    out.update(wall_s=wall_s, peak_rss_mb=peak_rss_mb, latency_ms=latency_ms,
               speed=speed, status=status, digest=digest, checked=bool(args.check),
               wrapped_after=tracer.wrapped_names())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
