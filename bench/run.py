"""Benchmark of struveradii, driven from outside through public functions.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--held-out]

Run it from the repository root; it imports the package from ./src.
Every repetition runs in a fresh interpreter (bench/rep.py), so the
package's caches start cold, as for a command-line user. A first,
untimed repetition checks every output and measures peak memory; then
the run repeats the workload on its inputs until S seconds have been
measured (at least once), and every timed repetition must reproduce the
checked outputs exactly.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with --trace 0; with
--trace 1, the per-layer metrics of a traced repetition). The full
record, with the run environment and every failed operation, goes to
bench/out/. See bench/README.md for the workloads and metric
definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# name -> points per repetition. The points come from a fixed design,
# which the seed only orders: design 0, or design 1 with --held-out.
WORKLOADS = {"verify-default": 162, "radii-wide": 20, "zeros-deep": 50}
# name -> fewest timed untraced repetitions in a --trace 0 run. Two ~4.5 s
# operations make most of radii-wide's wall_s, and one ~20 ms operation
# its op_ms_p90; one slow repetition moves the mean of two, but not the
# median of three. Over twelve runs of three repetitions, wall_s spread by
# 8.2% with all three and by 13.1% with the first two. Its repetitions are
# the shortest (~10 s), so a third keeps its runs as short as the others'.
MIN_REPS = {"radii-wide": 3}

BUDGET_S = 165.0      # the whole run, so that it ends within 180 s
SETUP_SAMPLES = 11    # set-up is measured at least this often per run

# Environment of the checked repetition, the one that measures peak memory.
# With glibc's default, an array freed from its own mapping raises the
# threshold, later arrays of up to that size come from the heap, and how
# much of the heap stays resident depends on where small objects landed
# between them: on zeros-deep the peak moved between about 81 and 90 MB
# with the order of the points, and with a single unrelated import. A
# fixed threshold maps every array of 128 KiB or more on its own and
# unmaps it when freed, so the peak follows what the package holds at
# once. It also costs the package about 20% in page faults on zeros-deep,
# so no timed repetition runs with it.
FIXED_MMAP = {"MALLOC_MMAP_THRESHOLD_": "131072"}


class BenchError(RuntimeError):
    pass


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, points: int, design: int) -> None:
        self.root = root
        self.base = ["--workload", workload, "--seed", str(seed), "--points", str(points),
                     "--design", str(design)]
        self.env = _child_env(root)
        self.deadline = time.monotonic() + BUDGET_S
        self.elapsed: list[float] = []  # wall time of each full repetition

    def spawn(self, *flags: str, env: dict[str, str] | None = None) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget used up")
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "rep.py"), *self.base, *flags, "--started", repr(t0)]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env={**self.env, **(env or {})},
                                  stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repetition {flags} ran past the time budget") from exc
        if proc.returncode != 0:
            raise BenchError(f"repetition {flags} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"repetition {flags} printed nothing")
        if "--setup-only" not in flags:
            self.elapsed.append(time.monotonic() - t0)
        return json.loads(lines[-1])

    def room_for_another(self) -> bool:
        return time.monotonic() + 1.5 * max(self.elapsed) < self.deadline


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = root / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _quantile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _latencies(reps: list[dict]) -> list[float]:
    """Each operation's latency at the reference machine speed, in ms: the
    median over repetitions of its latency times the probe's speed factor."""
    first = reps[0]["latency_ms"]
    return [statistics.median(r["latency_ms"][label] * r["speed"][label] for r in reps)
            for label in first if all(label in r["latency_ms"] for r in reps)]


def _declared_units(root: Path, trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    root = Path.cwd()
    units = _declared_units(root, args.trace)
    points = WORKLOADS[args.workload]
    design = int(args.held_out)
    runner = Runner(root, args.workload, args.seed, points, design)
    load_before = os.getloadavg()
    # The checked repetition comes first and is not timed. It writes the
    # bytecode caches and fills the page cache, checks every output, and
    # alone gives peak memory (see FIXED_MMAP); every timed repetition
    # must reproduce its outputs.
    checked = runner.spawn("--check", "1", env=FIXED_MMAP)

    spans = OUT / f"spans-{_stem(args)}.npz"
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    min_reps = 1 if args.trace else MIN_REPS.get(args.workload, 1)
    while not untraced or ((len(untraced) < min_reps
                            or sum(r["wall_s"] for r in untraced + traced) < args.seconds)
                           and runner.room_for_another()):
        untraced.append(runner.spawn())
        if args.trace and not traced:
            traced.append(runner.spawn("--trace", "1", "--spans", str(spans)))
        elif args.trace and runner.room_for_another():
            traced.append(runner.spawn("--trace", "1"))
        # Set-up is timed between repetitions too, so that a burst of load
        # from other processes cannot cover all of its samples.
        setups += [runner.spawn("--setup-only") for _ in range(2)]
    setups += untraced + traced
    while len(setups) < SETUP_SAMPLES and time.monotonic() + 5.0 < runner.deadline:
        setups.append(runner.spawn("--setup-only"))

    status = checked["status"]
    attempted = len(status)
    failures = {label: s for label, s in status.items() if s != "ok"}
    problems = []
    if any(r["digest"] != checked["digest"] for r in untraced + traced):
        problems.append("a timed repetition's outputs differ from the checked ones")
    if any(s.startswith("error") for s in failures.values()):
        problems.append("an operation raised outside NumericalError")
    if any(r["wrapped"] or r["wrapped_after"] for r in [checked, *untraced]):
        problems.append("an untraced repetition ran wrapped functions")
    if any(not r["wrapped"] or r["wrapped_after"] for r in traced):
        problems.append("a traced repetition was not wrapped, or stayed wrapped")
    if any(r["counts"] != traced[0]["counts"] for r in traced):
        problems.append("traced call counts differ between repetitions")

    if args.trace:
        values = dict(traced[0]["layers"])
        for name in values:
            if units[name] == "s":
                values[name] = min(r["layers"][name] for r in traced)
        values["trace.overhead_frac"] = sum(_latencies(traced)) / sum(_latencies(untraced)) - 1.0
    else:
        latency = _latencies(untraced)
        values = {
            "setup_s": statistics.median(r["setup_s"] * r["setup_speed"] for r in setups),
            "wall_s": sum(latency) / 1e3,
            "op_ms_p50": _quantile(latency, 50),
            "op_ms_p90": _quantile(latency, 90),
            "ok_frac": (attempted - len(failures)) / attempted,
            "peak_rss_mb": checked["peak_rss_mb"],
        }
    if values.keys() != units.keys():
        raise BenchError(f"metrics {sorted(values.keys() ^ units.keys())} are not "
                         "both measured and declared in BENCHMARK.json")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    result = {"correct": not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed,
        "inputs": "held-out" if args.held_out else "main", "points": points,
        "seconds": args.seconds,
        "trace": args.trace, "python": checked["python"], "numpy": checked["numpy"],
        "nproc": os.cpu_count(), "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(), "git_commit": _git_commit(root),
        "repetitions": len(untraced), "traced_repetitions": len(traced),
        "cold_start_s": [r["setup_s"] for r in setups],
        "rep_wall_s": [r["wall_s"] for r in untraced],
        "traced_wall_s": [r["wall_s"] for r in traced],
        # Peak memory with glibc's default threshold, for comparison with
        # peak_rss_mb (see FIXED_MMAP).
        "timed_peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        # Each timed operation's latency at the reference speed, per repetition.
        "op_latency_ms": {label: [r["latency_ms"][label] * r["speed"][label] for r in untraced]
                          for label in untraced[0]["latency_ms"]
                          if all(label in r["latency_ms"] for r in untraced)},
        "fail_frac": len(failures) / attempted, "problems": problems,
        "failures": failures, "result": result,
    }
    return result, record


def _stem(args: argparse.Namespace) -> str:
    held_out = "-held-out" if args.held_out else ""
    return f"{args.workload}{held_out}-seed{args.seed}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="use the held-out design of the workload's points, to confirm a gain")
    args = ap.parse_args()
    if not (Path.cwd() / "src" / "struveradii").is_dir():
        print("run.py: no src/struveradii here; run it from the repository root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        result, record = run(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    path = OUT / f"{_stem(args)}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    env_keys = ("inputs", "python", "numpy", "nproc", "loadavg_before",
                "loadavg_after", "git_commit", "repetitions", "cold_start_s")
    print("environment:", json.dumps({k: record[k] for k in env_keys}))
    for label, why in sorted(record["failures"].items()):
        print(f"failed {label}: {why}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
