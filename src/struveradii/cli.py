"""Command-line interface.

Subcommands: eval, zeros, radius, bounds, verify. Every run writes a
single record to stdout in the chosen format (text, json or csv) with
the shape

    {schema_version, command, params, results, diagnostics}

All result numbers are serialized as the shortest decimal strings that
round-trip to the same double, so identical invocations are
byte-identical and emitted values can be fed back in unchanged.

Exit codes: 0 success, 2 usage error, 3 numerical failure (including
failed verification checks).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Any

from .bounds import bounds_for, rayleigh_sums_newton, statement_form_bounds
from .errors import NumericalError
from .grid import default_grid, load_grid
from .radii import RadiusKind, RadiusQuery, radius_convex, radius_starlike
from .struve import NormalizationKind, StruveParams, eval_normalized, eval_w
from .verify import SUITES, run_suite
from .zeros import AuxiliaryFamily, find_zeros

SCHEMA_VERSION = "1"

_BOUND_FAMILY_FLAGS = {
    "f-starlike": AuxiliaryFamily.W_PRIME,
    "g-starlike": AuxiliaryFamily.G_PRIME_SUBST,
    "h-starlike": AuxiliaryFamily.H_PRIME_SUBST,
    "g-convex": AuxiliaryFamily.ALEX_G_SUBST,
    "h-convex": AuxiliaryFamily.ALEX_H,
}

_ZERO_FAMILY_FLAGS = {f.value: f for f in AuxiliaryFamily}


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=int, required=True, help="integer q >= 1")
    parser.add_argument("--p", type=float, required=True, help="real p with p+1 > 0")
    parser.add_argument("--b", type=float, required=True, help="real b > 0")
    parser.add_argument("--c", type=float, required=True, help="real c > 0")
    parser.add_argument("--delta", type=float, required=True, help="real delta > 0")


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format (default text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="struveradii",
        description=(
            "Evaluate a generalized Struve-type function family, locate its "
            "zeros, solve for radii of starlikeness and convexity, compute "
            "power-sum bounds and run verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate W, W', W'' or a normalization")
    _add_param_flags(p_eval)
    p_eval.add_argument("--z", type=float, required=True, help="abscissa > 0")
    p_eval.add_argument("--deriv", type=int, choices=(0, 1, 2), default=0)
    p_eval.add_argument("--norm", choices=("w", "f", "g", "h"), default="w",
                        help="evaluate W itself (default) or f, g, h")
    _add_format_flag(p_eval)

    p_zeros = sub.add_parser("zeros", help="ordered positive zeros of a family")
    _add_param_flags(p_zeros)
    p_zeros.add_argument("--family", choices=sorted(_ZERO_FAMILY_FLAGS),
                         default="w")
    p_zeros.add_argument("--count", type=int, default=5)
    _add_format_flag(p_zeros)

    p_radius = sub.add_parser("radius", help="radius of starlikeness or convexity")
    _add_param_flags(p_radius)
    p_radius.add_argument("--kind", choices=("starlike", "convex"), required=True)
    p_radius.add_argument("--norm", choices=("f", "g", "h"), required=True)
    p_radius.add_argument("--alpha", type=float, default=0.0)
    _add_format_flag(p_radius)

    p_bounds = sub.add_parser("bounds", help="power-sum bounds for an alpha=0 radius")
    _add_param_flags(p_bounds)
    p_bounds.add_argument("--family", choices=sorted(_BOUND_FAMILY_FLAGS),
                          required=True)
    p_bounds.add_argument("--k", type=int, default=1)
    _add_format_flag(p_bounds)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--grid", default="default",
                          help='"default" or a JSON file of {q,p,b,c,delta} objects')
    p_verify.add_argument("--count", type=int, default=5,
                          help="zeros per point for the interlacing suite")
    _add_format_flag(p_verify)

    return parser


def _params_from(args: argparse.Namespace) -> StruveParams:
    return StruveParams(q=args.q, p=args.p, b=args.b, c=args.c, delta=args.delta)


def _params_echo(params: StruveParams) -> dict[str, Any]:
    return {
        "q": params.q,
        "p": params.p,
        "b": params.b,
        "c": params.c,
        "delta": params.delta,
    }


def _num(x: float) -> str:
    return repr(float(x))


def _stringify(obj: Any) -> Any:
    if isinstance(obj, float):
        return _num(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    return obj


def _run_eval(args: argparse.Namespace) -> tuple[dict, int]:
    params = _params_from(args)
    if args.norm == "w":
        value = eval_w(params, args.z, args.deriv)
    else:
        if args.deriv != 0:
            raise ValueError("--deriv is only supported together with --norm w")
        value = eval_normalized(params, NormalizationKind(args.norm), args.z)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "eval",
        "params": {**_params_echo(params), "z": args.z, "deriv": args.deriv,
                   "norm": args.norm},
        "results": {"value": value},
        "diagnostics": {},
    }
    return record, 0


def _run_zeros(args: argparse.Namespace) -> tuple[dict, int]:
    params = _params_from(args)
    seq = find_zeros(params, _ZERO_FAMILY_FLAGS[args.family], args.count)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "zeros",
        "params": {**_params_echo(params), "family": args.family,
                   "count": args.count},
        "results": {"zeros": list(seq.zeros)},
        "diagnostics": {"residuals": list(seq.residuals)},
    }
    return record, 0


def _run_radius(args: argparse.Namespace) -> tuple[dict, int]:
    params = _params_from(args)
    query = RadiusQuery(
        params=params,
        kind=RadiusKind(args.kind),
        normalization=NormalizationKind(args.norm),
        alpha=args.alpha,
    )
    result = (radius_starlike if query.kind is RadiusKind.STARLIKE
              else radius_convex)(query)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "radius",
        "params": {**_params_echo(params), "kind": args.kind, "norm": args.norm,
                   "alpha": args.alpha},
        "results": {"value": result.value},
        "diagnostics": {
            "bracket": list(result.bracket),
            "residual": result.residual,
            "iterations": result.iterations,
            "upper_limit": result.upper_limit,
        },
    }
    return record, 0


def _run_bounds(args: argparse.Namespace) -> tuple[dict, int]:
    params = _params_from(args)
    family = _BOUND_FAMILY_FLAGS[args.family]
    pair = bounds_for(params, family, args.k)
    sums = rayleigh_sums_newton(params, family, args.k + 1)
    diagnostics: dict[str, Any] = {
        "power_sums": list(sums.sums),
        "radius_kind": pair.radius_kind.value,
    }
    if args.k == 1:
        variant = statement_form_bounds(params, family)
        if variant is not None:
            diagnostics["statement_form"] = {"lower": variant[0], "upper": variant[1]}
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "bounds",
        "params": {**_params_echo(params), "family": args.family, "k": args.k},
        "results": {"lower": pair.lower, "upper": pair.upper},
        "diagnostics": diagnostics,
    }
    return record, 0


def _run_verify(args: argparse.Namespace) -> tuple[dict, int]:
    if args.grid == "default":
        grid = default_grid()
    else:
        grid = load_grid(args.grid)
    report = run_suite(args.suite, grid, args.count)
    checks = [
        {
            "name": c.name,
            "status": "pass" if c.passed else "fail",
            "margin": c.margin,
            "detail": c.detail,
        }
        for c in report.ordered()
    ]
    worst = report.worst
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "params": {"suite": args.suite, "grid": args.grid,
                   "grid_points": len(grid)},
        "results": {
            "checks": checks,
            "passed": len(report.checks) - len(report.failed),
            "failed": len(report.failed),
        },
        "diagnostics": {
            "worst_check": worst.name if worst else "",
            "worst_margin": worst.margin if worst else 0.0,
        },
    }
    return record, (0 if report.ok else 3)


def _flatten(prefix: str, obj: Any, out: list[tuple[str, Any]]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}.{i}", v, out)
    else:
        out.append((prefix, obj))


def _emit(record: dict, fmt: str) -> None:
    record = _stringify(record)
    if fmt == "json":
        sys.stdout.write(json.dumps(record, indent=2) + "\n")
        return
    flat: list[tuple[str, Any]] = []
    _flatten("", record, flat)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([k for k, _ in flat])
        writer.writerow([v for _, v in flat])
        sys.stdout.write(buf.getvalue())
        return
    if record["command"] == "verify":
        for check in record["results"]["checks"]:
            status = check["status"].upper()
            line = f"[{status}] {check['name']} margin={check['margin']}"
            if check["detail"]:
                line += f" ({check['detail']})"
            sys.stdout.write(line + "\n")
        sys.stdout.write(
            f"passed={record['results']['passed']} "
            f"failed={record['results']['failed']}\n"
        )
        return
    for key, value in flat:
        sys.stdout.write(f"{key} = {value}\n")


_RUNNERS = {
    "eval": _run_eval,
    "zeros": _run_zeros,
    "radius": _run_radius,
    "bounds": _run_bounds,
    "verify": _run_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        record, code = _RUNNERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error in '{args.command}': {exc}", file=sys.stderr)
        return 3
    _emit(record, args.format)
    return code


def entrypoint() -> None:
    sys.exit(main())
