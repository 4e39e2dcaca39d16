"""Spans around the package's public functions, for the traced run.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper
wherever it is looked up: on its class for a method, and in every loaded
``struveradii`` module whose attribute is that very function object (the
defining module, the package root and the modules that import it). One
wrapper stands for one original function, whichever namespace it sits in.
``uninstall`` puts the originals back.

Each call through a wrapper records a span (name, parent span, start,
end) plus one integer quantity taken from the call (terms summed, points
evaluated, zeros returned, solver iterations) and whether it raised. The
spans stay in memory; ``save`` writes them out and ``layer_metrics``
turns them into the per-layer numbers.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Any, Callable

import numpy as np

PKG = "struveradii"

# (span name, where the function is defined, attribute). The place is a
# module name, or "module:Class" for a method.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("series.eval_scaled", "struveradii.series:LogSeries", "eval_scaled"),
    ("series.eval_block", "struveradii.series:LogSeries", "eval_block"),
    ("struve.compensated_carrier_value", "struveradii.struve", "compensated_carrier_value"),
    ("zeros.find_zeros", "struveradii.zeros", "find_zeros"),
    ("zeros.first_zero", "struveradii.zeros", "first_zero"),
    ("radii.radius_starlike", "struveradii.radii", "radius_starlike"),
    ("radii.radius_convex", "struveradii.radii", "radius_convex"),
    ("bounds.bounds_for", "struveradii.bounds", "bounds_for"),
    ("bessel.bessel_j", "struveradii.bessel", "bessel_j"),
    ("bessel.bessel_j_zeros", "struveradii.bessel", "bessel_j_zeros"),
    ("verify.run_suite", "struveradii.verify", "run_suite"),
)

SUITE_NAMES = ("interlacing", "sandwich", "bessel", "monotone", "all")

# The integer recorded with each span, from (args, result).
_QUANTITY: dict[str, Callable[[tuple, Any], int]] = {
    "series.eval_scaled": lambda args, r: r.terms,
    "series.eval_block": lambda args, r: int(np.size(args[1])),
    "zeros.find_zeros": lambda args, r: len(r.zeros),
    "radii.radius_starlike": lambda args, r: r.iterations,
    "radii.radius_convex": lambda args, r: r.iterations,
}


def _owner(place: str) -> Any:
    module, _, cls = place.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def _namespaces() -> dict[str, Any]:
    """Every loaded package module, and every class a target is defined on,
    by dotted name."""
    spaces = {name: mod for name, mod in list(sys.modules.items())
              if mod is not None and (name == PKG or name.startswith(PKG + "."))}
    for _, place, _ in TARGETS:
        if ":" in place:
            spaces[place.replace(":", ".")] = _owner(place)
    return spaces


def wrapped_names() -> list[str]:
    """Every ``namespace.attribute`` that currently holds a tracer wrapper."""
    return sorted(f"{ns}.{attr}" for ns, owner in _namespaces().items()
                  for attr, value in list(vars(owner).items())
                  if hasattr(value, "__bench_span__"))


def originals() -> dict[str, Any]:
    """Span name -> the function object the wrapper stands for."""
    return {name: getattr(_owner(place), attr) for name, place, attr in TARGETS}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.qty = array("q")
        self.failed = array("b")
        self._stack = [-1]
        self._restore: list[tuple[Any, str, Any]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn: Any, name: str) -> Callable:
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        qty, failed, stack = self.qty, self.failed, self._stack
        measure = _QUANTITY.get(name)
        static_id = self._id(name)
        suite_ids = ({s: self._id(f"{name}.{s}") for s in SUITE_NAMES}
                     if name == "verify.run_suite" else None)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            if suite_ids is None:
                name_id.append(static_id)
            else:
                name_id.append(suite_ids[args[0] if args else kwargs["suite"]])
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            qty.append(0)
            failed.append(0)
            stack.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[i] = 1
                raise
            finally:
                end[i] = perf()
                start[i] = t0
                stack.pop()
            if measure is not None:
                qty[i] = measure(args, result)
            return result

        wrapper.__bench_span__ = name
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        spaces = list(_namespaces().values())
        for name, original in originals().items():
            wrapper = self._wrap(original, name)
            for owner in spaces:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._restore.append((owner, attr, value))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "qty": np.frombuffer(self.qty, dtype=np.int64).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).astype(bool),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())

    def counts(self) -> dict[str, int]:
        """Calls per span name, as recorded."""
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        per = np.bincount(ids, minlength=len(self.names))
        return {n: int(per[i]) for i, n in enumerate(self.names)}


def _nearest(parent: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """For every span, the index of its nearest proper ancestor with
    ``marked`` set, or -1. Parents precede children, so each sweep settles
    one more level of nesting."""
    has_parent = parent >= 0
    safe = np.where(has_parent, parent, 0)
    near = np.where(has_parent & marked[safe], parent, -1)
    while True:
        inherit = has_parent & ~marked[safe]
        updated = np.where(inherit, near[safe], near)
        if np.array_equal(updated, near):
            return near
        near = updated


def layer_metrics(spans: dict[str, np.ndarray], carrier_misses: int) -> dict[str, float]:
    """Per-layer counts and times (see README.md for each definition)."""
    names = list(spans["names"])
    name_id, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    qty, failed = spans["qty"], spans["failed"]
    n = len(dur)
    child = parent >= 0
    child_time = np.bincount(parent[child], weights=dur[child], minlength=n)
    child_count = np.bincount(parent[child], minlength=n)
    self_time = dur - child_time

    def is_(*span_names: str) -> np.ndarray:
        ids = [names.index(s) for s in span_names if s in names]
        return np.isin(name_id, ids)

    def ratio(num: float, den: float) -> float:
        return float(num) / float(den) if den else 0.0

    scalar, block, dd = is_("series.eval_scaled"), is_("series.eval_block"), \
        is_("struve.compensated_carrier_value")
    find, first = is_("zeros.find_zeros"), is_("zeros.first_zero")
    solve = is_("radii.radius_starlike", "radii.radius_convex")
    bounds = is_("bounds.bounds_for")
    bj, bjz = is_("bessel.bessel_j"), is_("bessel.bessel_j_zeros")

    in_find = _nearest(parent, find) >= 0
    # eval_scaled calls whose nearest radius-or-zeros ancestor is a solve.
    zeros_or_solve = find | first | solve
    nearest = _nearest(parent, zeros_or_solve)
    under_solve = (nearest >= 0) & solve[np.where(nearest >= 0, nearest, 0)]
    # A find_zeros call with no child span was answered from its cache.
    found = find & ~failed & (child_count > 0)
    zeros_found = int(qty[found].sum())

    m = {
        "series.eval_scaled.calls": int(scalar.sum()),
        "series.eval_scaled.terms_per_call": ratio(qty[scalar].sum(), scalar.sum()),
        "series.eval_scaled.self_s": float(self_time[scalar].sum()),
        "series.eval_block.calls": int(block.sum()),
        "series.eval_block.points": int(qty[block].sum()),
        "series.eval_block.self_s": float(self_time[block].sum()),
        "struve.compensated_carrier_value.calls": int(dd.sum()),
        "struve.compensated_carrier_value.self_s": float(self_time[dd].sum()),
        "struve.carrier.misses": int(carrier_misses),
        "zeros.find_zeros.calls": int(find.sum()),
        "zeros.find_zeros.self_s": float(self_time[find].sum()),
        "zeros.find_zeros.failed": int((find & failed).sum()),
        "zeros.zeros_found": zeros_found,
        "zeros.scalar_evals_per_zero": ratio((scalar & in_find).sum(), zeros_found),
        "zeros.dd_evals_per_zero": ratio((dd & in_find).sum(), zeros_found),
        "zeros.block_points_per_zero": ratio(qty[block & in_find].sum(), zeros_found),
        "zeros.first_zero.calls": int(first.sum()),
        "zeros.first_zero.s": float(dur[first].sum()),
        "radii.solve.calls": int(solve.sum()),
        "radii.solve.self_s": float(self_time[solve].sum()),
        "radii.solve.failed": int((solve & failed).sum()),
        "radii.iterations_per_solve": ratio(qty[solve & ~failed].sum(),
                                            (solve & ~failed).sum()),
        "radii.scalar_evals_per_solve": ratio((scalar & under_solve).sum(), solve.sum()),
        "bounds.bounds_for.calls": int(bounds.sum()),
        "bounds.bounds_for.s": float(dur[bounds].sum()),
        "bounds.bounds_for.failed": int((bounds & failed).sum()),
        "bessel.bessel_j.calls": int(bj.sum()),
        "bessel.bessel_j.self_s": float(self_time[bj].sum()),
        "bessel.bessel_j_zeros.s": float(dur[bjz].sum()),
    }
    for suite in ("interlacing", "sandwich", "bessel", "monotone"):
        m[f"verify.run_suite.{suite}.s"] = float(dur[is_(f"verify.run_suite.{suite}")].sum())
    return m
