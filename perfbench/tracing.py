"""Spans around the calls into each sobolev1d module, installed from outside.

``install(tracer)`` replaces module attributes and class methods of the
package with wrappers that record a span per call: name, start, end,
parent span and op id, kept in flat arrays and written once at the end.
Nothing under ``src/`` is edited. A span's self time is its duration minus
the time its child spans cover (children of one span never overlap: the
package is single-threaded).

Spans are recorded only while an op is open, so set-up and the gates do
not show up in the per-op figures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from sobolev1d import cli, fcurve, fundamental, green, minimizer, oracle, quadrature

OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.points: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self.op_id = -1

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, fn, name: str, points=None):
        """Span ``name`` around each call of ``fn``.

        ``points(args)`` gives the number of evaluation points of a call; it
        is counted only when the caller is not itself a ``name`` span, so
        one method calling another of the same layer is counted once.
        """
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            if points is not None:
                parent = self._stack[-1]
                if parent < 0 or self.name[parent] != nid:
                    self.points[name] += points(args)
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """The root span of one op; yields nothing, times the block."""
        self.op_id = op_id
        idx = self._open(self._intern(OP))
        t0 = perf_counter()
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.start[idx] = t0
            self._stack.pop()
            self.op_id = -1

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies: a live view would stop the arrays from growing.
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, points."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.zeros(dur.size)
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        self_time = dur - covered
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "points": self.points.get(name, 0),
            }
        return out

    def child_calls(self, name: str, parent_name: str) -> int:
        """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
        if name not in self._ids or parent_name not in self._ids:
            return 0
        a = self.arrays()
        mask = a["name"] == self._ids[name]
        parents = a["parent"][mask]
        parents = parents[parents >= 0]
        return int(np.sum(a["name"][parents] == self._ids[parent_name]))


# Span name -> the (module, attribute) places the package looks the callable
# up. One wrapper per original function, assigned to every place.
FUNCTIONS = {
    "fundamental.solve_log_solution": [
        (fundamental, "solve_log_solution"),
        (minimizer, "solve_log_solution"),
        (cli, "solve_log_solution"),
    ],
    "fundamental.checks": [
        (fundamental, "check_riccati_residual"),
        (cli, "check_riccati_residual"),
        (fundamental, "check_envelope_bounds"),
        (cli, "check_envelope_bounds"),
    ],
    "fundamental.extremal_function": [
        (fundamental, "extremal_function"),
        (minimizer, "extremal_function"),
    ],
    "fcurve.build_fcurve": [(fcurve, "build_fcurve"), (minimizer, "build_fcurve"), (cli, "build_fcurve")],
    "fcurve.find_critical_points": [
        (fcurve, "find_critical_points"),
        (minimizer, "find_critical_points"),
        (cli, "find_critical_points"),
    ],
    "fcurve.check_minimality_equivalence": [
        (fcurve, "check_minimality_equivalence"),
        (cli, "check_minimality_equivalence"),
    ],
    "minimizer.minimize": [(minimizer, "minimize"), (cli, "minimize")],
    "minimizer.extremal": [(minimizer, "extremal")],
    "minimizer.rayleigh_quotient": [(minimizer, "rayleigh_quotient")],
    "green.build_green": [(green, "build_green"), (cli, "build_green")],
    "green.residual_check": [(green, "residual_check"), (cli, "residual_check")],
    "oracle.discrete_minimize": [(oracle, "discrete_minimize"), (cli, "discrete_minimize")],
    "cli.main": [(cli, "main")],
}


def _size(x) -> int:
    return int(np.size(x))


# Span name -> (class, methods, points-of-call).
METHODS = {
    "fundamental.dense": (
        fundamental.LogSolution,
        ("ell_at", "ell_prime_at", "ell_second_at", "phi_at"),
        lambda args: _size(args[1]),
    ),
    "fundamental.extremal_eval": (
        fundamental.ExtremalFunction,
        ("log_value", "__call__", "derivative"),
        None,
    ),
    "fcurve.slope_at": (fcurve.FCurve, ("slope_at",), None),
    "fcurve.curve_eval": (
        fcurve.FCurve,
        ("value_at", "curvature_at", "log_phi_sum", "product_criterion", "wronskian_drift"),
        None,
    ),
    "green.value": (
        green.GreenEvaluator,
        ("value", "__call__"),
        lambda args: int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size),
    ),
}

QUADRATURE = "quadrature.composite_gauss_legendre"
EVALUATE = "potential.evaluate"


def install(tracer: Tracer):
    """Patch the package; returns the hook that wraps a ``Potential.evaluate``."""
    wrapped: dict[int, object] = {}
    for name, places in FUNCTIONS.items():
        for module, attr in places:
            original = getattr(module, attr)
            if id(original) not in wrapped:
                wrapped[id(original)] = tracer.wrap(original, name)
            setattr(module, attr, wrapped[id(original)])
    for name, (cls, methods, points) in METHODS.items():
        for attr in methods:
            setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, points))

    def counted_quadrature(fun, *args, **kwargs):
        def counted(x):
            if tracer.op_id >= 0:
                tracer.points[QUADRATURE] += _size(x)
            return fun(x)

        return original_quadrature(counted, *args, **kwargs)

    original_quadrature = quadrature.composite_gauss_legendre
    traced_quadrature = tracer.wrap(counted_quadrature, QUADRATURE)
    for module in (quadrature, minimizer, green):
        module.composite_gauss_legendre = traced_quadrature

    def hook(evaluate):
        return tracer.wrap(evaluate, EVALUATE, lambda args: _size(args[0]))

    original_from_spec = cli.potential_from_spec

    def traced_from_spec(spec):
        pot = original_from_spec(spec)
        return dataclasses.replace(pot, evaluate=hook(pot.evaluate))

    cli.potential_from_spec = traced_from_spec
    return hook


# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("potential.evaluate.calls_per_op", "count"),
    ("potential.evaluate.points_per_op", "count"),
    ("potential.evaluate.self_ms_per_op", "ms"),
    ("fundamental.solve_log_solution.calls_per_op", "count"),
    ("fundamental.solve_log_solution.self_ms_per_op", "ms"),
    ("fundamental.dense.calls_per_op", "count"),
    ("fundamental.dense.points_per_op", "count"),
    ("fundamental.dense.self_ms_per_op", "ms"),
    ("fundamental.checks.self_ms_per_op", "ms"),
    ("fcurve.build_fcurve.self_ms_per_op", "ms"),
    ("fcurve.find_critical_points.self_ms_per_op", "ms"),
    ("fcurve.slope_at.calls_per_op", "count"),
    ("fcurve.check_minimality_equivalence.self_ms_per_op", "ms"),
    ("minimizer.minimize.self_ms_per_op", "ms"),
    ("minimizer.rayleigh_quotient.self_ms_per_op", "ms"),
    ("green.value.points_per_op", "count"),
    ("green.residual_check.self_ms_per_op", "ms"),
    ("quadrature.composite_gauss_legendre.points_per_op", "count"),
    ("quadrature.composite_gauss_legendre.self_ms_per_op", "ms"),
    ("oracle.discrete_minimize.self_ms_per_op", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main.ms_per_op", "ms"),
    ("minimizer.m_abs_err.max", "1"),
    ("minimizer.a_star_abs_err.max", "1"),
    ("fcurve.wronskian_drift.max", "1"),
    ("oracle.gap.max", "1"),
    ("trace.overhead_pct", "%"),
]


def span_metrics(tracer: Tracer, n_ops: int, time_factor: float) -> dict[str, float]:
    """The ``<span>.<quantity>_per_op`` metrics of PER_LAYER, from the spans.

    Times are multiplied by ``time_factor`` (see calibrate.py). A layer the
    workload never enters reports 0.
    """
    summary = tracer.summary()
    out = {}
    for metric, _ in PER_LAYER:
        span, _, quantity = metric.rpartition(".")
        if not quantity.endswith("_per_op"):
            continue
        row = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "points": 0})
        if quantity == "calls_per_op":
            calls = row["calls"]
            if span == "fcurve.slope_at":
                # Root-polish evaluations only: calls made by the scan.
                calls = tracer.child_calls(span, "fcurve.find_critical_points")
            value = calls / n_ops
        elif quantity == "points_per_op":
            value = row["points"] / n_ops
        elif quantity == "self_ms_per_op":
            value = 1e3 * time_factor * row["self_s"] / n_ops
        else:  # ms_per_op: inclusive time
            value = 1e3 * time_factor * row["total_s"] / n_ops
        out[metric] = value
    return out
