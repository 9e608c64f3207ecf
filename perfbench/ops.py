"""Run and check the ops of each workload.

A workload object is built once per process (input generation and, for
``query``, the side solves happen in its constructor). ``run(i)`` is the
timed op; ``check(i, out)`` is the untimed gate. ``check`` returns
``(ok, detail, guards)`` where ``guards`` holds the deterministic accuracy
figures the traced run reports.

Gate tolerances are the ones ``tests/test_acceptance.py`` states.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np

from sobolev1d import cli, fcurve, fundamental, green, minimizer, potential

# The Gaussian test functions of the Green weak identity, as in `verify`.
GREEN_TESTS = 3
LATTICE = 15
SCAN_PINS = 201


def build_potential(spec: dict, hook=None) -> potential.Potential:
    pot = potential.potential_from_spec(spec)
    if hook is None:
        return pot
    return dataclasses.replace(pot, evaluate=hook(pot.evaluate))


def _bounds_ok(pot: potential.Potential, m: float) -> bool:
    """The two-sided bound 2 v0/sqrt(v1) <= m <= 2 v1/sqrt(v0)."""
    v0, v1 = pot.lower_bound, pot.upper_bound
    return 2.0 * v0 / math.sqrt(v1) - 1e-8 <= m <= 2.0 * v1 / math.sqrt(v0) + 1e-8


class Solve:
    """In-process ``minimize`` plus ``extremal``."""

    def __init__(self, ops: list[dict], hook=None):
        self.ops = ops
        self.pots = [build_potential(op["spec"], hook) for op in ops]

    def run(self, i: int):
        report = minimizer.minimize(self.pots[i])
        return report, minimizer.extremal(report)

    def check(self, i: int, out) -> tuple[bool, str, dict]:
        report, u = out
        op, pot = self.ops[i], self.pots[i]
        exp = op["expect"]
        family = op["family"]
        m = report.m_value
        guards = {"wronskian_drift": report.curve.wronskian_drift()}
        if "m" in exp:
            guards["m_abs_err"] = abs(m - exp["m"])
        if family == "constant":
            ok = guards["m_abs_err"] <= 1e-8 * exp["m"]
        elif family == "example":
            guards["a_star_abs_err"] = (
                math.inf if report.a_star is None else abs(report.a_star - exp["a_star"])
            )
            ok = guards["m_abs_err"] <= 1e-6 and guards["a_star_abs_err"] <= 1e-6
        elif family == "step":
            ok = guards["m_abs_err"] <= 1e-3
        else:
            ok = _bounds_ok(pot, m)
        if "attainment" in exp:
            ok = ok and report.attainment == exp["attainment"]
        # The extremal exists exactly when a pin is reported, with u(a*) = 1.
        if report.a_star is None:
            ok = ok and u is None
        else:
            ok = ok and u is not None and abs(u(report.a_star) - 1.0) <= 1e-12
        detail = f"m={m:.15g} attainment={report.attainment} a*={report.a_star}"
        return ok, detail, guards


class Query:
    """Reads of pairs solved at set-up: scan, Green, Rayleigh, checks."""

    def __init__(self, ops: list[dict], hook=None):
        self.ops = ops
        self.pairs = {}
        for op in ops:
            k = op["pair"]
            if k not in self.pairs:
                pot = build_potential(op["spec"], hook)
                self.pairs[k] = (pot, minimizer.minimize(pot))

    def run(self, i: int):
        op = self.ops[i]
        pot, report = self.pairs[op["pair"]]
        return getattr(self, "_" + op["read"])(pot, report)

    @staticmethod
    def _scan(pot, report):
        """What ``sobolev1d scan --grid lo:hi:201`` tabulates."""
        curve, plus, minus = report.curve, report.phi_plus, report.phi_minus
        pins = np.linspace(*curve.window, SCAN_PINS)
        rows = [
            (
                curve.value_at(a),
                curve.slope_at(a),
                curve.curvature_at(a),
                plus.phi_at(a),
                minus.phi_at(a),
            )
            for a in pins
        ]
        return np.array(rows), curve.wronskian

    @staticmethod
    def _green(pot, report):
        g = green.build_green(report.phi_plus, report.phi_minus)
        lo, hi = report.curve.window
        lattice = np.linspace(0.5 * lo, 0.5 * hi, LATTICE)
        values = np.array([[g.value(x, y) for y in lattice] for x in lattice])
        inset = 0.25 * min(-report.window[0], report.window[1])
        width = 0.7 / math.sqrt(pot.lower_bound)
        tests = [green.gaussian_test(c, width) for c in (0.0, -inset, inset)]
        return values, green.residual_check(g, 0.25 * inset, tests)

    @staticmethod
    def _rayleigh(pot, report):
        u = minimizer.extremal(report)
        return minimizer.rayleigh_quotient(u, pot)

    @staticmethod
    def _checks(pot, report):
        env = fundamental.check_envelope_bounds(report.phi_plus, report.phi_minus)
        eq = fcurve.check_minimality_equivalence(report.curve) if pot.continuous else None
        return env, eq

    def check(self, i: int, out) -> tuple[bool, str, dict]:
        op = self.ops[i]
        pot, report = self.pairs[op["pair"]]
        guards = {}
        if "m" in op["expect"]:
            guards["m_abs_err"] = abs(report.m_value - op["expect"]["m"])
        if "a_star" in op["expect"] and report.a_star is not None:
            guards["a_star_abs_err"] = abs(report.a_star - op["expect"]["a_star"])
        read = op["read"]
        if read == "scan":
            rows, w = out
            f = rows[:, 0]
            drift = float(np.max(np.abs(f * rows[:, 3] * rows[:, 4] / w - 1.0)))
            guards["wronskian_drift"] = drift
            ok = bool(np.all(f > 0.0)) and drift <= 1e-8
            detail = f"F*phi+*phi-/W drift {drift:.3e}"
        elif read == "green":
            values, res = out
            sym = float(np.max(np.abs(values - values.T) / values))
            worst = max(res.residuals)
            ok = sym <= 1e-9 and worst <= 1e-6 and len(res.residuals) == GREEN_TESTS
            detail = f"symmetry {sym:.3e}, weak residual {worst:.3e}"
        elif read == "rayleigh":
            gap = abs(out - report.m_value)
            ok = gap <= 1e-8
            detail = f"|R(u) - m| = {gap:.3e}"
        else:
            env, eq = out
            ok = env.passed
            detail = f"envelopes passed={env.passed}" + (
                "" if eq is None else f", equivalence disagreements={eq.n_disagree}"
            )
        return ok, detail, guards


_DRIFT = re.compile(r"wronskian-constancy: relative drift (\S+)")
_GAP = re.compile(r"oracle-agreement: \|m_mesh - m\| = (\S+)")


def _verify_guards(text: str) -> dict:
    guards = {}
    for key, pattern in (("wronskian_drift", _DRIFT), ("oracle_gap", _GAP)):
        found = pattern.search(text)
        if found:
            guards[key] = float(found.group(1))
    return guards


class CliVerify:
    """One ``sobolev1d verify`` process per op.

    ``in_process=True`` (the traced run) calls ``cli.main`` in this process
    instead, so the tracer sees every layer the command goes through.
    """

    def __init__(self, ops: list[dict], hook=None, in_process: bool = False):
        self.ops = ops
        self.in_process = in_process
        # Validate the specs up front: a malformed spec is a benchmark bug.
        for op in ops:
            potential.potential_from_spec(op["spec"])
        self.argv = [
            ["verify", "--potential", json.dumps(op["spec"], sort_keys=True)] for op in ops
        ]
        self.peak_rss_kb = 0

    def run(self, i: int):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.argv[i])
            return code, buf.getvalue()
        proc = subprocess.Popen(
            [sys.executable, "-m", "sobolev1d.cli", *self.argv[i]],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            text = proc.stdout.read()
            # wait4 reports this child's own peak RSS; RUSAGE_CHILDREN would
            # give the maximum over every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, text

    def check(self, i: int, out) -> tuple[bool, str, dict]:
        code, text = out
        fails = [line for line in text.splitlines() if line.startswith("FAIL")]
        ok = code == 0 and not fails
        return ok, f"exit {code}" + "".join(f"; {line}" for line in fails), _verify_guards(text)


WORKLOAD_CLASSES = {"solve": Solve, "query": Query, "cli_verify": CliVerify}
