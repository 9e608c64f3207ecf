"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          # about three minutes on two cores

Checks that one seed gives byte-identical op lists, that every generated
potential honours its declared bounds, that the gates reject answers moved
by 1e-3, that two traced runs report identical counts, and that the metric
names match BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import ops  # noqa: E402
import specs  # noqa: E402
import tracing  # noqa: E402
from sobolev1d import minimizer, potential_from_spec  # noqa: E402

SEEDS = range(8)
# Deterministic per-layer metrics: counts and accuracy guards.
DETERMINISTIC = ("calls_per_op", "points_per_op", ".max")


def all_ops():
    for workload in specs.WORKLOADS:
        yield specs.warmup_op(workload)
        for seed in SEEDS:
            yield from specs.op_list(workload, seed)


def run_benchmark(workload: str, trace: int, seed: int = 3) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


class Specs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in specs.WORKLOADS:
            a = json.dumps(specs.op_list(workload, 7), sort_keys=True)
            b = json.dumps(specs.op_list(workload, 7), sort_keys=True)
            c = json.dumps(specs.op_list(workload, 8), sort_keys=True)
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)

    def test_every_potential_admissible(self):
        for op in all_ops():
            pot = potential_from_spec(op["spec"])
            v0, v1 = pot.lower_bound, pot.upper_bound
            half = minimizer.DEFAULT_WINDOW_FACTOR / math.sqrt(v0)
            xs = np.linspace(-half, half, 20001)
            xs = np.union1d(xs, op["spec"].get("x", []))
            v = np.asarray(pot.evaluate(xs))
            self.assertGreater(v0, 0.0, op["id"])
            self.assertTrue(np.all(np.isfinite(v)), op["id"])
            self.assertGreaterEqual(v.min(), v0, op["id"])
            self.assertLessEqual(v.max(), v1, op["id"])

    def test_fixed_composition(self):
        for workload in specs.WORKLOADS:
            families = {
                json.dumps(sorted(op["family"] for op in specs.op_list(workload, s)))
                for s in SEEDS
            }
            self.assertEqual(len(families), 1, workload)


class Gates(unittest.TestCase):
    """An answer moved by 1e-3 fails the gate wherever the gate is tighter.

    The monotone-step gate (|m - 2 sqrt(v0)| <= 1e-3) and the two-sided
    bound used for piecewise and tabulated potentials are looser than that,
    as in tests/test_acceptance.py, so they are not part of this check.
    """

    def test_solve(self):
        op_list = [
            op for op in specs.op_list("solve", 5) if op["family"] in ("constant", "example")
        ]
        w = ops.Solve(op_list)
        for i, op in enumerate(op_list):
            report, u = w.run(i)
            self.assertTrue(w.check(i, (report, u))[0], op["id"])
            moved = dataclasses.replace(report, m_value=report.m_value + 1e-3)
            self.assertFalse(w.check(i, (moved, u))[0], op["id"])
            moved = dataclasses.replace(report, attainment="undetermined")
            self.assertFalse(w.check(i, (moved, u))[0], op["id"])
            if op["family"] == "example":
                moved = dataclasses.replace(report, a_star=report.a_star + 1e-3)
                self.assertFalse(w.check(i, (moved, u))[0], op["id"])

    def test_query(self):
        op_list = [op for op in specs.op_list("query", 5) if op["family"] == "example"]
        w = ops.Query(op_list)
        for i, op in enumerate(op_list):
            out = w.run(i)
            self.assertTrue(w.check(i, out)[0], op["id"])
            if op["read"] == "scan":
                rows, wronskian = out
                rows = rows.copy()
                rows[len(rows) // 2, 0] += 1e-3
                moved = (rows, wronskian)
            elif op["read"] == "green":
                values, res = out
                values = values.copy()
                values[1, 2] *= 1.0 + 1e-3
                moved = (values, res)
            elif op["read"] == "rayleigh":
                moved = out + 1e-3
            else:
                env, eq = out
                moved = (dataclasses.replace(env, passed=False), eq)
            self.assertFalse(w.check(i, moved)[0], op["id"])

    def test_cli_verify(self):
        w = ops.CliVerify(specs.op_list("cli_verify", 5))
        text = "PASS oracle-agreement: |m_mesh - m| = 1.000e-03 (tolerance 0.01)\n"
        self.assertTrue(w.check(0, (0, text))[0])
        self.assertFalse(w.check(0, (0, text.replace("PASS", "FAIL")))[0])
        self.assertFalse(w.check(0, (4, text))[0])


class Runs(unittest.TestCase):
    def test_traced_counts_repeat(self):
        for workload in specs.WORKLOADS:
            first = run_benchmark(workload, trace=1)["metrics"]
            second = run_benchmark(workload, trace=1)["metrics"]
            counts = [k for k in first if any(tag in k for tag in DETERMINISTIC)]
            self.assertGreater(len(counts), 10)
            for key in counts:
                self.assertEqual(first[key], second[key], f"{workload} {key}")

    def test_names_match_benchmark_json(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [m["name"] for m in declared["per_layer"]], [name for name, _ in tracing.PER_LAYER]
        )
        self.assertEqual([w["name"] for w in declared["workloads"]], list(specs.WORKLOADS))
        result = run_benchmark("solve", trace=0)
        self.assertTrue(result["correct"])
        for m in declared["end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        self.assertEqual(len(result["metrics"]), len(declared["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
