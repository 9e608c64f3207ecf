"""Alternating before/after runs of ``perfbench/run.py`` on two source trees.

Usage::

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload solve --seed 13 \
        [--pairs 10] [--seconds 24] [--trace 0] [--out runs.jsonl]

Each tree is a whole checkout (``src/`` and ``perfbench/``); each run is
``python3 perfbench/run.py`` from inside its tree, so it imports that tree's
package.  Both trees are first compiled with ``python -m compileall -q src``,
so no run pays for bytecode the other finds written.  Pair k runs the parent
first when k is odd and the change first when k is even.  For each metric of
the last run's output this prints the median and the inclusive quartiles of
each side, the pairs the change wins (ties count for neither), with
"better" read from the change tree's BENCHMARK.json (lower when not listed),
and whether a claimed gain on that metric would hold: "claim holds" when the
change wins at least 9 in 10 of the pairs and its median beats the parent's
by more than the parent's quartile spread, else "claim fails".  Each
end-to-end metric, one with a ``bound`` in BENCHMARK.json, also gets its
no-regression verdict (``verdict``): "worse", "unresolved" or "within bound".
``--out`` appends one JSON line per run: pair, side, workload, seed, metrics.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, args) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["failed_ops"] = result["failed"]
    return metrics


def declared_metrics(tree: Path) -> dict:
    """BENCHMARK.json's rows by metric name: end-to-end ones carry a ``bound``."""
    declared = json.loads((tree / "BENCHMARK.json").read_text())
    rows = declared.get("end_to_end", []) + declared.get("per_layer", [])
    return {row["name"]: row for row in rows}


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3], inclusive; one run is its own three quartiles."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(parent: list[float], change: list[float], bound: float, lower: bool) -> str:
    """The no-regression verdict on one end-to-end metric from the runs of each side.

    "worse" when the change's median is worse than the parent's by more
    than bound times the parent's median; else "unresolved" when the
    parent's quartile spread is wider than that, unless every change run
    beats every parent run; else "within bound".
    """
    sign = 1.0 if lower else -1.0
    q1, med, q3 = quartiles(parent)
    allowed = bound * abs(med)
    if sign * (quartiles(change)[1] - med) > allowed:
        return "worse"
    if q3 - q1 > allowed and max(sign * c for c in change) >= min(sign * p for p in parent):
        return "unresolved"
    return "within bound"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(1, args.pairs + 1):
        for side in ("parent", "change") if k % 2 else ("change", "parent"):
            metrics = run_once(trees[side], args)
            runs[side].append(metrics)
            if args.out is not None:
                row = {"pair": k, "side": side, "workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "metrics": metrics}
                with args.out.open("a", encoding="utf-8") as f:
                    f.write(json.dumps(row) + "\n")

    declared = declared_metrics(trees["change"])
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs")
    for name in runs["parent"][-1]:
        line = [f"  {name}:"]
        values = {side: [r[name] for r in runs[side]] for side in runs}
        for side in ("parent", "change"):
            q1, med, q3 = quartiles(values[side])
            line.append(f"{side} {med:.6g} [{q1:.6g}, {q3:.6g}]")
        row = declared.get(name, {})
        lower = row.get("better", "lower") == "lower"
        sign = 1.0 if lower else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        q1, med, q3 = quartiles(values["parent"])
        gap = sign * (med - quartiles(values["change"])[1])
        holds = 10 * wins >= 9 * args.pairs and gap > q3 - q1
        line.append(f"change wins {wins}/{args.pairs}; claim {'holds' if holds else 'fails'}")
        if "bound" in row:
            line[-1] += f"; {verdict(values['parent'], values['change'], row['bound'], lower)}"
        print(" ".join(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
