"""One benchmark process: set up a workload, then measure or trace it.

    python3 perfbench/worker.py --workload solve --seed 1 --mode measure

``run.py`` starts it with ``src`` on PYTHONPATH and BLAS pinned to one
thread. It writes JSON lines to stdout: ``{"type": "ready"}`` once set-up
and the warm-up op are done (run.py times set-up up to that line), then one
``{"type": "result", ...}`` line.

``measure`` runs one whole pass over the seeded op list and reports every
op latency. ``trace`` runs one untraced pass, installs the
tracer, runs one traced pass and reports the per-layer metrics; the spans
go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import specs

ROOT = Path(__file__).resolve().parents[1]
TRACE_DIR = ROOT / ".perfbench_out"
IMPORT_STARTS = 3
# Reference runs at each end of set-up; the first of all is discarded
# because its first run in a process is slower.
SETUP_REFERENCES = 2


def emit(msg: dict) -> None:
    sys.stdout.write(json.dumps(msg) + "\n")
    sys.stdout.flush()


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def process_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def make_workload(name: str, op_list: list[dict], hook=None, in_process: bool = False):
    import ops

    if name == "cli_verify":
        return ops.CliVerify(op_list, in_process=in_process)
    return ops.WORKLOAD_CLASSES[name](op_list, hook)


def run_op(workload, i: int, span=None) -> tuple[float, bool, dict]:
    """Time op i, then gate it (untimed). Returns (seconds, passed, guards).

    ``span`` is the tracer's op span factory, if tracing.
    """
    # Start every op from the same heap state; otherwise a cyclic collection
    # over the previous op's solution objects lands in a random op.
    gc.collect()
    t0 = perf_counter()
    try:
        if span is None:
            out = workload.run(i)
        else:
            with span(i):
                out = workload.run(i)
    except Exception as exc:  # a raising op is a failed op, not a crash
        log(f"FAIL {workload.ops[i]['id']}: {type(exc).__name__}: {exc}")
        return perf_counter() - t0, False, {}
    elapsed = perf_counter() - t0
    ok, detail, guards = workload.check(i, out)
    if not ok:
        log(f"FAIL {workload.ops[i]['id']}: {detail}")
    return elapsed, ok, guards


def run_pass(workload, span=None) -> list[tuple[float, float, bool, dict]]:
    """One pass over the op list: (seconds, scale, passed, guards) per op.

    The reference computation runs between consecutive ops, so each op is
    bracketed by two; ``scale`` takes its time to the nominal speed.
    """
    before = calibrate.reference()
    out = []
    for i in range(len(workload.ops)):
        elapsed, ok, guards = run_op(workload, i, span)
        after = calibrate.reference()
        out.append((elapsed, calibrate.factor([before, after]), ok, guards))
        before = after
    return out


def scaled_seconds(runs) -> float:
    return sum(r[0] * r[1] for r in runs)


def measure(args, op_list: list[dict], setup_refs: list[float]) -> None:
    workload = make_workload(args.workload, op_list)
    warm = make_workload(args.workload, [specs.warmup_op(args.workload)])
    run_op(warm, 0)
    setup_refs += [calibrate.reference() for _ in range(SETUP_REFERENCES)]
    # run.py subtracts the reference runs from its set-up time.
    emit(
        {
            "type": "ready",
            "reference_s": sum(setup_refs),
            "scale": calibrate.factor(setup_refs[1:]),
        }
    )
    runs = run_pass(workload)
    if args.workload == "cli_verify":
        peak_kb = workload.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit(
        {
            "type": "result",
            "latencies_s": [r[0] for r in runs],
            "scales": [r[1] for r in runs],
            "attempted": len(op_list),
            "failed": sum(not r[2] for r in runs),
            "peak_rss_kb": peak_kb,
            "context": context(),
        }
    )


def import_ms() -> float:
    """Median (scaled) wall time of a fresh `python -c "import sobolev1d"`."""
    times, refs = [], []
    for _ in range(IMPORT_STARTS):
        refs.append(calibrate.reference())
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import sobolev1d"], check=True)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times) * calibrate.factor(refs)


GUARDS = {
    "m_abs_err": "minimizer.m_abs_err.max",
    "a_star_abs_err": "minimizer.a_star_abs_err.max",
    "wronskian_drift": "fcurve.wronskian_drift.max",
    "oracle_gap": "oracle.gap.max",
}


def trace(args, op_list: list[dict]) -> None:
    import tracing

    n = len(op_list)
    cli_in_process = args.workload == "cli_verify"
    plain = make_workload(args.workload, op_list, in_process=cli_in_process)
    calibrate.reference()  # its first run in a process is slower
    untraced = run_pass(plain)

    tracer = tracing.Tracer()
    hook = tracing.install(tracer)
    workload = make_workload(args.workload, op_list, hook, in_process=cli_in_process)
    traced = run_pass(workload, tracer.op_span)
    guards = {metric: 0.0 for metric in GUARDS.values()}
    for _, _, _, found in traced:
        for key, value in found.items():
            guards[GUARDS[key]] = max(guards[GUARDS[key]], value)
    failed = sum(not r[2] for r in untraced + traced)

    time_factor = scaled_seconds(traced) / sum(r[0] for r in traced)
    metrics = tracing.span_metrics(tracer, n, time_factor)
    metrics.update(guards)
    metrics["cli.import_ms"] = import_ms()
    metrics["trace.overhead_pct"] = 100.0 * (scaled_seconds(traced) / scaled_seconds(untraced) - 1.0)
    tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
    emit(
        {
            "type": "result",
            "per_layer": {
                name: {"value": metrics[name], "unit": unit} for name, unit in tracing.PER_LAYER
            },
            "spans": len(tracer.start),
            "attempted": 2 * n,
            "failed": failed,
            "context": context(),
        }
    )


def context() -> dict:
    import numpy
    import scipy

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "worker_threads": process_threads(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    args = parser.parse_args()
    if args.mode == "measure":
        setup_refs = [calibrate.reference() for _ in range(1 + SETUP_REFERENCES)]
    # run.py stops a stuck worker with SIGTERM; exiting through SystemExit
    # lets the verify child of an open op be reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    import sobolev1d

    if Path(sobolev1d.__file__).resolve().parent.parent != ROOT / "src":
        log(f"sobolev1d imported from {sobolev1d.__file__}, not from {ROOT / 'src'}")
        return 2
    op_list = specs.op_list(args.workload, args.seed)
    if args.mode == "trace":
        trace(args, op_list)
    else:
        measure(args, op_list, setup_refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
