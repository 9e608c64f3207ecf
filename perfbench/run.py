"""Benchmark of sobolev1d: one closed-loop client per workload.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Workloads (see ``specs.py``): ``solve`` (in-process ``minimize``
plus ``extremal``), ``query`` (reads of pairs solved at set-up) and
``cli_verify`` (one ``sobolev1d verify`` process per op).

Each run does fixed work, never a time box, so the op mix is the same in
every run: ``max(WORKERS, round(seconds / PASS_SECONDS))`` fresh worker
processes, one after another, each doing one whole pass over the seeded op
list. Spreading the passes over processes averages out how fast a process
happens to run (heap layout and the like); each worker's start also gives
one set-up sample. ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` runs a separate traced process and reports the per-layer metrics. The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the machine and
versions. Workers run with OpenBLAS/OpenMP pinned to one thread.

Set-up time is the median over the workers of the time from process start
to the first timed op: interpreter start, ``import sobolev1d``, input
generation, set-up solves and one untimed warm-up op.

Every reported time is scaled to a nominal machine speed by a reference
computation timed alongside it (see ``calibrate.py``): the shared machine
this was tuned on changes speed by 20% from one pass to the next. The
context line carries the unscaled figures and the median scale factor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from specs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Nominal seconds of one pass on one core of a 2-core x86 sandbox; only
# turns --seconds into a fixed number of workers.
PASS_SECONDS = {"solve": 8.0, "query": 7.0, "cli_verify": 10.0}
WORKERS = 3
# Every run must end within 180 s; the alarm leaves time to stop workers.
DEADLINE_S = 170


class Deadline(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # OpenBLAS otherwise starts a thread per core on import.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, mode: str) -> tuple[float | None, float | None, dict | None]:
    """Run one worker.

    Returns (set-up seconds, the factor that scales them to the nominal
    speed, the worker's result).
    """
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
    ]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    ready = scale = result = None
    try:
        for line in proc.stdout:
            msg = json.loads(line)
            if msg["type"] == "ready":
                ready = perf_counter() - t0 - msg["reference_s"]
                scale = msg["scale"]
            elif msg["type"] == "result":
                result = msg
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"{mode} worker exited with code {code}")
    return ready, scale, result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarize(setups: list[float], latencies: list[list[float]], attempted: int) -> dict:
    """Median set-up, ops per second, and the median over ops of each op's
    mean latency across passes."""
    per_op = [statistics.fmean(col) for col in zip(*latencies)]
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": attempted / sum(map(sum, latencies)),
        "latency_ms.p50": 1e3 * statistics.median(per_op),
    }


def end_to_end(args, workers: int) -> dict:
    starts = [start_worker(args, "measure") for _ in range(workers)]
    results = [s[2] for s in starts]
    latencies = [r["latencies_s"] for r in results]
    scales = [r["scales"] for r in results]
    attempted = sum(r["attempted"] for r in results)
    raw = summarize([s[0] for s in starts], latencies, attempted)
    scaled = summarize(
        [ready * scale for ready, scale, _ in starts],
        [[t * f for t, f in zip(*rows)] for rows in zip(latencies, scales)],
        attempted,
    )
    result = {
        "attempted": attempted,
        "failed": sum(r["failed"] for r in results),
        "peak_rss_kb": max(r["peak_rss_kb"] for r in results),
        "context": results[-1]["context"],
    }
    result["context"]["unscaled"] = raw
    result["context"]["median_scale"] = statistics.median(f for row in scales for f in row)
    units = {"setup_s": "s", "throughput_per_s": "1/s", "latency_ms.p50": "ms"}
    result["metrics"] = {name: metric(scaled[name], unit) for name, unit in units.items()}
    result["metrics"]["peak_rss_mb"] = metric(result["peak_rss_kb"] / 1024.0, "MB")
    return result


def per_layer(args) -> dict:
    _, _, result = start_worker(args, "trace")
    result["metrics"] = result["per_layer"]
    return result


def on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "sobolev1d" / "__init__.py").is_file():
        print(f"no sobolev1d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        # Untimed: compiles the bytecode every later interpreter loads.
        subprocess.run(
            [sys.executable, "-c", "import sobolev1d"], env=worker_env(), cwd=ROOT, check=True
        )
        if args.trace:
            result = per_layer(args)
        else:
            result = end_to_end(args, max(WORKERS, round(args.seconds / PASS_SECONDS[args.workload])))
    except (Deadline, RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    print(
        json.dumps(
            {
                "context": {
                    "workload": args.workload,
                    "seed": args.seed,
                    "nproc": os.cpu_count(),
                    "affinity_cpus": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "machine": platform.machine(),
                    **result["context"],
                }
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
