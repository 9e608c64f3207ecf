"""Seeded op lists for the benchmark workloads.

Standard library only, so one seed gives byte-identical op lists on every
interpreter and machine: ``json.dumps(op_list(name, seed), sort_keys=True)``
is what the self-test compares.

Run-to-run steadiness across seeds comes from a fixed composition. Each
workload fixes which families appear, how often, and a log-spaced ladder of
contrasts v1/v0; the seed jitters each rung by up to +-3% and draws the
shape (positions, widths, levels, order) from ranges narrow enough that an
op's cost moves by a few percent. Cost grows like sqrt(v1/v0), and op times
on a shared two-core machine already scatter by a few percent, so wider
draws would make runs with different seeds disagree on throughput and on
the median latency.

An op is a dict with ``id``, ``family``, ``spec`` (a ``potential_from_spec``
object) and ``expect`` (closed-form answers where the family has one);
query ops add ``read`` and ``pair``.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("solve", "query", "cli_verify")

# Table potentials are sampled on this grid; their declared bounds are
# widened by TABLE_MARGIN so the cubic spline's over/undershoot between
# nodes stays inside them.
TABLE_GRID = [-8.0 + 0.25 * i for i in range(65)]
TABLE_MARGIN = 0.03

QUERY_READS = ("scan", "green", "rayleigh", "checks")


def warmup_op(workload: str) -> dict:
    """The untimed warm-up op: the same for every seed, so set-up cost does
    not depend on the seed."""
    op = {
        "id": f"{workload}-warmup",
        "family": "constant",
        "spec": {"kind": "constant", "v": 1.0},
        "expect": {"m": 2.0, "attainment": "flat"},
    }
    if workload == "query":
        op.update(pair=0, read="green")
    return op


def _ladder(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]


def _jitter(rng: random.Random, c: float) -> float:
    return c * math.exp(rng.uniform(-0.03, 0.03))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def example_closed_form(A: float, B: float) -> tuple[float, float]:
    """(m, a*) of make_example(A, B): a* is the smaller root of B x^2 - x - A^2 B."""
    a_star = (1.0 - math.sqrt(1.0 + 4.0 * A * A * B * B)) / (2.0 * B)
    s = a_star * a_star + A * A
    q = 2.0 * B * B * a_star * a_star - 2.0 * B * a_star + 2.0 * A * A * B * B + 1.0
    return 4.0 * B**3 * s / q, a_star


def _constant(rng: random.Random) -> dict:
    v = _log_uniform(rng, 0.25, 9.0)
    return {
        "family": "constant",
        "spec": {"kind": "constant", "v": v},
        "expect": {"m": 2.0 * math.sqrt(v), "attainment": "flat"},
    }


def _example(rng: random.Random, contrast: float) -> dict:
    # v1/v0 = (p^2 + p + 2)/(p^2 - p - 1) for p = A*B; solve for p.
    c = contrast
    p = ((c + 1.0) + math.sqrt((c + 1.0) ** 2 + 4.0 * (c - 1.0) * (c + 2.0))) / (
        2.0 * (c - 1.0)
    )
    A = _log_uniform(rng, 0.9, 1.1)
    B = p / A
    m, a_star = example_closed_form(A, B)
    return {
        "family": "example",
        "spec": {"kind": "example", "A": A, "B": B},
        "expect": {"m": m, "a_star": a_star, "attainment": "attained"},
    }


def _step(rng: random.Random, contrast: float) -> dict:
    v0 = _log_uniform(rng, 0.5, 2.0)
    return {
        "family": "step",
        "spec": {
            "kind": "step",
            "v0": v0,
            "v1": v0 * contrast,
            "width": rng.uniform(0.8, 1.25),
            "center": rng.uniform(-1.0, 1.0),
        },
        "expect": {"m": 2.0 * math.sqrt(v0), "attainment": "empty"},
    }


def _piecewise(rng: random.Random, contrast: float) -> dict:
    """Five pieces; one interior piece at v0, one piece at v1."""
    v0 = _log_uniform(rng, 0.5, 2.0)
    while True:
        edges = sorted(rng.uniform(-4.0, 4.0) for _ in range(4))
        if min(b - a for a, b in zip(edges, edges[1:])) > 0.3:
            break
    values = [v0 * contrast ** rng.random() for _ in range(5)]
    low = rng.randrange(1, 4)
    high = rng.choice([k for k in range(5) if k != low])
    values[low], values[high] = v0, v0 * contrast
    return {
        "family": "piecewise",
        "spec": {"kind": "piecewise_constant", "edges": edges, "values": values},
        "expect": {},
    }


def _well(rng: random.Random, contrast: float) -> dict:
    """Five pieces with v1 tails and a central v0 well wide enough that an
    extremal exists (the query workload reads it)."""
    v0 = _log_uniform(rng, 0.5, 2.0)
    c, h = rng.uniform(-1.0, 1.0), rng.uniform(0.75, 1.25)
    left, right = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    v1 = v0 * contrast
    return {
        "family": "piecewise",
        "spec": {
            "kind": "piecewise_constant",
            "edges": [c - h - left, c - h, c + h, c + h + right],
            "values": [v1, v0 * contrast ** rng.random(), v0, v0 * contrast ** rng.random(), v1],
        },
        "expect": {"attainment": "attained"},
    }


def _tie(rng: random.Random, contrast: float) -> dict:
    """Two equal wells: a known tie, so a* is not asserted."""
    v0 = _log_uniform(rng, 0.5, 2.0)
    e, w = rng.uniform(3.0, 4.0), rng.uniform(0.8, 1.2)
    v1 = v0 * contrast
    return {
        "family": "tie",
        "spec": {
            "kind": "piecewise_constant",
            "edges": [-e - w, -e, e, e + w],
            "values": [v1, v0, v1, v0, v1],
        },
        "expect": {},
    }


def _table(rng: random.Random, contrast: float, well: bool) -> dict:
    """A Gaussian well (or bump) sampled on TABLE_GRID, with declared bounds."""
    v0 = _log_uniform(rng, 0.5, 2.0)
    v1 = v0 * contrast
    center, width = rng.uniform(-0.5, 0.5), rng.uniform(1.0, 1.25)
    g = [math.exp(-0.5 * ((x - center) / width) ** 2) for x in TABLE_GRID]
    v = [v1 - (v1 - v0) * t if well else v0 + (v1 - v0) * t for t in g]
    return {
        "family": "table",
        "spec": {
            "kind": "table",
            "x": TABLE_GRID,
            "v": v,
            "lower_bound": v0 * (1.0 - TABLE_MARGIN),
            "upper_bound": v1 * (1.0 + TABLE_MARGIN),
        },
        "expect": {},
    }


def _solve_ops(rng: random.Random) -> list[dict]:
    """Ten minimize+extremal ops, contrasts from 1 to 300 (~7 s on one core)."""
    rungs = [_jitter(rng, c) for c in _ladder(1.5, 300.0, 5)]
    ops = [
        _constant(rng),
        *(_example(rng, _jitter(rng, c)) for c in (40.0, 80.0)),
        _step(rng, rungs[0]),
        _step(rng, rungs[3]),
        _piecewise(rng, rungs[1]),
        _piecewise(rng, rungs[4]),
        _tie(rng, rungs[2]),
        _table(rng, _jitter(rng, 1.5), well=False),
        _table(rng, _jitter(rng, 30.0), well=True),
    ]
    rng.shuffle(ops)
    return ops


def _query_ops(rng: random.Random) -> list[dict]:
    """Five pairs solved at set-up; one op per (pair, read) (~7 s on one core)."""
    pairs = [
        _constant(rng),
        _example(rng, _jitter(rng, 50.0)),
        _step(rng, _jitter(rng, 30.0)),
        _well(rng, _jitter(rng, 20.0)),
        _table(rng, _jitter(rng, 10.0), well=True),
    ]
    ops = []
    for k, pair in enumerate(pairs):
        for read in QUERY_READS:
            if read == "rayleigh" and pair["expect"].get("attainment") == "empty":
                continue  # no extremal exists
            ops.append({**pair, "pair": k, "read": read})
    rng.shuffle(ops)
    return ops


def _cli_verify_ops(rng: random.Random) -> list[dict]:
    """Four `sobolev1d verify` processes (~10 s on one core).

    Monotone steps and spline tables are left out because `verify` reports
    FAIL on them today (minimality-equivalence for every monotone step;
    riccati-residual and minimality-equivalence for tables), and every op
    of the benchmark must pass its gate.
    """
    ops = [
        _constant(rng),
        _example(rng, _jitter(rng, 8.0)),
        _piecewise(rng, _jitter(rng, 10.0)),
        _tie(rng, _jitter(rng, 10.0)),
    ]
    rng.shuffle(ops)
    return ops


_BUILDERS = {"solve": _solve_ops, "query": _query_ops, "cli_verify": _cli_verify_ops}


def op_list(workload: str, seed: int) -> list[dict]:
    """The seeded op list of one pass over ``workload``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng)
    for k, op in enumerate(ops):
        op["id"] = f"{workload}-{k}-{op['family']}"
    return ops
