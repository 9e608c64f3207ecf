"""tools/dump_artifacts.py writes one artifact file per command and spec."""

import dataclasses
import json
from pathlib import Path

import numpy as np

from sobolev1d import make_constant
from sobolev1d.fundamental import solve_log_solution

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_dump_one_spec(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import dump_artifacts

    specs = {"constant": dump_artifacts.SPECS["constant"]}
    written = dump_artifacts.dump(tmp_path, specs)
    assert sorted(p.name for p in written) == sorted(
        f"constant.{run}" for run in dump_artifacts.RUNS
    )
    for path in written:
        assert path.read_text(encoding="utf-8").startswith("exit 0\n")
    report = (tmp_path / "constant.solve.json").read_text(encoding="utf-8")
    assert json.loads(report.split("\n", 1)[1])["attainment"] == "flat"
    verify = (tmp_path / "constant.verify.txt").read_text(encoding="utf-8")
    assert verify.count("\nPASS ") == 7


def test_dump_demos_writes_one_file_per_demo(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import dump_artifacts

    written = dump_artifacts.dump_demos(tmp_path)
    demos = sorted(dump_artifacts.DEMOS.glob("*.py"))
    assert demos
    assert [p.name for p in written] == [f"demo.{d.stem}.txt" for d in demos]
    for path in written:
        assert path.read_text(encoding="utf-8").startswith("exit 0\n")


def test_digest_of_one_workload_is_repeatable(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import dump_artifacts

    lines = dump_artifacts.digest_lines(13, ["cli_verify"])
    ops = dump_artifacts.load_perfbench("specs").op_list("cli_verify", 13)
    assert [line.split()[0] for line in lines] == [op["id"] for op in ops]
    assert all(len(line.split()[1]) == 64 for line in lines)
    assert dump_artifacts.digest_lines(13, ["cli_verify"]) == lines


def test_sweep_digest_is_repeatable(monkeypatch):
    """The first potentials of each sweep family, the full sweep's own, each at every tol:
    one line per solve."""
    monkeypatch.syspath_prepend(str(TOOLS))
    import dump_artifacts

    lines = dump_artifacts.sweep_lines(size=8)
    specs = dump_artifacts.sweep_specs(size=8)
    assert [line.split()[0] for line in lines] == [
        f"{name}.{tol:g}" for name in specs for tol in dump_artifacts.SWEEP_TOLS
    ]
    full = dump_artifacts.sweep_specs()
    assert len(specs) == 4 * 8 and {name: full[name] for name in specs} == specs
    assert all(len(line.split()[1]) == 64 for line in lines)
    assert dump_artifacts.sweep_lines(size=8) == lines


def test_exact_leaves_out_the_derived_caches(monkeypatch):
    """Two LogSolutions that differ only in ``_floats``, a cache derived in
    ``__post_init__``, hash the same."""
    monkeypatch.syspath_prepend(str(TOOLS))
    import dump_artifacts

    plus, _ = solve_log_solution(make_constant(2.0), -20.0, 20.0)
    other = dataclasses.replace(plus)
    object.__setattr__(other, "_floats", other._floats[:-1])
    assert dump_artifacts.exact(other) == dump_artifacts.exact(plus)


def test_exact_sees_one_flipped_bit_of_a_stored_rate(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import dump_artifacts

    plus, _ = solve_log_solution(make_constant(2.0), -20.0, 20.0)
    r = plus._r.copy()
    r.view(np.uint64)[3] ^= 1
    assert dump_artifacts.exact(dataclasses.replace(plus, _r=r)) != dump_artifacts.exact(plus)
