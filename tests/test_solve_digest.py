"""tools/solve_digest.py prints one digest line per benchmark op, the same on every run."""

from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_digest_of_one_workload_is_repeatable(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import solve_digest

    lines = solve_digest.digest_lines(13, ["cli_verify"])
    ops = solve_digest.load_specs().op_list("cli_verify", 13)
    assert [line.split()[:2] for line in lines] == [["13", op["id"]] for op in ops]
    assert all(len(line.split()[2]) == 64 for line in lines)
    assert solve_digest.digest_lines(13, ["cli_verify"]) == lines
