"""README.md names only tests that exist.

A test README cites as the evidence of a guarantee is named either as
``tests/<file>.py::<name>`` or as a backticked `test_<name>`; each must be a
test function defined under tests/, the first in the file it names.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _test_functions(path: Path) -> set[str]:
    """Names of the test functions a file defines, at module level or in a class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }


def test_readme_names_only_tests_that_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    defined = {p.name: _test_functions(p) for p in (ROOT / "tests").glob("*.py")}
    anywhere = set().union(*defined.values())
    located = re.findall(r"tests/(\w+\.py)::(test_\w+)", readme)
    bare = re.findall(r"`(test_\w+)`", readme)
    assert located or bare, "README names no test"
    missing = [f"tests/{f}::{n}" for f, n in located if n not in defined.get(f, ())]
    missing += [n for n in bare if n not in anywhere]
    assert not missing, f"README names tests that do not exist: {missing}"
