"""Every imported name is used, and no package module reaches far into another.

A standard-library stand-in for a linter's unused-import rule (F401), run
over every module under ``src/``, ``tests/``, ``tools/`` and ``demos/``.  A
name counts as used when the module reads it anywhere, in code or in a
quoted annotation.  Names the module lists in ``__all__`` are exempt, and
so is an import line marked ``# noqa: F401`` (a name kept for re-export or
for another module to patch).

A module of ``src/sobolev1d`` imports at most PRIVATE_LIMIT private names
from any one other module, but for the pairs in PRIVATE_EXCEPTIONS, each of
which takes exactly the names listed there, more than PRIVATE_LIMIT: an
allowance that is no longer needed fails too.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests", "tools", "demos") for p in (ROOT / d).rglob("*.py"))
PACKAGE = ROOT / "src" / "sobolev1d"

PRIVATE_LIMIT = 3
# (importer, source) -> the private names the importer takes past the limit.
PRIVATE_EXCEPTIONS = {
    # The solve and its reads run on the mesh split out of fundamental.
    ("fundamental", "mesh"): {
        "_GAUSS", "_bounds", "_cell_maps", "_gauss_nodes", "_honest", "_magnus", "_omega", "_refine",
    },
}


def _read_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            # A quoted annotation such as "DiscreteRayleighProblem".
            for part in ast.walk(note) if note is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= _read_names(ast.parse(part.value, mode="eval"))
    return names


def _exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[str]:
    """'line: name' for each name the module imports and never reads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _read_names(tree) | _exports(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {bound}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from json import dumps\n"
        "from json import loads as parse  # noqa: F401\n"
        "from typing import Sequence\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Sequence[int]'):\n"
        "    return os.path.join(x)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["2: math"]


def private_imports(path: Path) -> dict[str, set[str]]:
    """Sibling module -> the private names a package module imports from it."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            names = {alias.name for alias in node.names if alias.name.startswith("_")}
            found.setdefault(node.module, set()).update(names)
    return found


def test_no_module_imports_many_private_names_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    taken = {
        (path.stem, source): names
        for path in modules
        for source, names in private_imports(path).items()
    }
    over = {
        f"{importer} <- {source}": sorted(names)
        for (importer, source), names in taken.items()
        if len(names) > PRIVATE_LIMIT and (importer, source) not in PRIVATE_EXCEPTIONS
    }
    assert over == {}
    assert {pair: taken.get(pair) for pair in PRIVATE_EXCEPTIONS} == PRIVATE_EXCEPTIONS
    assert all(len(names) > PRIVATE_LIMIT for names in PRIVATE_EXCEPTIONS.values())
