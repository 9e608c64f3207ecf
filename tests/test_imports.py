"""Every imported name is used.

A standard-library stand-in for a linter's unused-import rule (F401), run
over every module under ``src/``, ``tests/``, ``tools/`` and ``demos/``.  A
name counts as used when the module reads it anywhere, in code or in a
quoted annotation.  Names the module lists in ``__all__`` are exempt, and
so is an import line marked ``# noqa: F401`` (a name kept for re-export or
for another module to patch).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests", "tools", "demos") for p in (ROOT / d).rglob("*.py"))


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
