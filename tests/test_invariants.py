"""Static checks on the library source in src/qcext.

Invariant checks in the library must survive `python -O`: `assert`
statements are stripped under -O, so the library raises InvariantError
instead, and one test keeps assert statements out.  Another keeps every
top-level import in use.
"""

from __future__ import annotations

import ast
from pathlib import Path

import qcext

SRC = Path(qcext.__file__).resolve().parent


def test_library_has_no_assert_statements():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert found == []


def _bound_names(node) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def test_no_unused_top_level_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused.extend(
                    f"{path.name}:{name}"
                    for name in _bound_names(node)
                    if name not in used
                )
    assert unused == []
