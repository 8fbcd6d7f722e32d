"""Invariant checks in the library must survive `python -O`.

`assert` statements are stripped under -O, so the library raises
InvariantError instead; this test keeps assert statements out of src/qcext.
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
