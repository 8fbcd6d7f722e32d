"""Static checks on the library source in src/qcext, and the immutability
of its value classes.

Invariant checks in the library must survive `python -O`: `assert`
statements are stripped under -O, so the library raises InvariantError
instead, and one test keeps assert statements out.  Another keeps every
top-level import in use.  Value classes are frozen slotted dataclasses:
one test checks that no class hand-writes a `__setattr__` guard instead,
another that every value class refuses attribute writes and has no
`__dict__`.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import qcext
from qcext import FreeGroup, FreeProduct, IndexedLp, TrivialReals, cyclic_group, real_value
from qcext.embedding import HLetter, XLetter

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


def test_no_class_defines_setattr():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.name}:{cls.name}"
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "__setattr__"
        )
    assert found == []


def _value_objects():
    F = FreeGroup(["x", "y"])
    T = cyclic_group(3)
    P = FreeProduct([F, T])
    word = F.parse("x y")
    return [
        F, word, T, T.element("g"), P, P.parse("x g"),
        TrivialReals(), IndexedLp(F), real_value(1),
        XLetter(F, 1), HLetter("C", word),
    ]


@pytest.mark.parametrize("obj", _value_objects(), ids=lambda o: type(o).__name__)
def test_value_classes_are_frozen_and_slotted(obj):
    assert not hasattr(obj, "__dict__")
    fields = [f.name for f in dataclasses.fields(obj)]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    # A name that is no field has no slot to land in.  On Python 3.11 the
    # generated __setattr__ raises TypeError for it: its super() call names
    # the class from before slots=True rebuilt it.
    for name in {"p", "extra"} - set(fields):
        with pytest.raises((AttributeError, TypeError)):
            setattr(obj, name, None)
