"""One row reduction in the package: ``echelon_insert`` (with ``_reduce``,
its remainder step) is the only code that eliminates integer rows, and
solve, kernel, rank, spans and intersections all go through it.  A second
elimination would call the fraction-free step ``_cleared`` or the row
normalisation ``_normalized``, so the scan lists every function that calls
either of them.

The scan reads the syntax tree, so strings, docstrings and comments do not
count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "novikov"
STEPS = {"_cleared", "_normalized"}
ELIMINATION = {"_reduce", "echelon_insert"}


def step_callers(source):
    """``(function, step)`` for every call of a step, by the innermost
    enclosing function; ``<module>`` for a call outside any function."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in STEPS:
                found.append((where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_echelon_insert_eliminates(path):
    callers = {where for where, _ in step_callers(path.read_text(encoding="utf-8"))}
    assert callers <= ELIMINATION


def test_echelon_insert_and_reduce_use_the_steps():
    source = (PACKAGE / "exactlin.py").read_text(encoding="utf-8")
    assert sorted(set(step_callers(source))) == [
        ("_reduce", "_cleared"), ("echelon_insert", "_cleared"),
        ("echelon_insert", "_normalized")]


@pytest.mark.parametrize("source,found", [
    ("def f(v):\n    return _cleared(v, 1, 1, v)\n", [("f", "_cleared")]),
    ("def g(F, v):\n    return exactlin._normalized(F, v, 0)\n", [("g", "_normalized")]),
    ("class C:\n    def m(self):\n        def h():\n            _cleared()\n",
     [("h", "_cleared")]),
    ("x = _normalized(F, v, 0)\n", [("<module>", "_normalized")]),
    ("def f():\n    return _cleared\n", []),
    ('"""_cleared(v) in a docstring"""\n# _normalized(F, v, q)\n', []),
])
def test_the_scan_finds_step_calls(source, found):
    assert step_callers(source) == found
