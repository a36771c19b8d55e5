"""The oracle decides ideals on its own: ``novikov/oracle.py`` neither
imports nor refers to ``ideals.is_ideal``, the echelon ideal test that the
oracle's ideal lattice is meant to check.

The scan reads the syntax tree, so strings, docstrings and comments do not
count.
"""

import ast
from pathlib import Path

import pytest

ORACLE = Path(__file__).resolve().parents[1] / "src" / "novikov" / "oracle.py"


def is_ideal_uses(source):
    """Line of every import of ``is_ideal`` (under any alias) and of every
    use of the name, bare or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            hit = any(alias.name.rpartition(".")[2] == "is_ideal" for alias in node.names)
        elif isinstance(node, ast.Name):
            hit = node.id == "is_ideal"
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "is_ideal"
        else:
            continue
        if hit:
            found.append(node.lineno)
    return sorted(found)


def test_the_oracle_does_not_use_is_ideal():
    assert is_ideal_uses(ORACLE.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,want", [
    ("from .ideals import is_ideal\n", [1]),
    ("from .ideals import _quotient, is_ideal as test\n", [1]),
    ("import novikov.ideals.is_ideal\n", [1]),
    ("from . import ideals\nideals.is_ideal(A, S)\n", [2]),
    ("x = 1\nok = is_ideal(A, S)\n", [2]),
    ("test = ideals.is_ideal\n", [1]),
    ("from .ideals import _quotient, is_ideal_like\n", []),
    ("from .ideals import is_trivial_ideal\nis_trivial_ideal(A, I)\n", []),
    ('"""is_ideal(A, S)"""\n# from .ideals import is_ideal\n', []),
])
def test_the_scan_finds_is_ideal(source, want):
    assert is_ideal_uses(source) == want
