"""Only ``core.py`` reads the dense structure cube: every other module
under ``src/novikov`` walks an algebra's nonzero products through
``_int_products`` or ``basis_product``.  ``AlgebraTable.cube`` is built
on each read at O(dim^3) cost, so a loop over it in a library module would
bring the dense representation back.

The scan reads the syntax tree, so strings, docstrings and comments do not
count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "novikov"


def cube_reads(source):
    """Lines of every ``<expr>.cube`` attribute access."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "cube"]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "core.py"),
                         ids=lambda p: p.name)
def test_only_core_reads_the_cube(path):
    assert cube_reads(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,lines", [
    ("x = A.cube[0][1]\n", [1]),
    ("def f(A):\n    return [v for v in A.cube]\n", [2]),
    ("cube = getattr(A, 'index')\n", []),
    ("x = A.cubes\n", []),
    ('"""A.cube in a docstring"""\n# A.cube\n', []),
])
def test_the_scan_finds_cube_reads(source, lines):
    assert cube_reads(source) == lines
