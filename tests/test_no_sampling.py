"""Reports are a deterministic function of their input: no module under
``src/novikov`` imports ``random``, so no sampled witness can creep into a
report.  Callers that want random inputs pass their own generator.

The scan reads the syntax tree, so strings, docstrings and comments do not
count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "novikov"


def random_imports(source):
    """Line of every import of the ``random`` module or of a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.partition(".")[0] == "random" for name in names):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_random(path):
    assert random_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,want", [
    ("import random\n", [1]),
    ("import os, random as rnd\n", [1]),
    ("x = 1\nfrom random import Random\n", [2]),
    ("def f():\n    import random\n", [2]),
    ("from .random import seed\n", []),
    ("import randomness\n", []),
    ('"""import random"""\n# import random\n', []),
])
def test_the_scan_finds_random_imports(source, want):
    assert random_imports(source) == want
