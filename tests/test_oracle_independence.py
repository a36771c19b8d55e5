"""The oracle and the code it checks stay apart, in both directions:

- ``novikov/oracle.py`` neither imports nor refers to ``ideals.is_ideal``,
  the echelon ideal test that the oracle's ideal lattice is meant to check,
  nor to anything else of ``novikov.ideals``, the quotient builder, the
  identity checks or the linear solver: it decides quotients on points;
- ``novikov/radicals.py`` neither imports ``oracle`` nor names anything the
  oracle defines, so the radicals never compute their answer with the
  module that cross-checks it;
- ``novikov/radicals.py`` builds no quotient algebra and no unital hull:
  it works modulo the commutator ideal on A's own coordinates.

The scan reads the syntax tree, so strings, docstrings and comments do not
count.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "novikov"
ORACLE = SRC / "oracle.py"
RADICALS = SRC / "radicals.py"


def uses(source, names):
    """The lines that import a module or a name in ``names`` (under any
    alias) or use such a name, bare or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.append(node.module)
            hit = any(name.rpartition(".")[2] in names for name in imported)
        elif isinstance(node, ast.Name):
            hit = node.id in names
        elif isinstance(node, ast.Attribute):
            hit = node.attr in names
        else:
            continue
        if hit:
            found.append(node.lineno)
    return sorted(set(found))


def top_level_names(source):
    """The names a module defines at top level: its functions, classes and
    assigned constants, not what it imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def oracle_names():
    return {"oracle"} | top_level_names(ORACLE.read_text(encoding="utf-8"))


def test_the_oracle_does_not_use_is_ideal():
    assert uses(ORACLE.read_text(encoding="utf-8"), {"is_ideal"}) == []


QUOTIENT_MACHINERY = {"ideals", "quotient", "_quotient", "verify_identity", "int_solve"}


def test_the_oracle_builds_and_solves_no_quotient():
    assert uses(ORACLE.read_text(encoding="utf-8"), QUOTIENT_MACHINERY) == []


def test_the_radicals_do_not_use_the_oracle():
    names = oracle_names()
    assert {"bruteforce_nilpotents", "enumerate_ideals", "DEFAULT_BUDGET"} <= names
    assert uses(RADICALS.read_text(encoding="utf-8"), names) == []


def test_the_radicals_build_no_quotient_algebra():
    names = {"quotient", "quotient_section", "preimage_under_quotient", "adjoin_unit"}
    assert uses(RADICALS.read_text(encoding="utf-8"), names) == []


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
    assert uses(source, {"is_ideal"}) == want


@pytest.mark.parametrize("source,want", [
    ("from .ideals import _quotient\n", [1]),
    ("from . import ideals\n", [1]),
    ("import novikov.ideals as ideal_module\n", [1]),
    ("from .core import terms, verify_identity\n", [1]),
    ("from .exactlin import Subspace, int_solve\n", [1]),
    ("Q, proj = quotient(A, I)\n", [1]),
    ("ok = core.verify_identity(Q, 'associative').ok\n", [1]),
    ("from .core import terms\nx = quotient_intersection(A, 'field')\n", []),
    ('"""no quotient(A, I) and no int_solve"""\n', []),
])
def test_the_scan_finds_quotient_machinery(source, want):
    assert uses(source, QUOTIENT_MACHINERY) == want


@pytest.mark.parametrize("source,want", [
    ("from .oracle import bruteforce_nilpotents\n", [1]),
    ("from .oracle import power_iteration_index as walk\n", [1]),
    ("from . import oracle\n", [1]),
    ("import novikov.oracle\n", [1]),
    ("from novikov.oracle import *\n", [1]),
    ("from . import oracle as o\nx = o.bruteforce_nilpotents(A)\n", [1, 2]),
    ("def f(A):\n    from .oracle import enumerate_ideals\n", [2]),
    ("x = novikov.oracle.DEFAULT_BUDGET\n", [1]),
    ("nil = bruteforce_nilpotents(Q)\n", [1]),
    ("from .ideals import quotient\nbudget = 81\n", []),
    ("from .oracles_elsewhere import thing\n", []),
    ('"""falls back to oracle.bruteforce_nilpotents"""\n# from .oracle import x\n', []),
])
def test_the_scan_finds_oracle_uses(source, want):
    assert uses(source, oracle_names()) == want
