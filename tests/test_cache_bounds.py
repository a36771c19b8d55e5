"""Every memo in the package is bounded: an ``lru_cache`` decorator under
``src/novikov`` must give ``maxsize`` as a non-negative int literal, and
``functools.cache`` is not used.  The caches hold whole algebras for the
life of the process, so an unbounded one would grow with every input.

The scan reads the syntax tree, so strings, docstrings and comments do not
count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "novikov"


def _cache_name(node):
    """``lru_cache`` or ``cache`` when the node names functools' decorator
    (bare or as ``functools.<name>``), else None."""
    if isinstance(node, ast.Name):
        name = node.id
    elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
          and node.value.id == "functools"):
        name = node.attr
    else:
        return None
    return name if name in ("lru_cache", "cache") else None


def _finite_maxsize(call):
    sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
    return (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
            and type(sizes[0].value) is int and sizes[0].value >= 0)


def unbounded_caches(source):
    """``(line, function)`` of every cache decorator without an explicit
    finite ``maxsize``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            name = _cache_name(call.func if call else dec)
            if name and (name == "cache" or call is None or not _finite_maxsize(call)):
                found.append((dec.lineno, node.name))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_package_cache_is_bounded(path):
    assert unbounded_caches(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("decorator,flagged", [
    ("@cache", True),
    ("@functools.cache", True),
    ("@lru_cache", True),
    ("@lru_cache()", True),
    ("@lru_cache(maxsize=None)", True),
    ("@functools.lru_cache(None)", True),
    ("@lru_cache(maxsize=SIZE)", True),
    ("@lru_cache(maxsize=True)", True),
    ("@lru_cache(maxsize=256)", False),
    ("@functools.lru_cache(64, typed=True)", False),
    ("@staticmethod", False),
])
def test_the_scan_finds_unbounded_caches(decorator, flagged):
    source = f"class C:\n    {decorator}\n    def f(self, x):\n        return x\n"
    assert unbounded_caches(source) == ([(2, "f")] if flagged else [])


def test_the_scan_ignores_text():
    source = '"""@cache and @lru_cache(maxsize=None) in a docstring"""\n# @cache\n'
    assert unbounded_caches(source) == []
