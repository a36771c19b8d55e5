"""The package computes exactly: no source file under ``src/novikov`` may
call ``float(``, name ``math.inf`` or contain a float or complex literal.

The scan reads tokens, so strings, docstrings and comments do not count.
"""

import io
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "novikov"


def float_uses(source):
    """``(line, text)`` of every float construction in Python source."""
    toks = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
            if t.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT)]
    text = [t.string for t in toks] + [""]
    found = []
    for i, tok in enumerate(toks):
        line = tok.start[0]
        if tok.type == tokenize.NUMBER:
            digits = tok.string.lower()
            if not digits.startswith(("0x", "0o", "0b")) and any(c in digits for c in ".ej"):
                found.append((line, tok.string))
        elif tok.string == "float" and text[i + 1] == "(" and text[i - 1] != ".":
            found.append((line, "float("))
        elif tok.string == "inf" and text[i - 2:i] == ["math", "."]:
            found.append((line, "math.inf"))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_floating_point_in_the_package(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,want", [
    ('NEG_INF = float("-inf")\n', [(1, "float(")]),
    ("x = 0.5\n", [(1, "0.5")]),
    ("x = 1e9\n", [(1, "1e9")]),
    ("x = 2j\n", [(1, "2j")]),
    ("import math\nx = -math.inf\n", [(2, "math.inf")]),
    ("x = 0xE1 + 10 ** 3  # 0.5\n", []),
    ('"""a float( of 1.5 in a docstring"""\n', []),
])
def test_the_scan_finds_floats(source, want):
    assert float_uses(source) == want


def test_exact_coin_draws_what_a_float_comparison_draws():
    import random

    from novikov.constructions import _coin

    for seed in range(300):
        exact, floating = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert _coin(exact) == (floating.random() < 0.5)
            assert exact.getstate() == floating.getstate()
