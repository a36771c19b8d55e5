#!/usr/bin/env python3
"""Regenerate the machine-written golden fixtures under tests/golden/.

Writes the derived .alg inputs (truncated polynomial and square-free
monomial examples) and the expected JSON for every (fixture, command) pair
listed in GOLDEN_RUNS.  ``tests/test_cli.py`` imports that list and
compares CLI output byte for byte against these files, so rerun this
script only when an output change is intended, and review the diff.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"

from novikov.cli import main
from novikov.constructions import (example1_algebra, truncated_poly,
                                   weighted_euler_derivation)
from novikov.dsl import AlgebraDoc, serialize_algebra_doc

GOLDEN_RUNS = [
    ("a2", ["check"]),
    ("a2", ["radical", "--kind", "baer"]),
    ("a2", ["series", "--kind", "right"]),
    ("a2", ["certify", "--claim", "lemma3", "--element", "e1",
            "--ideal", "e2", "--n", "2"]),
    ("tpoly4", ["gd", "--derivation", "euler"]),
    ("tpoly4", ["quasi-inverse", "--element", "t", "--side", "left", "--lift"]),
    ("tpoly4", ["certify", "--claim", "theorem1", "--element", "t",
                "--ideal", "t2", "--n", "2"]),
    ("tpoly4", ["certify", "--claim", "lemma1", "--element", "t", "--n", "2"]),
    ("tpoly4", ["quasi-inverse", "--element", "t + t2", "--side", "right"]),
    ("tpoly3u", ["radical", "--kind", "lqr"]),
    ("ex1k2", ["radical", "--kind", "baer"]),
    ("ex1k3", ["check"]),
    ("ex1k2", ["gd", "--derivation", "deg"]),
    ("ex1k3", ["series", "--kind", "full"]),
    ("gf3_a2", ["oracle", "--task", "tower"]),
    ("gf3_a2", ["oracle", "--task", "nilpotents"]),
    ("gf3_a2", ["oracle", "--task", "intersection", "--kind", "domain"]),
    ("gf3_a2", ["radical", "--kind", "baer"]),
]


def generated_inputs():
    """``{file name: text}`` of the derived .alg inputs."""
    B4 = truncated_poly(4)
    out = {"tpoly4.alg": serialize_algebra_doc(
        AlgebraDoc(B4, {"euler": weighted_euler_derivation(B4, [1, 2, 3])}))}
    for k in (2, 3):
        B, d = example1_algebra(k)
        out[f"ex1k{k}.alg"] = serialize_algebra_doc(AlgebraDoc(B, {"deg": d}))
    return out


def write_generated_inputs():
    for name, text in generated_inputs().items():
        (GOLDEN / name).write_text(text, encoding="utf-8")


def golden_name(fixture, argv):
    bits = [fixture] + [a.lstrip("-") for a in argv]
    return ("_".join(bits).replace("/", "_").replace(" ", "")) + ".json"


def regenerate():
    write_generated_inputs()
    for fixture, argv in GOLDEN_RUNS:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv[:1] + [str(GOLDEN / f"{fixture}.alg")]
                        + argv[1:] + ["--json"])
        if code != 0:
            raise SystemExit(f"golden run failed: {fixture} {argv} -> {code}")
        out = GOLDEN / golden_name(fixture, argv)
        out.write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote {out.name}")


if __name__ == "__main__":
    sys.exit(regenerate())
