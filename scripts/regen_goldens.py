#!/usr/bin/env python3
"""Regenerate the machine-written golden fixtures under tests/golden/.

Writes the derived .alg inputs (truncated polynomial and square-free
monomial examples) and the expected JSON for every (fixture, command) pair
listed in GOLDEN_RUNS, which ``perfbench/run.py`` keeps.
``tests/test_cli.py`` imports that list through this script and
compares CLI output byte for byte against these files, so rerun this
script only when an output change is intended, and review the diff.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

from novikov.cli import main
from novikov.constructions import (example1_algebra, truncated_poly,
                                   weighted_euler_derivation)
from novikov.dsl import AlgebraDoc, serialize_algebra_doc

# The one list of golden runs and their file names is the benchmark's,
# whose cli-golden workload replays them.
sys.path.insert(0, str(ROOT / "perfbench"))
from run import GOLDEN_RUNS, golden_name  # noqa: E402


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
