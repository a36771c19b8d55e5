"""Tests of the benchmark itself: a wrong reference is counted as a failed
operation without stopping the run, and a seed fixes the inputs.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from novikov import constructions, ideals  # noqa: E402


def test_wrong_golden_reference_is_counted(tmp_path):
    cases = run.load_golden()
    fixture, argv, expected = cases[3]
    cases[3] = (fixture, argv, expected.replace(b'"holds": true', b'"holds": false'))
    assert cases[3][2] != expected
    rep = run.cli_rep(cases, 0, tmp_path)
    assert len(rep["latencies_ms"]) == len(cases)
    assert rep["failed"] == 1
    assert run.golden_name(fixture, argv) in rep["errors"][0]


def test_wrong_structural_fact_is_counted_and_the_run_goes_on():
    B, degree = constructions.example1_algebra(3)
    A = constructions.gd_construct(B, degree)
    r = workloads.Run()
    # Example 1 at k = 3 has right-nilpotency index 4; claim 5 instead
    r.op("chain", lambda: ideals.chain(A, "right"),
         lambda rep: None if rep.index == 5 else f"index {rep.index}")
    r.op("raises", lambda: ideals.chain(A, "no-such-kind"), lambda rep: None)
    r.op("chain", lambda: ideals.chain(A, "right"),
         lambda rep: None if rep.index == 4 else f"index {rep.index}")
    assert len(r.latencies_ms) == 3
    assert r.failed == 0  # answers are checked after the timed phase
    r.check()
    assert r.failed == 2
    assert r.errors[0] == "chain: index 4"
    assert r.errors[1].startswith("raises: ValueError")


def test_seed_fixes_the_inputs():
    for name in ("sqfree-ladder", "certify-sweep", "gf3-oracle"):
        first = workloads.build(name, 7)[2]
        assert workloads.build(name, 7)[2] == first, name
        assert workloads.build(name, 8)[2] != first, name
    first = run.cli_setup(7)[1]
    assert run.cli_setup(7)[1] == first
    assert run.cli_setup(8)[1] != first
