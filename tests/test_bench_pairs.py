"""The judgements of ``scripts/bench_pairs.py`` on hand-made pairs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from bench_pairs import bench_run, main, seed_range, summary  # noqa: E402

LOWER = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = dict(LOWER, better="higher")


def pairs(parent, change, failed=(0, 0)):
    """Pairs of result lines with these wall_s values; ``failed`` spreads
    that many failed operations, out of 100 a run, over each side."""
    def line(value, i, n):
        return {"attempted": 100, "failed": int(i < n),
                "metrics": {"wall_s": {"value": value, "unit": "s"}}}
    return [{"parent": line(p, i, failed[0]), "change": line(c, i, failed[1])}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_a_seed_range_is_inclusive():
    assert seed_range("301-310") == list(range(301, 311))
    assert seed_range("7") == [7]
    with pytest.raises(Exception):
        seed_range("5-4")


PARENT = [1.0, 1.1, 1.0, 1.2, 1.1, 1.0, 1.1, 1.0, 1.1, 1.0]
NINE_WINS = [0.8, 0.9, 0.8, 0.9, 0.8, 0.9, 0.8, 0.9, 0.8, 1.2]


def test_nine_wins_and_a_gap_over_the_iqr_are_a_gain():
    s = summary(pairs(PARENT, NINE_WINS), LOWER)
    assert (s["wins"], s["pairs"], s["gain"]) == (9, 10, True)
    assert s["ratio"] == pytest.approx(0.85 / 1.05)
    assert s["parent_iqr"] == pytest.approx(0.1)
    # a 0.81x median is inside the 0.25 bound, so run.py calls it flat
    assert s["verdict"] == "within bound"


def test_more_failed_operations_are_no_gain():
    assert summary(pairs(PARENT, NINE_WINS, failed=(2, 2)), LOWER)["gain"]
    assert not summary(pairs(PARENT, NINE_WINS, failed=(2, 3)), LOWER)["gain"]


def test_eight_wins_are_no_gain():
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.1, 0.9, 1.0]
    s = summary(pairs(parent, [0.5] * 8 + [1.2] * 2), LOWER)
    assert (s["wins"], s["gain"]) == (8, False)


def test_a_gap_inside_the_iqr_is_no_gain():
    s = summary(pairs([1.0, 1.4, 1.0, 1.4], [0.95, 1.35, 0.95, 1.35]), LOWER)
    assert (s["wins"], s["parent_iqr"], s["gain"]) == (4, pytest.approx(0.4), False)


@pytest.mark.parametrize("parent,change,spec,want", [
    ([1.0, 1.1, 0.9, 1.0], [1.3, 1.4, 1.3, 1.4], LOWER, "worse"),
    ([1.0, 1.1, 0.9, 1.0], [1.2, 1.2, 1.2, 1.2], LOWER, "within bound"),
    ([1.0, 1.1, 0.9, 1.0], [0.5, 0.52, 0.48, 0.5], HIGHER, "worse"),
    ([1.0, 1.1, 0.9, 1.0], [2.0, 2.1, 1.9, 2.0], HIGHER, "better"),
    ([1.0, 2.0, 1.0, 2.0], [1.5, 1.5, 1.5, 1.5], LOWER, "unresolved"),
    ([1.0, 2.0, 1.0, 2.0], [0.5, 0.6, 0.5, 0.6], LOWER, "better (every run)"),
])
def test_the_verdict_is_run_pys(parent, change, spec, want):
    assert bench_run.verdict(parent, change, spec) == want
    assert summary(pairs(parent, change), spec)["verdict"] == want


def test_both_sides_must_be_git_checkouts(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main([str(tmp_path), str(tmp_path), "--seeds", "1-2"])
    assert "is not a git checkout" in capsys.readouterr().err
