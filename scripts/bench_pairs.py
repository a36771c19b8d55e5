#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, written as one result file.

Usage::

    python scripts/bench_pairs.py PARENT CHANGE --seeds 301-310

PARENT and CHANGE are the roots of two git checkouts.  For every workload
of CHANGE's ``BENCHMARK.json`` and every seed, each checkout's own
``perfbench/run.py`` makes one untraced run of its declared ``run_seconds``
(``run_child`` there, in its own process): the parent first on odd seeds,
the change first on even ones, so a drift in machine speed falls on both
sides alike.

The result goes to ``bench/BENCH_<name>.json`` next to this script, where
the name is CHANGE's short commit, with ``-dirty`` when its tracked files
differ from that commit.  For each workload it holds the failed and
attempted operations of each side; for each end-to-end metric, the value
of each side in each pair, the medians, their ratio (change over parent),
the pairs the change won, the parent's interquartile range and two
judgements:

- ``verdict``: ``perfbench/run.py``'s own verdict on the two sets of runs;
- ``gain``: whether the change won at least nine pairs in ten, its
  median is better than the parent's by more than the parent's
  interquartile range, and no larger share of its operations failed.

A markdown table of the same figures is printed at the end.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import strftime

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_run(tree, name):
    """A checkout's ``perfbench/run.py`` as a module, read and not changed."""
    spec = importlib.util.spec_from_file_location(name, tree / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_run = load_run(ROOT, "bench_run")


def seed_range(text):
    first, _, last = text.partition("-")
    first, last = int(first), int(last or first)
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def commit_name(tree):
    """The short commit of a git checkout, with ``-dirty`` when its tracked
    files differ from it; None when the tree is not a git checkout."""
    def git(*argv):
        return subprocess.run(["git", "-C", str(tree), *argv], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        sha = git("rev-parse", "--short=7", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + ("-dirty" if dirty else "")


def summary(pairs, spec):
    """The figures and judgements of one metric over the pairs, each pair
    holding the result line of both sides."""
    parent, change = ([p[side]["metrics"][spec["name"]]["value"] for p in pairs]
                      for side in SIDES)
    failed, attempted = ({side: sum(p[side][key] for p in pairs) for side in SIDES}
                         for key in ("failed", "attempted"))
    sign = 1 if spec["better"] == "lower" else -1
    mp, mc = statistics.median(parent), statistics.median(change)
    parent_iqr = bench_run.spread(parent) * mp
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    fails_no_more = (failed["change"] * attempted["parent"]
                     <= failed["parent"] * attempted["change"])
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": parent, "change": change, "parent_median": mp, "change_median": mc,
            "ratio": mc / mp, "wins": wins, "pairs": len(pairs), "parent_iqr": parent_iqr,
            "verdict": bench_run.verdict(parent, change, spec),
            "gain": (wins >= 0.9 * len(pairs) and sign * (mp - mc) > parent_iqr
                     and fails_no_more)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    args = parser.parse_args(argv)

    names = {side: commit_name(getattr(args, side)) for side in SIDES}
    for side, name in names.items():
        if name is None:
            parser.error(f"{getattr(args, side)} is not a git checkout")
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    # the children inherit this: a run leaves no bytecode in either checkout
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    runners = {side: load_run(getattr(args, side), f"{side}_run").run_child
               for side in SIDES}
    result = {"parent": names["parent"], "change": names["change"],
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "platform": platform.platform(), "date": strftime("%Y-%m-%d"),
              "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        pairs = []
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = runners[side](w, seed, seconds)
            pairs.append(pair)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics']['wall_s']['value']:.4g} s"
                f"{'' if pair[side]['correct'] else ' INCORRECT'}" for side in order),
                file=sys.stderr, flush=True)
        result["workloads"][w] = {
            "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
            "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
            "pairs": pairs,
            "metrics": {m["name"]: summary(pairs, m) for m in bench["end_to_end"]}}
    out = ROOT / "bench" / f"BENCH_{names['change']}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    print("| workload | metric | parent | change | ratio | pair ratios | won | parent IQR "
          "| verdict | gain |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w, entry in result["workloads"].items():
        for m, s in entry["metrics"].items():
            ratios = [c / p for p, c in zip(s["parent"], s["change"])]
            print(f"| {w} | {m} | {s['parent_median']:.4g} | {s['change_median']:.4g} | "
                  f"{s['ratio']:.3f} | {min(ratios):.2f}-{max(ratios):.2f} | "
                  f"{s['wins']}/{s['pairs']} | {s['parent_iqr']:.4g} | {s['verdict']} | "
                  f"{'yes' if s['gain'] else 'no'} |")
    for w, entry in result["workloads"].items():
        print(f"{w}: failed {entry['failed']['parent']}/{entry['attempted']['parent']} "
              f"(parent), {entry['failed']['change']}/{entry['attempted']['change']} (change)")


if __name__ == "__main__":
    main()
