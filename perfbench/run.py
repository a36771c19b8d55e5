#!/usr/bin/env python3
"""Benchmark of the novikov workbench, driven from outside the package.

One run of one workload::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

repeats the workload's fixed work, each repetition in a fresh interpreter,
until the next repetition would end after S seconds (at least two are made).
Every answer is checked against a reference outside the timed path; a wrong
answer or an error counts as failed and the run goes on.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it are a readable
table.  Run it from the root of a checkout; it reads and writes nothing
outside it.

Other modes::

    python3 perfbench/run.py --record OUT.json [--seed 1] [--seconds S]
    python3 perfbench/run.py --compare BASE.json NEW.json
    python3 perfbench/run.py --self-check [--seed 1]

``--record`` makes ten untraced runs of every workload with seeds
``seed, seed + 1, ...`` plus one traced run each,
prints every end-to-end metric by workload, name and unit, and writes the
result set with the git commit, Python version and ``nproc``.
``--compare`` prints, for every workload and end-to-end metric, the ratio
of medians and a verdict against the metric's bound.  ``--self-check``
checks that a seed fixes the inputs and the traced call counts.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, strftime

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("sqfree-ladder", "certify-sweep", "gf3-oracle", "cli-golden")
CHILD_TIMEOUT_S = 150
RUN_TIMEOUT_S = 180
# Two repetitions even when the second overruns the run's seconds: with one
# only when the first was fast, slow phases of a shared machine would decide
# how many samples a run has.  A traced run needs one traced and one plain.
MIN_REPS = 2

# set-ups of cli-golden per run, whose median is its setup_s
CLI_SETUPS = 5
# untraced runs of every workload in a recorded result set
RECORD_RUNS = 10

# The 18 golden (fixture, command) pairs under tests/golden/.
GOLDEN_RUNS = (
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
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def golden_name(fixture, argv):
    bits = [fixture] + [a.lstrip("-") for a in argv]
    return "_".join(bits).replace("/", "_").replace(" ", "") + ".json"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion; returns (stdout bytes, exit code, seconds)."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child timed out after {timeout} s: {argv}")
    elapsed = perf_counter() - t0
    if proc.returncode != 0 and err:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return out, proc.returncode, elapsed


def preflight():
    """The package must import from this checkout's ``src``."""
    if not (SRC / "novikov" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'novikov'}")
    out, code, _ = spawn([sys.executable, "-c",
                          "import novikov.cli, sys; sys.stdout.write(novikov.__file__)"])
    if code != 0:
        raise BenchError("novikov.cli does not import")
    if Path(out.decode()).resolve().parent != (SRC / "novikov").resolve():
        raise BenchError(f"novikov imported from {out.decode()}, not from {SRC}")


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

def library_rep(workload, seed, trace):
    out, code, elapsed = spawn([sys.executable, str(HERE / "worker.py"),
                                "--workload", workload, "--seed", str(seed),
                                "--trace", str(trace)])
    if code != 0:
        raise BenchError(f"{workload} worker exited with {code}")
    rep = json.loads(out.decode().splitlines()[-1])
    rep["elapsed_s"] = elapsed
    return rep


def load_golden():
    """The golden references, read once per set-up: (fixture path, argv,
    expected stdout) per pair."""
    cases = []
    for fixture, argv in GOLDEN_RUNS:
        path = GOLDEN / f"{fixture}.alg"
        expected = GOLDEN / golden_name(fixture, argv)
        if not (path.is_file() and expected.is_file()):
            raise BenchError(f"missing golden input or output for {fixture} {argv}")
        cases.append((fixture, argv, expected.read_bytes()))
    return cases


def cli_setup(seed):
    """Read the references and start the CLI once, so byte-compilation and
    the page cache are done before timing; returns (cases, digest)."""
    cases = load_golden()
    random.Random(seed).shuffle(cases)
    preflight()
    h = hashlib.sha256()
    for fixture, argv, expected in cases:
        h.update(repr((fixture, argv)).encode())
        h.update((GOLDEN / f"{fixture}.alg").read_bytes())
        h.update(expected)
    return cases, h.hexdigest()


def cli_rep(cases, trace, tmpdir):
    """One pass over the golden pairs, one CLI process per pair; the
    outputs are compared with the golden bytes after the pass."""
    latencies, answers = [], []
    t0 = perf_counter()
    for i, (fixture, argv, _) in enumerate(cases):
        args = argv[:1] + [str(GOLDEN / f"{fixture}.alg")] + argv[1:] + ["--json"]
        if trace:
            trace_file = Path(tmpdir) / f"trace{i}.json"
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(trace_file)] + args
        else:
            cmd = [sys.executable, "-m", "novikov.cli"] + args
        out, code, elapsed = spawn(cmd)
        latencies.append(elapsed * 1e3)
        answers.append((out, code))
    wall_s = perf_counter() - t0
    errors = [f"{golden_name(fixture, argv)}: exit {code}, "
              f"{'same' if out == expected else 'different'} bytes"
              for (fixture, argv, expected), (out, code) in zip(cases, answers)
              if code != 0 or out != expected]
    rep = {"wall_s": wall_s, "latencies_ms": latencies,
           "failed": len(errors), "errors": errors[:5]}
    if trace:
        traces = [json.loads((Path(tmpdir) / f"trace{i}.json").read_text(encoding="utf-8"))
                  for i in range(len(cases))]
        rep["trace"] = merge_traces(traces)
        rep["import_s"] = statistics.median(t["import_s"] for t in traces)
    return rep


def merge_traces(traces):
    """Sum the summaries of the processes of one repetition."""
    merged = json.loads(json.dumps(traces[0]))
    for t in traces[1:]:
        for name, layer in t["layers"].items():
            for key, value in layer.items():
                merged["layers"][name][key] += value
        for name, cache in t["caches"].items():
            for key, value in cache.items():
                merged["caches"][name][key] += value
        for key in ("items", "window_s"):
            merged[key] += t[key]
    return merged


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    """Repeat the workload until the next repetition would overrun, and at
    least ``MIN_REPS`` times.

    In a traced run the repetitions alternate between traced and untraced,
    so the run also measures the tracing overhead.
    """
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmpdir:
        t_start = perf_counter()
        if workload == "cli-golden":
            setups, digests = [], []
            for _ in range(CLI_SETUPS):
                t0 = perf_counter()
                cases, digest = cli_setup(seed)
                setups.append(perf_counter() - t0)
                digests.append(digest)
            if len(set(digests)) != 1:
                raise BenchError("golden references changed during the run")
        else:
            preflight()
        reps = []
        while True:
            rep_trace = trace and len(reps) % 2 == 0
            t0 = perf_counter()
            if workload == "cli-golden":
                rep = cli_rep(cases, rep_trace, tmpdir)
                rep["setup_s"], rep["digest"] = statistics.median(setups), digests[0]
            else:
                rep = library_rep(workload, seed, int(rep_trace))
            rep["traced"] = rep_trace
            rep["elapsed_s"] = perf_counter() - t0
            reps.append(rep)
            elapsed = perf_counter() - t_start
            estimate = max(r["elapsed_s"] for r in reps[-2:])
            if len(reps) >= MIN_REPS and elapsed + estimate > seconds:
                break
    if len({r["digest"] for r in reps}) != 1:
        raise BenchError("repetitions of one run saw different inputs")
    return reps


def quantile(values, q):
    """Inclusive quantile: interpolates between the observed values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def end_to_end(reps):
    plain = [r for r in reps if not r["traced"]]
    latencies = [x for r in plain for x in r["latencies_ms"]]
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
        "op_p50_ms": (quantile(latencies, 50), "ms"),
        "op_p90_ms": (quantile(latencies, 90), "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(reps):
    """Every per-layer figure the traced repetitions give: calls and median
    self seconds of every traced function, median self seconds of every
    module's traced functions together, items yielded, cache hits and
    misses, the import time and the tracing overhead."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    first = traced[0]["trace"]
    metrics = {}
    for name, layer in first["layers"].items():
        metrics[f"{name}.calls"] = (layer["calls"], "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(r["trace"]["layers"][name]["self_s"] for r in traced), "s")
    for module in dict.fromkeys(name.split(".")[0] for name in first["layers"]):
        metrics[f"{module}.self_s"] = (statistics.median(
            sum(layer["self_s"] for name, layer in r["trace"]["layers"].items()
                if name.split(".")[0] == module) for r in traced), "s")
    metrics["oracle.enumerate_subspaces.items"] = (first["items"], "count")
    for name, cache in first["caches"].items():
        metrics[f"{name}.cache_hits"] = (cache["hits"], "count")
        metrics[f"{name}.cache_misses"] = (cache["misses"], "count")
    metrics["cli.import_s"] = (statistics.median(r["import_s"] for r in traced), "s")
    overhead = (statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain) - 1)
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    return metrics


def manifest_metrics(metrics, kind):
    """The metrics BENCHMARK.json lists under ``kind``, each in its unit; a
    run that cannot give one of them prints no result."""
    chosen = {}
    for m in spec()[kind]:
        if m["name"] not in metrics:
            raise BenchError(f"this run gives no {kind} metric {m['name']}")
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']} is in {unit}, BENCHMARK.json says {m['unit']}")
        chosen[m["name"]] = (value, unit)
    return chosen


def result_line(reps, metrics):
    attempted = sum(len(r["latencies_ms"]) for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def print_table(workload, reps, metrics, out=sys.stdout):
    result = result_line(reps, metrics)
    out.write(f"# {workload}: {len(reps)} repetitions, {result['attempted']} "
              f"operations, {result['failed']} failed "
              f"(failed_frac {result['failed'] / result['attempted']:.4f})\n")
    for r in reps:
        for e in r["errors"]:
            out.write(f"#   FAILED {e}\n")
    for name, (value, unit) in metrics.items():
        out.write(f"{name:48s} {value:14.6g} {unit}\n")


def one_run(args):
    reps = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        table = layer_metrics(reps)
        metrics = manifest_metrics(table, "per_layer")
        # BENCHMARK.json lists self seconds only of the functions and modules
        # that every workload reaches, as a time that reads 0 on every run is
        # no measurement; the table adds the others this workload reaches
        table = {k: v for k, v in table.items() if v[0] or k in metrics}
    else:
        table = metrics = manifest_metrics(end_to_end(reps), "end_to_end")
    print_table(args.workload, reps, table)
    sys.stdout.write(json.dumps(result_line(reps, metrics)) + "\n")


# ---------------------------------------------------------------------------
# result sets: record, compare, self-check
# ---------------------------------------------------------------------------

def spec():
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def bounds():
    return {m["name"]: m for m in spec()["end_to_end"]}


def run_child(workload, seed, seconds):
    """One untraced run in its own process, as the contract runs it."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out, code, _ = spawn(argv, timeout=RUN_TIMEOUT_S)
    if code != 0:
        raise BenchError(f"run of {workload} seed {seed} exited with {code}")
    return json.loads(out.decode().splitlines()[-1])


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def top_layers(layers, window_s, key, k=8):
    """The k functions with the largest share of the traced window."""
    shares = {name: 100 * layer[key] / window_s for name, layer in layers.items()}
    return [(n, round(v, 2)) for n, v in sorted(shares.items(), key=lambda kv: -kv[1])[:k]]


def record(args):
    result = {"git_sha": git_sha(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "platform": platform.platform(),
              "date": strftime("%Y-%m-%d"), "seconds": args.seconds,
              "first_seed": args.seed, "workloads": {}}
    for w in WORKLOADS:
        runs = [run_child(w, args.seed + i, args.seconds) for i in range(RECORD_RUNS)]
        reps = run_workload(w, args.seed, args.seconds, 1)
        entry = {"runs": runs,
                 "traced": result_line(reps, manifest_metrics(layer_metrics(reps), "per_layer")),
                 # calls, self and inclusive seconds of the first traced repetition
                 "trace_detail": {k: reps[0]["trace"][k] for k in ("layers", "window_s")}}
        result["workloads"][w] = entry
        print_summary(w, entry)
    Path(args.record).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


def print_summary(workload, entry):
    runs = entry["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"# {workload}: {len(runs)} runs, {attempted} operations, failed_frac "
          f"{failed / attempted:.4f}")
    limits = bounds()
    for name in limits:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        print(f"  {name:14s} median {statistics.median(values):12.6g} {unit:4s} "
              f"spread {spread(values):7.4f}  (bound {limits[name]['bound']})")
    overhead = entry["traced"]["metrics"]["trace.overhead_pct"]["value"]
    detail = entry["trace_detail"]
    print(f"  tracing overhead {overhead:.1f}%")
    for key in ("self_s", "incl_s"):
        top = top_layers(detail["layers"], detail["window_s"], key)
        print(f"  top {key} %: " + ", ".join(f"{n} {v}" for n, v in top))


def compare(args):
    base = json.loads(Path(args.compare[0]).read_text(encoding="utf-8"))
    new = json.loads(Path(args.compare[1]).read_text(encoding="utf-8"))
    limits = bounds()
    print(f"base {base['git_sha'][:12]}  new {new['git_sha'][:12]}")
    print(f"{'workload':15s} {'metric':12s} {'base':>12s} {'new':>12s} {'ratio':>7s}  verdict")
    for w in base["workloads"]:
        if w not in new["workloads"]:
            print(f"{w:15s} missing from the new result set")
            continue
        for name, spec in limits.items():
            a = [r["metrics"][name]["value"] for r in base["workloads"][w]["runs"]]
            b = [r["metrics"][name]["value"] for r in new["workloads"][w]["runs"]]
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = mb / ma
            print(f"{w:15s} {name:12s} {ma:12.6g} {mb:12.6g} {ratio:7.3f}  "
                  f"{verdict(a, b, spec)}")


def verdict(a, b, spec):
    """'worse' when the new median is worse by more than the bound; 'better'
    when it is better by more than the bound; 'unresolved' when either
    spread exceeds the bound, unless every new run beats every base run."""
    lower = spec["better"] == "lower"
    ratio = statistics.median(b) / statistics.median(a)
    gain = (1 / ratio if lower else ratio) - 1
    if max(spread(a), spread(b)) > spec["bound"]:
        beats = max(b) < min(a) if lower else min(b) > max(a)
        return "better (every run)" if beats else "unresolved"
    if gain < -spec["bound"]:
        return "worse"
    return "better" if gain > spec["bound"] else "within bound"


def self_check(args):
    """Same seed: same input digest and same traced call counts; another
    seed: another digest.  Uses single traced repetitions."""
    preflight()
    ok = True
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for w in WORKLOADS:
            if w == "cli-golden":
                cases, digest = cli_setup(args.seed)
                reps = [cli_rep(cases, 1, tmp) for _ in range(2)]
                digests = [digest, cli_setup(args.seed)[1], cli_setup(args.seed + 1)[1]]
            else:
                reps = [library_rep(w, args.seed, 1) for _ in range(2)]
                digests = ([r["digest"] for r in reps]
                           + [library_rep(w, args.seed + 1, 0)["digest"]])
            calls = [{n: layer["calls"] for n, layer in r["trace"]["layers"].items()}
                     for r in reps]
            diff = sorted(n for n in calls[0] if calls[0][n] != calls[1][n])
            same = digests[0] == digests[1] and not diff
            differs = digests[2] != digests[0]
            ok = ok and same and differs
            print(f"{w:15s} same seed: digest {'=' if digests[0] == digests[1] else '!='}, "
                  f"calls {'identical' if not diff else 'differ in ' + ', '.join(diff)}; "
                  f"next seed: digest {'differs' if differs else 'IDENTICAL'}")
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="length of one run; run_seconds of BENCHMARK.json by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="OUT.json")
    parser.add_argument("--compare", nargs=2, metavar=("BASE.json", "NEW.json"))
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = spec()["run_seconds"]
        if args.compare:
            compare(args)
        elif args.record:
            record(args)
        elif args.self_check:
            return self_check(args)
        elif args.workload:
            one_run(args)
        else:
            parser.error("give --workload, --record, --compare or --self-check")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
