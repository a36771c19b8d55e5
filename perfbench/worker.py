"""One repetition of a library workload, in a fresh interpreter.

``python perfbench/worker.py --workload NAME --seed N --trace 0|1`` builds
the inputs from the seed, performs the timed operations, checks their
answers and prints one JSON line.  Only the package's set-up (``setup_s``)
and the operations (``wall_s``) are timed; the benchmark's own draws,
references and checks run outside both.  ``run.py`` starts one worker per repetition, so no lru cache filled
by one repetition is seen by the next.
"""

import argparse
import json
import random
import sys
from time import perf_counter


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import novikov.cli  # noqa: F401  the whole package, as the CLI loads it
    import_s = perf_counter() - t0
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads  # after the timed import: it imports the package too

    w = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    drawn = w.draw(rng)
    t0 = perf_counter()
    inputs = w.setup(rng, drawn)
    setup_s = perf_counter() - t0
    plan, digest = w.prepare(rng, inputs)
    run = workloads.Run()
    t0 = perf_counter()
    w.perform(inputs, plan, run)
    wall_s = perf_counter() - t0
    trace = tracer.summary() if tracer is not None else None
    run.check()

    out = {"digest": digest, "import_s": import_s, "setup_s": setup_s,
           "wall_s": wall_s, "latencies_ms": run.latencies_ms,
           "failed": run.failed, "errors": run.errors}
    if trace is not None:
        out["trace"] = trace
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
