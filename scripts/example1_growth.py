#!/usr/bin/env python3
"""Right-nilpotency index growth for the square-free monomial truncations.

The k-variable truncation with the degree derivation gives a derived
product whose right-power chain vanishes only after k + 1 steps, so the
index grows without bound with k: the finite truncations witness that the
untruncated construction is not right-nilpotent.  Each derived algebra is
re-checked for the Novikov identities and eq1.

Each stage has its own seconds column: ``gd`` builds the truncation B and
its derived algebra (``gd_construct`` with ``check=False``), ``novikov``
and ``eq1`` are the two identity checks, and ``chain`` is the right-power
chain.  ``total`` is their sum, and the last column is the process's peak
resident set size so far, in MB.  ``--min-k`` runs the larger k alone, so
one k can be timed in a fresh process.

Usage: PYTHONPATH=src python scripts/example1_growth.py --max-k 8
"""

import argparse
import resource
import time

from novikov.constructions import example1_algebra, gd_construct
from novikov.core import verify_identity
from novikov.ideals import chain


def timed(f, *args):
    start = time.perf_counter()
    out = f(*args)
    return out, time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--min-k", type=int, default=1)
    parser.add_argument("--max-k", type=int, default=5)
    args = parser.parse_args()
    print(f"{'k':>3} {'dim':>5} {'novikov':>7} {'eq1':>5} {'right-nilpotency index':>24}"
          f" {'gd s':>7} {'novikov s':>9} {'eq1 s':>7} {'chain s':>8} {'total s':>8}"
          f" {'peak RSS MB':>12}")
    previous = 0
    for k in range(args.min_k, args.max_k + 1):
        A, gd_s = timed(lambda: gd_construct(*example1_algebra(k), check=False))
        novikov, novikov_s = timed(verify_identity, A, "novikov")
        eq1, eq1_s = timed(verify_identity, A, "eq1")
        right, chain_s = timed(chain, A, "right")
        index = right.index
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        marker = "strictly up" if index > previous else "NOT increasing!"
        laws = ["holds" if rep.ok else "FAILS" for rep in (novikov, eq1)]
        print(f"{k:>3} {A.dim:>5} {laws[0]:>7} {laws[1]:>5} {index:>24}"
              f" {gd_s:>7.2f} {novikov_s:>9.2f} {eq1_s:>7.2f} {chain_s:>8.2f}"
              f" {gd_s + novikov_s + eq1_s + chain_s:>8.2f} {rss_mb:>12.0f}"
              f"   {marker}", flush=True)
        previous = index


if __name__ == "__main__":
    main()
