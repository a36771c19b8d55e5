#!/usr/bin/env python3
"""Right-nilpotency index growth for the square-free monomial truncations.

The k-variable truncation with the degree derivation gives a derived
product whose right-power chain vanishes only after k + 1 steps, so the
index grows without bound with k: the finite truncations witness that the
untruncated construction is not right-nilpotent.  Each derived algebra is
re-checked for the Novikov identities and eq1.  The seconds column is the
wall time of construction, both checks and the chain; the last column is
the process's peak resident set size so far, in MB.

Usage: PYTHONPATH=src python scripts/example1_growth.py --max-k 8
"""

import argparse
import resource
import time

from novikov.constructions import example1_algebra, gd_construct
from novikov.core import verify_identity
from novikov.ideals import chain


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-k", type=int, default=5)
    args = parser.parse_args()
    print(f"{'k':>3} {'dim':>5} {'eq1':>5} {'right-nilpotency index':>24} {'seconds':>9}"
          f" {'peak RSS MB':>12}")
    previous = 0
    for k in range(1, args.max_k + 1):
        start = time.perf_counter()
        B, d = example1_algebra(k)
        A = gd_construct(B, d, check=True)
        eq1 = "holds" if verify_identity(A, "eq1").ok else "FAILS"
        index = chain(A, "right").index
        seconds = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        marker = "strictly up" if index > previous else "NOT increasing!"
        print(f"{k:>3} {A.dim:>5} {eq1:>5} {index:>24} {seconds:>9.2f} {rss_mb:>12.0f}"
              f"   {marker}", flush=True)
        previous = index


if __name__ == "__main__":
    main()
