"""The ``novikov`` CLI under the tracer.

``python perfbench/cli_shim.py OUT.json <cli arguments>`` imports
``novikov.cli``, installs the tracer, calls ``novikov.cli.main`` with the
arguments and writes the trace summary to OUT.json.  Standard output is the
CLI's own, so it can still be compared with the golden bytes.
"""

import json
import sys
from time import perf_counter


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import novikov.cli
    import_s = perf_counter() - t0
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    code = novikov.cli.main(argv)
    summary = tracer.summary()
    summary["import_s"] = import_s
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
