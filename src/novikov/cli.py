"""Command line interface: parse an algebra file, run one analysis, emit a
deterministic report.

Reports are JSON with sorted keys and exact coefficient strings, so equal
inputs produce byte-identical output.  Exit codes: 0 success, 1 analysis
precondition failure or an option value out of range (``INVALID_OPTION``:
a thread count below one, a ``NOVIKOV_ORACLE_BUDGET`` that is not an
integer or is below one), 2 parse error or an unreadable input file (``READ_ERROR``), 3
internal error (a broken invariant, reported as ``INTERNAL_ERROR`` rather
than a traceback); a reader that closes the output pipe early ends the
report without one.  Under ``--json`` each of these errors is a coded
report on stdout.  The oracle point budget can be overridden with the
``NOVIKOV_ORACLE_BUDGET`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .constructions import gd_construct
from .core import verify_identity
from .dsl import (AlgebraDoc, ParseError, _check_digits, parse_algebra_source,
                  parse_element_combo, serialize_algebra_doc)
from .errors import WorkbenchError
from .exactlin import Subspace
from .ideals import chain, classify, ideal_closure
from .oracle import (DEFAULT_BUDGET, bruteforce_baer_tower, bruteforce_nilpotents,
                     quotient_intersection)
from .radicals import (baer_radical, bound_certificates, lqr_radical,
                       quasi_inverse_lift, quasiregular_solve)

ENV_BUDGET = "NOVIKOV_ORACLE_BUDGET"


# ---------------------------------------------------------------------------
# rendering helpers (everything lands in JSON-ready structures)
# ---------------------------------------------------------------------------

def _vec(field, v):
    return [field.fmt(a) for a in v]


def _subspace(S):
    return {"ambient_dim": S.ambient_dim, "dim": S.dim,
            "basis": [_vec(S.field, r) for r in S.rows]}


def _identity_report(A, rep):
    out = {"ok": rep.ok}
    if rep.failure is not None:
        out["failure"] = {
            "law": rep.failure.law,
            "indices": list(rep.failure.indices),
            "lhs": _vec(A.field, rep.failure.lhs),
            "rhs": _vec(A.field, rep.failure.rhs),
        }
    return out


def _classify(report):
    return {key: ({"holds": idx is not None}
                  | ({"index": idx} if idx is not None else {}))
            for key, idx in report.as_dict().items()}


def _certificate(A, cert):
    F = A.field

    def render(value):
        if isinstance(value, Subspace):
            return _subspace(value)
        if type(value) is tuple:
            return _vec(F, value)
        if isinstance(value, tuple):
            raise TypeError(f"certificate data holds a {type(value).__name__} record")
        if isinstance(value, list):
            return [render(v) for v in value]
        if isinstance(value, dict):
            return {k: render(v) for k, v in value.items()}
        return value

    return {"claim": cert.claim, "data": {k: render(v) for k, v in cert.data.items()}}


# ---------------------------------------------------------------------------
# command implementations: each returns its own fields of the report
# ---------------------------------------------------------------------------

def _cmd_check(A, maps, options):
    checks = {kind: _identity_report(A, verify_identity(A, kind))
              for kind in ("novikov", "eq1", "associative", "commutative")}
    leibniz = {name: {"leibniz": _identity_report(A, verify_identity(A, "leibniz", derivation=d))}
               for name, d in sorted(maps.items())}
    return {"checks": checks, "maps": leibniz}


def _cmd_series(A, maps, options):
    rep = chain(A, options["kind"])
    return {"kind": options["kind"], "terms": [_subspace(t) for t in rep.terms],
            "stabilized": rep.stabilized, "index": rep.index,
            "route": f"successive {options['kind']} terms until zero or a fixed point"}


def _cmd_radical(A, maps, options):
    report = baer_radical(A) if options["kind"] == "baer" else lqr_radical(A)
    return {"kind": options["kind"], "radical": _subspace(report.radical),
            "route": report.route, "classify": _classify(classify(A)),
            "witnesses": [_certificate(A, c) for c in report.witnesses]}


def _cmd_quasi_inverse(A, maps, options):
    x = parse_element_combo(options["element"], A)
    y = quasiregular_solve(A, x, side=options["side"])
    out = {"element": _vec(A.field, x), "side": options["side"],
           "quasiregular": y is not None,
           "solution": None if y is None else _vec(A.field, y),
           "route": "linear solve against the multiplication operator"}
    if options.get("lift"):
        if options["side"] != "left":
            raise WorkbenchError("lifting applies to the left side only")
        lifted = quasi_inverse_lift(A, x)
        if lifted is None:
            out["lift"] = None
        else:
            ylift, cert = lifted
            out["lift"] = {"solution": _vec(A.field, ylift),
                           "certificate": _certificate(A, cert)}
        out["route"] += "; lift through the commutative quotient"
    return out


def _cmd_gd(A, maps, options):
    name = options["derivation"]
    if name not in maps:
        raise WorkbenchError(f"no map named {name!r} in the input")
    result = gd_construct(A, maps[name])
    return {
        "derivation": name,
        "algebra_source": serialize_algebra_doc(AlgebraDoc(result, {})),
        "checks": {kind: _identity_report(result, verify_identity(result, kind))
                   for kind in ("novikov", "eq1")},
        "route": "product x . y = x d(y) on the commutative input",
    }


def _cmd_certify(A, maps, options):
    x = parse_element_combo(options["element"], A)
    ideal = None
    if options.get("ideal"):
        gens = [parse_element_combo(g, A) for g in options["ideal"]]
        ideal = ideal_closure(A, Subspace.span(A.field, gens, A.dim))
    cert = bound_certificates(A, x, options["n"], ideal=ideal, claim=options["claim"])
    return {"claim": options["claim"], "n": options["n"],
            "certificate": _certificate(A, cert),
            "route": ("ideal generated by the supplied combinations"
                      if ideal is not None else "element powers only")}


def _cmd_oracle(A, maps, options):
    budget = options.get("budget")
    out = {"task": options["task"], "budget": DEFAULT_BUDGET if budget is None else budget}
    if options["task"] == "tower":
        tower, radical = bruteforce_baer_tower(A, budget)
        out["tower"] = [_subspace(t) for t in tower]
        out["radical"] = _subspace(radical)
        out["route"] = "sum of all trivial ideals, iterated through quotients"
    elif options["task"] == "nilpotents":
        nil = bruteforce_nilpotents(A, budget)
        out["count"] = len(nil)
        out["elements"] = [_vec(A.field, v) for v in nil]
        out["route"] = "direct power iteration over every point"
    else:
        kind = options.get("kind")
        if kind not in ("domain", "field"):
            raise WorkbenchError("intersection task needs --kind domain|field")
        out["kind"] = kind
        out["intersection"] = _subspace(quotient_intersection(A, kind, budget))
        out["route"] = f"intersection of ideals with {kind} quotient"
    return out


_COMMANDS = {
    "check": _cmd_check,
    "series": _cmd_series,
    "radical": _cmd_radical,
    "quasi-inverse": _cmd_quasi_inverse,
    "gd": _cmd_gd,
    "certify": _cmd_certify,
    "oracle": _cmd_oracle,
}


def run_report(doc, command, options=None):
    """Run one command against a parsed document; returns (JSON text, exit code)."""
    A = doc.algebra
    payload = {"version": __version__, "command": command, "field": A.field.spec_string(),
               "algebra": {"dim": A.dim, "basis": list(A.basis_names)}}
    try:
        payload.update(_COMMANDS[command](A, doc.maps, options or {}))
        code = 0
    except WorkbenchError as exc:
        payload["error"] = {"code": exc.code, "message": str(exc)}
        code = 1
    except ParseError as exc:  # malformed element/ideal combination options
        payload["error"] = {"code": "PARSE_ERROR", "message": exc.message,
                            "line": exc.line, "col": exc.col}
        code = 2
    except RuntimeError as exc:  # an internal invariant failed
        payload["error"] = {"code": "INTERNAL_ERROR", "message": str(exc)}
        code = 3
    return json.dumps(payload, sort_keys=True, indent=2) + "\n", code


def _render_human(payload, out):
    def walk(value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            for k in sorted(value):
                v = value[k]
                if isinstance(v, (dict, list)):
                    out.write(f"{pad}{k}:\n")
                    walk(v, indent + 1)
                else:
                    out.write(f"{pad}{k}: {v}\n")
        elif isinstance(value, list):
            for v in value:
                if isinstance(v, (dict, list)):
                    walk(v, indent)
                    out.write("\n")
                else:
                    out.write(f"{pad}- {v}\n")
        else:
            out.write(f"{pad}{value}\n")

    walk(payload, 0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="novikov",
        description="Exact analysis of finite-dimensional Novikov algebras "
                    "defined by structure constants.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("path", help="algebra definition file")
        p.add_argument("--json", action="store_true",
                       help="emit the machine-readable JSON report")
        p.add_argument("--threads", default="1",
                       help="worker hint; analysis is deterministic regardless")

    common(sub.add_parser("check", help="run the identity suite"))

    p = sub.add_parser("series", help="power/series chains")
    common(p)
    p.add_argument("--kind", required=True,
                   choices=["right", "derived", "lie", "full"])

    p = sub.add_parser("radical", help="radical computation")
    common(p)
    p.add_argument("--kind", required=True, choices=["baer", "lqr"])

    p = sub.add_parser("quasi-inverse", help="solve x + y = yx or x + y = xy")
    common(p)
    p.add_argument("--element", required=True)
    p.add_argument("--side", required=True, choices=["left", "right"])
    p.add_argument("--lift", action="store_true",
                   help="also lift through the commutative quotient")

    p = sub.add_parser("gd", help="build the derived Novikov product")
    common(p)
    p.add_argument("--derivation", required=True, help="named map from the file")

    p = sub.add_parser("certify", help="power-bound certificates")
    common(p)
    p.add_argument("--claim", required=True,
                   choices=["lemma1", "lemma3", "theorem1"])
    p.add_argument("--element", required=True)
    p.add_argument("--ideal", action="append",
                   help="generator combination; may repeat")
    p.add_argument("--n", required=True)

    p = sub.add_parser("oracle", help="brute-force ground truth (prime fields)")
    common(p)
    p.add_argument("--task", required=True,
                   choices=["tower", "nilpotents", "intersection"])
    p.add_argument("--kind", choices=["domain", "field"],
                   help="quotient kind for the intersection task")

    return parser


def _to_stdout(write, *args):
    """Call ``write(*args)`` and flush stdout.  A reader that closed the pipe
    early wants no more of the report, so a broken pipe ends the writing
    quietly; stdout is then pointed at os.devnull, so the flush at exit
    cannot raise again, and the caller returns its own exit code."""
    try:
        write(*args)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _int_option(name, text):
    """The integer value of option ``--name``.  argparse would echo a bad
    value whole, so a value that is not an integer, or is too long for
    Python to parse, is a :class:`ParseError` naming only its head."""
    try:
        _check_digits(text, 1, 1)
        return int(text)
    except ParseError as exc:
        raise ParseError(f"--{name}: {exc.message}", 1, 1) from None
    except ValueError:
        raise ParseError(f"--{name} needs an integer, not {text[:12]!r}", 1, 1) from None


def _early_error(args, exit_code, code, message, text=None, **fields):
    """Report an error found before any analysis runs and return its exit
    code: under ``--json`` the record ``{"version", "error": {"code",
    "message", **fields}}`` on stdout, otherwise ``text`` (by default the
    message) on stderr."""
    if args.json:
        payload = {"version": __version__,
                   "error": {"code": code, "message": message, **fields}}
        _to_stdout(sys.stdout.write, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        print(message if text is None else text, file=sys.stderr)
    return exit_code


def _parse_error(args, exc):
    """Report a parse error; exit code 2."""
    return _early_error(args, 2, "PARSE_ERROR", exc.message, f"parse error: {exc}",
                        line=exc.line, col=exc.col)


def _double_dash(value):
    """The option value as given: argparse reads the value ``--`` (as in
    ``--element=--``) as an empty list, so that text is put back, for the
    option's own parser to reject."""
    if value == []:
        return "--"
    if isinstance(value, list):
        return [_double_dash(v) for v in value]
    return value


def main(argv=None):
    args = build_parser().parse_args(argv)
    for name, value in list(vars(args).items()):
        setattr(args, name, _double_dash(value))
    try:
        args.threads = _int_option("threads", args.threads)
        if args.command == "certify":
            args.n = _int_option("n", args.n)
    except ParseError as exc:
        return _parse_error(args, exc)
    if args.threads < 1:
        return _early_error(args, 1, "INVALID_OPTION", "thread count must be positive")
    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return _early_error(args, 2, "READ_ERROR", f"cannot read {args.path}: {exc}")
    try:
        doc = parse_algebra_source(text)
    except ParseError as exc:
        return _parse_error(args, exc)

    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "path", "json", "threads")}
    if args.command == "oracle":
        env = os.environ.get(ENV_BUDGET)
        if env is not None:
            try:
                options["budget"] = int(env)
            except ValueError:
                return _early_error(args, 1, "INVALID_OPTION", f"{ENV_BUDGET} must be an integer")
            if options["budget"] < 1:
                return _early_error(args, 1, "INVALID_OPTION", f"{ENV_BUDGET} must be positive")
    text_out, code = run_report(doc, args.command, options)
    if args.json:
        _to_stdout(sys.stdout.write, text_out)
    else:
        _to_stdout(_render_human, json.loads(text_out), sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
