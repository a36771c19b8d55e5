"""The package's records are named tuples, and importing it loads no
``dataclasses``.

- Every report and certificate record keeps its field order, positional
  and keyword construction, its ``Name(field=value, ...)`` repr, and the
  immutability of a frozen record.  ``AlgebraDoc`` holds its maps in a
  dict, so it is not hashable.
- A record is a tuple, but the CLI renders only a plain tuple in
  certificate data as a vector and refuses a record there; no certificate
  that a golden run renders holds a record.
- ``import novikov.cli`` in a fresh interpreter loads neither
  ``dataclasses`` nor the modules it pulls in, and does load every module
  that ``perfbench/tracer.py`` wraps, which reads them from ``sys.modules``
  right after that import.
"""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from test_oracle_independence import uses
from novikov import cli
from novikov.core import IdentityFailure, IdentityReport
from novikov.dsl import AlgebraDoc, parse_algebra_source
from novikov.ideals import ChainReport, ClassifyReport
from novikov.radicals import CLAIM_TAGS, Certificate, RadicalReport
from novikov.ratfunc import CaseReport

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "novikov"

sys.path.insert(0, str(ROOT / "scripts"))
from regen_goldens import GOLDEN, GOLDEN_RUNS  # noqa: E402

FROZEN = [
    (IdentityFailure, ("law", "indices", "lhs", "rhs")),
    (IdentityReport, ("kind", "ok", "failure")),
    (ChainReport, ("kind", "terms", "stabilized", "index")),
    (ClassifyReport, ("right_nilpotent", "solvable", "lie_solvable", "nilpotent")),
    (CaseReport, ("case", "num_degree", "den_degree", "predicted_coeff",
                  "predicted_exponent", "actual_coeff", "actual_exponent", "matches",
                  "residual_is_zero")),
]
RECORDS = FROZEN + [
    (Certificate, ("claim", "data")),
    (RadicalReport, ("kind", "radical", "route", "witnesses")),
    (AlgebraDoc, ("algebra", "maps")),
]


def sample_values(fields):
    return tuple({"n": i} if name in ("data", "maps") else (i, Fraction(1, i + 2))
                 for i, name in enumerate(fields))


@pytest.mark.parametrize("cls,fields", RECORDS, ids=lambda c: getattr(c, "__name__", ""))
def test_a_record_keeps_its_fields_construction_and_repr(cls, fields):
    assert cls._fields == fields
    values = sample_values(fields)
    rec = cls(*values)
    assert rec == cls(**dict(zip(fields, values)))
    assert tuple(getattr(rec, name) for name in fields) == values
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)) + ")"


@pytest.mark.parametrize("cls,fields", FROZEN, ids=lambda c: getattr(c, "__name__", ""))
def test_a_frozen_record_refuses_assignment(cls, fields):
    rec = cls(*sample_values(fields))
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = None
    assert hash(rec) == hash(cls(*sample_values(fields)))


def test_record_defaults_and_as_dict():
    assert IdentityReport("eq1", True).failure is None
    rep = ClassifyReport(3, None, 2, 4)
    assert list(rep.as_dict().items()) == [("right_nilpotent", 3), ("solvable", None),
                                           ("lie_solvable", 2), ("nilpotent", 4)]


def test_each_certificate_gets_its_own_data():
    a, b = Certificate("tower"), Certificate("tower")
    a.data["index"] = 2
    assert b.data == {} and a.data is not b.data
    data = {"n": 1}
    assert Certificate("lemma1", data).data is data


A2 = "field rational\nbasis e1 e2\nmul e1 e1 = e2\n"


def test_an_algebra_doc_compares_its_table_and_maps():
    doc = parse_algebra_source(A2)
    moved = parse_algebra_source("\n# the same products, one line lower\n" + A2)
    assert doc == moved and not doc != moved
    assert doc != parse_algebra_source(A2.replace("= e2", "= 2*e2"))
    assert doc != parse_algebra_source(A2 + "map d e1 = e2\n")
    assert AlgebraDoc(doc.algebra, {}) == doc
    with pytest.raises(TypeError):
        hash(doc)


@pytest.mark.parametrize("record", [
    IdentityReport("eq1", True),
    ChainReport("right", [], True, 2),
    Certificate("tower"),
])
def test_a_record_in_certificate_data_is_not_a_vector(record):
    A = parse_algebra_source(A2).algebra
    assert cli._certificate(A, Certificate("tower", {"v": (Fraction(1), Fraction(0))})) \
        == {"claim": "tower", "data": {"v": ["1", "0"]}}
    with pytest.raises(TypeError, match=type(record).__name__):
        cli._certificate(A, Certificate("tower", {"nested": [{"r": record}]}))


def test_certificate_data_holds_no_record(monkeypatch, capsys):
    """The tuple branch of ``cli._certificate`` renders vectors; walk every
    value it would reach in every golden run and find no record there."""
    reached, claims = [], set()
    render = cli._certificate

    def walk(value):
        if isinstance(value, tuple):
            reached.append(value)
            assert not hasattr(value, "_fields"), value
        elif isinstance(value, list):
            for v in value:
                walk(v)
        elif isinstance(value, dict):
            for v in value.values():
                walk(v)

    def checked(A, cert):
        claims.add(cert.claim)
        walk(cert.data)
        return render(A, cert)

    monkeypatch.setattr(cli, "_certificate", checked)
    for fixture, argv in GOLDEN_RUNS:
        assert cli.main(argv[:1] + [str(GOLDEN / f"{fixture}.alg")] + argv[1:]
                        + ["--json"]) == 0
    capsys.readouterr()
    assert claims == set(CLAIM_TAGS) and reached


def tracer_modules():
    """The modules named in ``perfbench/tracer.py``'s ``LAYERS``."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "LAYERS")
    return {f"novikov.{module}" for module, _ in layers}


STARTUP = ("import sys\nbefore = set(sys.modules)\nimport novikov.cli\n"
           "print(' '.join(sorted(set(sys.modules) - before)))\n")


def test_importing_the_cli_loads_no_dataclasses():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", STARTUP], capture_output=True,
                          text=True, timeout=60, env=env, check=True)
    added = set(proc.stdout.split())
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    modules = tracer_modules()
    assert len(modules) == 8 and modules <= added


def test_the_package_names_no_dataclasses():
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := uses(path.read_text(encoding="utf-8"),
                               {"dataclasses", "dataclass"}))}
    assert found == {}


@pytest.mark.parametrize("source,want", [
    ("from dataclasses import dataclass\n", [1]),
    ("import dataclasses\n", [1]),
    ("from dataclasses import field as dc_field\n", [1]),
    ("@dataclass(frozen=True)\nclass R:\n    x: int\n", [1]),
    ('"""not a dataclass"""\n# from dataclasses import dataclass\n', []),
])
def test_the_scan_finds_dataclasses(source, want):
    assert uses(source, {"dataclasses", "dataclass"}) == want
