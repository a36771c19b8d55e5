import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from novikov import __version__, errors
from novikov.cli import main, run_report
from novikov.dsl import parse_algebra_source, serialize_algebra_doc

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from regen_goldens import GOLDEN, GOLDEN_RUNS, generated_inputs, golden_name  # noqa: E402


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def fixture_path(name):
    return str(GOLDEN / f"{name}.alg")


def cli_process(*argv, timeout, stdout=subprocess.PIPE):
    """The CLI run as its own process on this checkout's sources; stderr is
    captured, and so is stdout unless another target is given."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "novikov.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=timeout, env=env)


# ---------------------------------------------------------------------------
# golden files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture,argv", GOLDEN_RUNS,
                         ids=[golden_name(f, a) for f, a in GOLDEN_RUNS])
def test_golden_output_byte_exact(fixture, argv, capsys):
    expected = (GOLDEN / golden_name(fixture, argv)).read_bytes()
    code, out = run_cli(argv[:1] + [fixture_path(fixture)] + argv[1:] + ["--json"],
                        capsys)
    assert code == 0
    assert out.encode() == expected


@pytest.mark.parametrize("fixture,argv", GOLDEN_RUNS[:6],
                         ids=[golden_name(f, a) for f, a in GOLDEN_RUNS[:6]])
def test_repeat_runs_identical(fixture, argv, capsys):
    base = argv[:1] + [fixture_path(fixture)] + argv[1:] + ["--json"]
    _, first = run_cli(base, capsys)
    _, second = run_cli(base, capsys)
    assert first == second


def test_output_independent_of_thread_setting(capsys):
    base = ["radical", fixture_path("a2"), "--kind", "baer", "--json"]
    _, one = run_cli(base + ["--threads", "1"], capsys)
    _, four = run_cli(base + ["--threads", "4"], capsys)
    assert one == four


def test_goldens_parse_roundtrip():
    for name in ("a2", "tpoly4", "tpoly3u", "ex1k2", "ex1k3", "gf3_a2"):
        text = (GOLDEN / f"{name}.alg").read_text(encoding="utf-8")
        doc = parse_algebra_source(text)
        assert parse_algebra_source(serialize_algebra_doc(doc)) == doc


def test_generated_inputs_match_the_committed_files():
    generated = generated_inputs()
    assert sorted(generated) == ["ex1k2.alg", "ex1k3.alg", "tpoly4.alg"]
    for name, text in generated.items():
        assert (GOLDEN / name).read_bytes() == text.encode(), name


def test_the_golden_runs_are_the_benchmarks_one_list():
    import regen_goldens
    import run  # perfbench/run.py, on the path that regen_goldens sets

    assert Path(run.__file__).resolve() == GOLDEN.parents[1] / "perfbench" / "run.py"
    assert regen_goldens.GOLDEN_RUNS is run.GOLDEN_RUNS
    assert regen_goldens.golden_name is run.golden_name
    assert len(GOLDEN_RUNS) == 18


# ---------------------------------------------------------------------------
# exit codes and error payloads
# ---------------------------------------------------------------------------

def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("field rational\nbasis e1\nmul e1 e9 = e1\n")
    code, out = run_cli(["check", str(bad), "--json"], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["code"] == "PARSE_ERROR"
    assert payload["error"]["line"] == 3


def test_missing_file_exit_code(capsys):
    code = main(["check", "/nonexistent/path.alg", "--json"])
    assert code == 2


def test_char_two_radical_error(tmp_path, capsys):
    src = tmp_path / "gf2.alg"
    src.write_text("field gf 2\nbasis e1 e2\nmul e1 e1 = e2\n")
    code, out = run_cli(["radical", str(src), "--kind", "baer", "--json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "CHAR_TWO_UNSUPPORTED"


def test_budget_exceeded_via_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NOVIKOV_ORACLE_BUDGET", "2")
    code, out = run_cli(["oracle", fixture_path("gf3_a2"), "--task", "tower",
                         "--json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "BUDGET_EXCEEDED"


def test_oracle_rejects_rational_field(capsys):
    code, out = run_cli(["oracle", fixture_path("a2"), "--task", "nilpotents",
                         "--json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "ANALYSIS_ERROR"


def test_intersection_requires_kind(capsys):
    code, out = run_cli(["oracle", fixture_path("gf3_a2"), "--task",
                         "intersection", "--json"], capsys)
    assert code == 1


def test_bad_element_option_is_parse_error(capsys):
    code, out = run_cli(["quasi-inverse", fixture_path("a2"),
                         "--element", "e9", "--side", "left", "--json"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "PARSE_ERROR"


def test_lift_requires_left_side(capsys):
    code, out = run_cli(["quasi-inverse", fixture_path("a2"), "--element", "e1",
                         "--side", "right", "--lift", "--json"], capsys)
    assert code == 1


def test_unknown_derivation_name(capsys):
    code, out = run_cli(["gd", fixture_path("a2"), "--derivation", "nope",
                         "--json"], capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# payload contents
# ---------------------------------------------------------------------------

def test_check_reports_all_identities(capsys):
    code, out = run_cli(["check", fixture_path("a2"), "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == __version__
    assert payload["field"] == "rational"
    for kind in ("novikov", "eq1", "associative", "commutative"):
        assert payload["checks"][kind]["ok"]


def test_radical_route_mentions_quotient(capsys):
    _, out = run_cli(["radical", fixture_path("a2"), "--kind", "baer", "--json"],
                     capsys)
    payload = json.loads(out)
    assert "A/[A,A] nilradical preimage" in payload["route"]
    assert payload["radical"]["dim"] == 2


def test_identity_failure_is_a_result_not_an_error(tmp_path, capsys):
    src = tmp_path / "nonassoc.alg"
    src.write_text("field rational\nbasis a b\nmul a a = b\nmul a b = a\n")
    code, out = run_cli(["check", str(src), "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]["novikov"]["ok"] is False
    assert payload["checks"]["novikov"]["failure"]["indices"] == [0, 0, 1]


def test_map_failing_product_rule_is_a_result(tmp_path, capsys):
    src = tmp_path / "badmap.alg"
    src.write_text("field rational\nbasis a b\nmul a a = b\nmap d a = a\n")
    code, out = run_cli(["check", str(src), "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["maps"]["d"]["leibniz"]["ok"] is False


def test_nonpositive_thread_count_rejected(capsys):
    code = main(["check", fixture_path("a2"), "--threads", "0"])
    assert code == 1
    assert capsys.readouterr() == ("", "thread count must be positive\n")
    code = main(["check", fixture_path("a2"), "--threads", "0", "--json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert json.loads(out) == {"version": __version__, "error": {
        "code": "INVALID_OPTION", "message": "thread count must be positive"}}


@pytest.mark.parametrize("case", ["unreadable", "budget"])
def test_early_exits_give_a_coded_json_report(case, tmp_path, capsys, monkeypatch):
    if case == "unreadable":
        path = str(tmp_path / "missing.alg")
        code_name, exit_code = "READ_ERROR", 2
        argv = ["check", path]
        text = f"cannot read {path}: "
    else:
        monkeypatch.setenv("NOVIKOV_ORACLE_BUDGET", "lots")
        code_name, exit_code = "INVALID_OPTION", 1
        argv = ["oracle", fixture_path("gf3_a2"), "--task", "tower"]
        text = "NOVIKOV_ORACLE_BUDGET must be an integer"
    assert main(argv) == exit_code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(text)
    assert main(argv + ["--json"]) == exit_code
    out, err = capsys.readouterr()
    assert err == ""
    payload = json.loads(out)
    assert set(payload) == {"version", "error"} and set(payload["error"]) == {"code", "message"}
    assert payload["error"]["code"] == code_name
    assert payload["error"]["message"].startswith(text)


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_an_oracle_budget_below_one_is_an_invalid_option(budget, capsys, monkeypatch):
    monkeypatch.setenv("NOVIKOV_ORACLE_BUDGET", budget)
    argv = ["oracle", fixture_path("gf3_a2"), "--task", "tower"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "NOVIKOV_ORACLE_BUDGET must be positive\n")
    assert main(argv + ["--json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {"version": __version__, "error": {
        "code": "INVALID_OPTION", "message": "NOVIKOV_ORACLE_BUDGET must be positive"}}


def test_field_algebra_radical_is_zero(tmp_path, capsys):
    src = tmp_path / "field.alg"
    src.write_text("field rational\nbasis e\nmul e e = e\n")
    code, out = run_cli(["radical", str(src), "--kind", "baer", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["radical"]["dim"] == 0


def test_lqr_route_mentions_coincidence(capsys):
    _, out = run_cli(["radical", fixture_path("tpoly3u"), "--kind", "lqr",
                      "--json"], capsys)
    payload = json.loads(out)
    assert "finite-dimensional coincidence" in payload["route"]
    assert payload["radical"]["dim"] == 2


def test_quasi_inverse_payload(capsys):
    _, out = run_cli(["quasi-inverse", fixture_path("tpoly4"), "--element", "t",
                      "--side", "left", "--lift", "--json"], capsys)
    payload = json.loads(out)
    assert payload["quasiregular"] is True
    assert payload["solution"] == ["-1", "-1", "-1"]
    assert payload["lift"]["solution"] == payload["solution"]


def test_gd_payload_is_reusable_source(capsys, tmp_path):
    _, out = run_cli(["gd", fixture_path("tpoly4"), "--derivation", "euler",
                      "--json"], capsys)
    payload = json.loads(out)
    assert payload["checks"]["novikov"]["ok"]
    derived = tmp_path / "derived.alg"
    derived.write_text(payload["algebra_source"], encoding="utf-8")
    code, out2 = run_cli(["check", str(derived), "--json"], capsys)
    assert code == 0
    assert json.loads(out2)["checks"]["novikov"]["ok"]


def test_series_payload(capsys):
    _, out = run_cli(["series", fixture_path("a2"), "--kind", "right", "--json"],
                     capsys)
    payload = json.loads(out)
    assert payload["index"] == 3
    assert [t["dim"] for t in payload["terms"]] == [2, 1, 0]


def test_human_readable_mode(capsys):
    code, out = run_cli(["check", fixture_path("a2")], capsys)
    assert code == 0
    assert "novikov" in out
    assert not out.lstrip().startswith("{")


def test_run_report_direct():
    doc = parse_algebra_source((GOLDEN / "a2.alg").read_text(encoding="utf-8"))
    text, code = run_report(doc, "series", {"kind": "derived"})
    assert code == 0
    payload = json.loads(text)
    assert payload["command"] == "series"
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_certify_huge_exponent_finishes():
    # the powers of t vanish at t^4, so exponents near 10^8 cost nothing
    proc = cli_process("certify", fixture_path("tpoly4"), "--claim", "theorem1",
                       "--element", "t", "--ideal", "t2", "--n", "100000000",
                       "--json", timeout=10)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)["certificate"]["data"]
    assert data["holds"] is True
    assert data["s_sequence"] == [100000000, 200000002]


def test_certify_huge_exponent_of_a_non_nilpotent_element_is_refused():
    # every power of the unit is the unit, so no power ever vanishes and the
    # walk would run to 10^8; past x^(dim+1) the exponent budget refuses it
    proc = cli_process("certify", fixture_path("tpoly3u"), "--claim", "theorem1",
                       "--element", "one", "--ideal", "one", "--n", "100000000",
                       "--json", timeout=10)
    assert proc.returncode == 1, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["code"] == "BUDGET_EXCEEDED"
    assert "not r-nilpotent" in error["message"]


def with_modulus(tmp_path, p):
    """gf3_a2.alg with its field declared as GF(p)."""
    path = tmp_path / f"gf{p}_a2.alg"
    text = (GOLDEN / "gf3_a2.alg").read_text(encoding="utf-8")
    path.write_text(text.replace("field gf 3\n", f"field gf {p}\n"), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", [["check"], ["radical", "--kind", "baer"]])
def test_a_61_bit_prime_field_runs_within_five_seconds(tmp_path, argv):
    # primality is decided by Miller-Rabin, and the nilradical's Frobenius
    # power x^p costs about 2 log2(p) products
    p = 2 ** 61 - 1
    proc = cli_process(argv[0], with_modulus(tmp_path, p), *argv[1:], "--json",
                       timeout=5)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["field"] == f"gf {p}"
    if argv[0] == "radical":
        assert "Frobenius kernel" in payload["route"]
        assert payload["radical"]["dim"] == 2


def test_a_modulus_over_the_primality_bound_is_a_coded_error(tmp_path, capsys):
    from novikov.exactlin import MODULUS_BOUND
    code, out = run_cli(["check", with_modulus(tmp_path, 2 ** 89 - 1), "--json"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "PARSE_ERROR"
    assert str(MODULUS_BOUND) in error["message"]
    assert (error["line"], error["col"]) == (1, 10)


LONG_NUMBER = "7" * 5000  # over the 4300-digit limit of Python 3.11 on parsing an int


@pytest.mark.parametrize("text,argv,where", [
    (f"field rational\nbasis e\nmul e e = {LONG_NUMBER}*e\n", ["check"], (3, 11)),
    (f"field gf {LONG_NUMBER}\nbasis e\n", ["check"], (1, 10)),
    ("field rational\nbasis e\n",
     ["certify", "--claim", "lemma1", "--element", f"{LONG_NUMBER}*e", "--n", "2"], (1, 1)),
], ids=["coefficient", "modulus", "element"])
def test_an_over_long_number_is_a_short_parse_error(tmp_path, capsys, text, argv, where):
    src = tmp_path / "long.alg"
    src.write_text(text, encoding="utf-8")
    code, out = run_cli(argv[:1] + [str(src)] + argv[1:] + ["--json"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "PARSE_ERROR"
    assert (error["line"], error["col"]) == where
    assert f"{sys.get_int_max_str_digits()}-digit limit" in error["message"]
    assert "5000 digits" in error["message"]
    assert len(error["message"]) < 200



@pytest.mark.parametrize("argv", [
    ["certify", fixture_path("tpoly4"), "--claim", "lemma1", "--element", "t",
     "--n", LONG_NUMBER],
    ["check", fixture_path("a2"), "--threads", LONG_NUMBER],
], ids=["n", "threads"])
def test_an_over_long_integer_option_is_a_short_parse_error(argv, capsys):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["code"] == "PARSE_ERROR"
    assert f"--{argv[-2][2:]}: " in error["message"]
    assert "5000 digits" in error["message"]
    assert len(error["message"]) < 200


@pytest.mark.parametrize("option", ["--n", "--threads"])
@pytest.mark.parametrize("value", ["two", "1.5", "7" * 300 + "x"],
                         ids=["word", "decimal", "long"])
def test_a_non_integer_option_is_a_parse_error(option, value, capsys):
    argv = ["certify", fixture_path("tpoly4"), "--claim", "lemma1", "--element", "t",
            "--n", "2", "--threads", "1", "--json"]
    argv[argv.index(option) + 1] = value
    code, out = run_cli(argv, capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error == {"code": "PARSE_ERROR", "line": 1, "col": 1,
                     "message": f"{option} needs an integer, not {value[:12]!r}"}
    code = main(argv[:-1])
    assert code == 2
    assert capsys.readouterr().err.startswith("parse error: ")


# ---------------------------------------------------------------------------
# fuzzing the document grammar through the CLI
# ---------------------------------------------------------------------------

FUZZ_NAMES = ("e1", "e2", "e3")
FUZZ_TOKENS = ("field", "rational", "gf", "basis", "mul", "map", "d", "=", "+", "-",
               "*", "0", "1", "2", "3", "5", "1/2", "-1", "#") + FUZZ_NAMES


FUZZ_FIELDS = ("field rational", "field gf 3", "field gf 5") * 3 + (
    "field gf 2", "field gf 4", "field gf")


@st.composite
def fuzz_documents(draw):
    """A document of grammar lines with, in half the draws, a few lines of
    random tokens or junk put among them."""
    basis = draw(st.lists(st.sampled_from(FUZZ_NAMES), min_size=1, max_size=3,
                          unique=True))
    names = st.sampled_from(basis)
    coeff = st.sampled_from(["", "", "2*", "3*", "0*", "1/2*"])
    combo = st.lists(st.tuples(st.sampled_from([" + ", " - "]), coeff, names),
                     min_size=1, max_size=3).map(lambda ts: "".join(map("".join, ts))[3:])
    products = draw(st.dictionaries(st.tuples(names, names), combo, max_size=6))
    maps = draw(st.dictionaries(names, combo, max_size=3))
    lines = [draw(st.sampled_from(FUZZ_FIELDS)), "basis " + " ".join(basis)]
    lines += [f"mul {a} {b} = {rhs}" for (a, b), rhs in products.items()]
    lines += [f"map d {a} = {rhs}" for a, rhs in maps.items()]
    if draw(st.booleans()):
        noise = st.one_of(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=7).map(" ".join),
                          st.text(alphabet="efgdm123/=+-*#\t x()", max_size=12))
        for text in draw(st.lists(noise, min_size=1, max_size=3)):
            lines.insert(draw(st.integers(0, len(lines))), text)
    return "\n".join(lines) + "\n"


FUZZ_COMMANDS = [
    ["check"],
    ["series", "--kind", "full"],
    ["radical", "--kind", "lqr"],
    ["quasi-inverse", "--element", "e1 + e2", "--side", "left", "--lift"],
    ["certify", "--claim", "theorem1", "--element", "e1", "--ideal", "e2", "--n", "2"],
    ["oracle", "--task", "tower"],
]


@settings(max_examples=150, deadline=None)
@given(fuzz_documents(), st.sampled_from(FUZZ_COMMANDS))
def test_fuzzed_documents_give_a_coded_report(tmp_path_factory, text, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.alg"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(command[:1] + [str(path)] + command[1:] + ["--json"])
    assert code in {0, 1, 2, 3}, err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# fuzzing option values through the CLI
# ---------------------------------------------------------------------------

OPTION_TOKENS = ("t", "t2", "t3", "t4", "e1", "+", "-", "*", "/", "0", "1", "2", "1/2",
                 "-1", "0/1", "1/0", "(", ")", "=", "#", " ", "7" * 40)
combinations = st.lists(
    st.tuples(st.sampled_from([" + ", " - "]), st.sampled_from(["", "", "2*", "0*", "1/2*"]),
              st.sampled_from(["t", "t2", "t3"])),
    min_size=1, max_size=3).map(lambda ts: "".join(map("".join, ts))[3:])
option_texts = st.one_of(
    combinations, combinations,
    st.lists(st.sampled_from(OPTION_TOKENS), max_size=6).map("".join),
    st.text(alphabet="t23e+-*/() 0x.#\t", max_size=10))
ERROR_CODES = {"PARSE_ERROR", "INVALID_OPTION", "READ_ERROR"} | {
    cls.code for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.WorkbenchError)}
exponents = st.one_of(st.integers(-3, 12).map(str), st.integers(-3, 12).map(str),
                      st.integers(2, 10 ** 12).map(str), option_texts)


@settings(max_examples=150, deadline=None)
@example("theorem1", "--", ["--"], "--", "1")  # argparse reads a value "--" as []
@example(None, "--", [], "2", "--")
@example("lemma1", "t", [], "2", "0")
@given(st.sampled_from(["lemma1", "lemma3", "theorem1", None]), option_texts,
       st.lists(option_texts, max_size=2), exponents,
       st.one_of(st.just("1"), exponents))
def test_fuzzed_option_values_give_a_coded_report(claim, element, ideal, n, threads):
    """``--element``, ``--ideal``, ``--n`` and ``--threads`` text through
    ``certify`` (or, for no claim, ``quasi-inverse --lift``) on the tpoly4
    fixture."""
    if claim is None:
        argv = ["quasi-inverse", fixture_path("tpoly4"), f"--element={element}",
                "--side", "left", "--lift"]
    else:
        argv = ["certify", fixture_path("tpoly4"), "--claim", claim,
                f"--element={element}", f"--n={n}"] + [f"--ideal={g}" for g in ideal]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + [f"--threads={threads}", "--json"])
    assert code in {0, 1, 2}, out.getvalue()
    assert err.getvalue() == ""
    payload = json.loads(out.getvalue())
    assert ("error" in payload) == (code != 0)
    if code:
        assert payload["error"]["code"] in ERROR_CODES, payload


@pytest.mark.parametrize("argv", [
    ["series", fixture_path("ex1k3"), "--kind", "full"],
    ["series", fixture_path("ex1k3"), "--kind", "full", "--json"],
    ["check", str(GOLDEN / "ex1k3_check.json"), "--json"],  # not a document
], ids=["human", "json", "json-parse-error"])
def test_a_closed_output_pipe_prints_no_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader left, so the child's first write fails with EPIPE
    try:
        proc = cli_process(*argv, timeout=30, stdout=write_end)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode in {0, 1, 2, 3}


def test_internal_error_is_a_coded_report(monkeypatch, capsys):
    from novikov import cli

    def broken(A, maps, options):
        raise RuntimeError("lifting failed to terminate")

    monkeypatch.setitem(cli._COMMANDS, "series", broken)
    code, out = run_cli(["series", fixture_path("a2"), "--kind", "right", "--json"],
                        capsys)
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == {"code": "INTERNAL_ERROR",
                                "message": "lifting failed to terminate"}
    assert payload["command"] == "series"
    code, out = run_cli(["series", fixture_path("a2"), "--kind", "right"], capsys)
    assert code == 3
    assert "INTERNAL_ERROR" in out
