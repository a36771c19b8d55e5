from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import a2
from novikov import GF, QQ, AlgebraTable, Matrix, verify_identity
from novikov.constructions import truncated_poly, weighted_euler_derivation
from novikov.errors import PreconditionError
from novikov.dsl import (AlgebraDoc, ParseError, parse_algebra_source,
                         parse_element_combo, serialize_algebra_doc)

A2_SOURCE = """field rational
basis e1 e2
mul e1 e1 = e2
"""


def test_parse_running_example():
    doc = parse_algebra_source(A2_SOURCE)
    assert doc.algebra.field == QQ
    assert doc.algebra.basis_names == ("e1", "e2")
    assert doc.algebra.basis_product(0, 0) == (Fraction(0), Fraction(1))
    assert doc == AlgebraDoc(a2(), {})


def test_parse_prime_field():
    doc = parse_algebra_source("field gf 3\nbasis a\nmul a a = 2*a\n")
    assert doc.algebra.field == GF(3)
    assert doc.algebra.basis_product(0, 0) == (2,)


def test_parse_comments_and_blank_lines():
    doc = parse_algebra_source(
        "# algebra definition\nfield rational\n\nbasis a b  # two vectors\n"
        "mul a a = b # square\n")
    assert doc.algebra.basis_names == ("a", "b")
    assert [ij for *ij, _ in doc.algebra._int_products()] == [[0, 0]]


def test_parse_fractions_and_signs():
    doc = parse_algebra_source(
        "field rational\nbasis a b c\nmul a b = -a + 1/2*b - 3*c\n")
    assert doc.algebra.basis_product(0, 1) == (Fraction(-1), Fraction(1, 2), Fraction(-3))


def test_parse_accumulates_repeated_names_in_terms():
    doc = parse_algebra_source("field rational\nbasis a\nmul a a = a + a\n")
    assert doc.algebra.basis_product(0, 0) == (Fraction(2),)


def test_parse_zero_combination_dropped():
    doc = parse_algebra_source("field rational\nbasis a\nmul a a = a - a\n")
    assert doc.algebra == AlgebraTable.from_products(QQ, 1, {}, ("a",))
    assert list(doc.algebra._int_products()) == []


def test_parse_maps():
    doc = parse_algebra_source(
        "field rational\nbasis t t2 t3\nmul t t = t2\nmul t t2 = t3\n"
        "mul t2 t = t3\n"
        "map d t = t\nmap d t2 = 2*t2\nmap d t3 = 3*t3\n")
    d = doc.maps["d"]
    B = doc.algebra
    assert verify_identity(B, "leibniz", derivation=d).ok


def test_map_columns_default_to_zero():
    doc = parse_algebra_source("field rational\nbasis a b\nmap d a = b\n")
    M = doc.maps["d"]
    assert M.column(0) == (Fraction(0), Fraction(1))
    assert M.column(1) == (Fraction(0), Fraction(0))


def test_a_lone_zero_is_the_zero_combination():
    doc = parse_algebra_source("field gf 3\nbasis a b\nmul a a = 0\nmap d b = 0\n")
    assert doc == AlgebraDoc(AlgebraTable.from_products(GF(3), 2, {}, ("a", "b")),
                             {"d": Matrix.zeros(GF(3), 2, 2)})
    assert parse_element_combo("0", doc.algebra) == (0, 0)
    for text in ("0 + a", "0*a 0", "-0", "00"):
        with pytest.raises(ParseError):
            parse_element_combo(text, doc.algebra)


def test_basis_names_may_follow_the_products():
    doc = parse_algebra_source("field rational\nbasis a\nmul a a = a\nbasis b\n"
                               "map d a = b\n")
    assert doc.algebra == AlgebraTable.from_products(QQ, 2, {(0, 0): (1, 0)}, ("a", "b"))
    assert doc.maps["d"] == Matrix(QQ, [[0, 0], [1, 0]])


def test_unknown_basis_name_position():
    with pytest.raises(ParseError) as exc:
        parse_algebra_source("field rational\nbasis e1 e2\nmul e1 e9 = e1\n")
    assert exc.value.line == 3
    assert exc.value.col == 8
    assert "e9" in exc.value.message


def test_non_prime_modulus():
    with pytest.raises(ParseError) as exc:
        parse_algebra_source("field gf 6\nbasis a\n")
    assert "prime" in exc.value.message


def test_fraction_coefficient_rejected_over_prime_field():
    with pytest.raises(ParseError) as exc:
        parse_algebra_source("field gf 3\nbasis a\nmul a a = 1/2*a\n")
    assert "not in" in exc.value.message


def test_duplicate_product_rejected():
    with pytest.raises(ParseError) as exc:
        parse_algebra_source(
            "field rational\nbasis a b\nmul a a = b\nmul a a = b\n")
    assert "duplicate" in exc.value.message
    assert exc.value.line == 4


def test_duplicate_basis_name_rejected():
    with pytest.raises(ParseError):
        parse_algebra_source("field rational\nbasis a a\n")


def test_duplicate_field_rejected():
    with pytest.raises(ParseError):
        parse_algebra_source("field rational\nfield gf 3\nbasis a\n")


def test_field_must_come_first():
    with pytest.raises(ParseError) as exc:
        parse_algebra_source("basis a\nfield rational\n")
    assert "field" in exc.value.message


def test_missing_sections():
    with pytest.raises(ParseError):
        parse_algebra_source("")
    with pytest.raises(ParseError):
        parse_algebra_source("field rational\n")


def test_unknown_keyword():
    with pytest.raises(ParseError) as exc:
        parse_algebra_source("field rational\nbasis a\nproduct a a = a\n")
    assert "unknown declaration" in exc.value.message


def test_missing_star_after_coefficient():
    with pytest.raises(ParseError) as exc:
        parse_algebra_source("field rational\nbasis a\nmul a a = 2 a\n")
    assert "'*'" in exc.value.message


def test_stray_character():
    with pytest.raises(ParseError) as exc:
        parse_algebra_source("field rational\nbasis a\nmul a a = a @ a\n")
    assert exc.value.line == 3


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def roundtrip(doc):
    return parse_algebra_source(serialize_algebra_doc(doc))


def test_roundtrip_running_example():
    doc = parse_algebra_source(A2_SOURCE)
    assert roundtrip(doc) == doc


def test_roundtrip_with_maps_and_fractions():
    src = ("field rational\nbasis a b c\nmul a a = 1/2*b - c\nmul b c = a\n"
           "map d a = a + 2*b\nmap d c = -1/3*c\n")
    doc = parse_algebra_source(src)
    assert roundtrip(doc) == doc


def test_roundtrip_prime_field():
    src = "field gf 5\nbasis u v\nmul u u = 4*v\nmul v u = 2*u + v\n"
    doc = parse_algebra_source(src)
    assert roundtrip(doc) == doc


def test_roundtrip_from_constructed_algebra():
    B = truncated_poly(4)
    d = weighted_euler_derivation(B, [1, 2, 3])
    doc = AlgebraDoc(B, {"euler": d})
    again = roundtrip(doc)
    assert again == doc
    assert again.algebra == B
    assert again.maps["euler"] == d


def test_a_zero_map_round_trips():
    doc = parse_algebra_source("field rational\nbasis a b\nmap d a = a - a\n")
    assert doc.maps == {"d": Matrix.zeros(QQ, 2, 2)}
    assert serialize_algebra_doc(doc) == "field rational\nbasis a b\nmap d a = 0\n"
    assert roundtrip(doc) == doc


def test_a_zero_dimensional_table_has_no_text_form():
    with pytest.raises(PreconditionError) as info:
        serialize_algebra_doc(AlgebraDoc(AlgebraTable(QQ, []), {}))
    assert info.value.code == "PRECONDITION_FAILED"
    with pytest.raises(ParseError):  # the text it would be has no basis name
        parse_algebra_source("field rational\nbasis \n")


def test_serialization_is_canonical():
    doc = parse_algebra_source(A2_SOURCE)
    assert serialize_algebra_doc(doc) == serialize_algebra_doc(roundtrip(doc))


names = st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
                 min_size=1, max_size=4, unique=True)


@st.composite
def random_docs(draw):
    basis = tuple(draw(names))
    dim = len(basis)
    field = draw(st.sampled_from([QQ, GF(5)]))
    if field.p is None:
        scalars = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        scalars = st.integers(0, field.p - 1)
    vectors = st.tuples(*[scalars] * dim)
    pairs = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    products = draw(st.dictionaries(pairs, vectors, max_size=dim * dim))
    map_cols = draw(st.none() | st.dictionaries(st.integers(0, dim - 1), vectors,
                                                max_size=dim))
    maps = {} if map_cols is None else {"d": Matrix.from_columns(
        field, [map_cols.get(j, (field.zero,) * dim) for j in range(dim)])}
    return AlgebraDoc(AlgebraTable.from_products(field, dim, products, basis), maps)


@settings(max_examples=80, deadline=None)
@given(random_docs())
def test_roundtrip_random_documents(doc):
    assert roundtrip(doc) == doc


def test_basis_names_shadowing_keywords_are_fine():
    # dispatch is positional, so declaration keywords stay usable as names
    doc = parse_algebra_source(
        "field rational\nbasis mul map basis\nmul mul mul = map\n"
        "map basis map = 2*basis\n")
    assert doc.algebra.basis_names == ("mul", "map", "basis")
    assert doc.algebra.basis_product(0, 0) == (Fraction(0), Fraction(1), Fraction(0))
    assert roundtrip(doc) == doc


# ---------------------------------------------------------------------------
# element combinations
# ---------------------------------------------------------------------------

def test_parse_element_combo():
    A = parse_algebra_source(A2_SOURCE).algebra
    assert parse_element_combo("e1 + 2*e2", A) == (Fraction(1), Fraction(2))
    assert parse_element_combo("-e1", A) == (Fraction(-1), Fraction(0))


def test_parse_element_combo_errors():
    A = parse_algebra_source(A2_SOURCE).algebra
    with pytest.raises(ParseError):
        parse_element_combo("e7", A)
    with pytest.raises(ParseError):
        parse_element_combo("", A)
    with pytest.raises(ParseError):
        parse_element_combo("e1 e2", A)
