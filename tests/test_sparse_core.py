"""The sparse arithmetic core against dense references.

``multiply``, ``is_ideal``, the failure reports of ``verify_identity``, the
bound certificates, echelon spans, subspace products, ideal closures,
generated subalgebras and ``solve``/``kernel``/``rank`` are each compared
with a plain dense or round-based computation over QQ, GF(3) and GF(5).
The dense references are written here, except the textbook Gauss-Jordan,
which ``corpus`` shares with ``test_exactlin``.
"""

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import (a2, field_algebra, gf3_population, left_basis_mul, q_corpus,
                    ref_gauss_jordan, ref_kernel, ref_solve, ref_span, reference_identity,
                    right_basis_mul)
from novikov import GF, QQ, AlgebraTable, Matrix, Subspace
from novikov import core, ideals, radicals
from novikov.constructions import (direct_sum, example1_algebra, gd_construct,
                                   split_idempotents,
                                   truncated_poly, truncated_poly_derivation,
                                   weighted_euler_derivation, zero_algebra)
from novikov.core import IdentityFailure, verify_identity
from novikov.errors import (BudgetExceededError, DimensionMismatchError,
                            FieldMismatchError, NotLieSolvableError,
                            PreconditionError, WorkbenchError)
from novikov.exactlin import kernel, rank, solve
from novikov.ideals import (ideal_closure, is_ideal, subalgebra_generated,
                            subspace_product)
from novikov.radicals import (baer_radical, bound_certificates, check_certificate,
                              lqr_radical, quasi_inverse_lift)

FIELDS = (QQ, GF(3), GF(5))


# ---------------------------------------------------------------------------
# dense references
# ---------------------------------------------------------------------------

def canon(F, out):
    return tuple(out) if F.p is None else tuple(c % F.p for c in out)


def dense_multiply(A, x, y):
    n = A.dim
    cube = A.cube
    out = [A.field.zero] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] += x[i] * y[j] * cube[i][j][k]
    return canon(A.field, out)


def dense_sum(A, *vectors):
    return canon(A.field, [sum(cs, A.field.zero) for cs in zip(*vectors)])


def dense_diff(A, u, v):
    return canon(A.field, [a - b for a, b in zip(u, v)])


def dense_power(A, x, s):
    p = x
    for _ in range(s - 1):
        p = dense_multiply(A, p, x)
    return p


def dense_assoc(A, x, y, z):
    return dense_diff(A, dense_multiply(A, dense_multiply(A, x, y), z),
                      dense_multiply(A, x, dense_multiply(A, y, z)))


def dense_combination(A, coeffs, vectors):
    out = [A.field.zero] * A.dim
    for c, v in zip(coeffs, vectors):
        for k, a in enumerate(v):
            out[k] += c * a
    return canon(A.field, out)


def dense_first_failure(A, kind, d=None):
    """The first failing basis tuple of a law, in the documented order, as
    ``(law, indices, lhs, rhs)``; None when the law holds."""
    n = A.dim
    cube = A.cube
    e = A.basis_vectors()
    zero = A.zero_vector()
    if kind == "commutative":
        for i in range(n):
            for j in range(n):
                if cube[i][j] != cube[j][i]:
                    return ("xy == yx", (i, j), cube[i][j], cube[j][i])
        return None
    if kind == "associative":
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    a = dense_assoc(A, e[i], e[j], e[k])
                    if any(a):
                        return ("(xy)z == x(yz)", (i, j, k), a, zero)
        return None
    assoc = [[[dense_assoc(A, e[i], e[j], e[k]) for k in range(n)]
              for j in range(n)] for i in range(n)]
    if kind == "novikov":
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if assoc[i][j][k] != assoc[j][i][k]:
                        return ("(x,y,z) == (y,x,z)", (i, j, k),
                                assoc[i][j][k], assoc[j][i][k])
                    lhs = dense_multiply(A, cube[i][j], e[k])
                    rhs = dense_multiply(A, cube[i][k], e[j])
                    if lhs != rhs:
                        return ("(xy)z == (xz)y", (i, j, k), lhs, rhs)
        return None
    if kind == "eq1":
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        lhs = dense_multiply(A, assoc[i][j][k], e[l])
                        mid = dense_combination(A, cube[i][l],
                                                [assoc[m][j][k] for m in range(n)])
                        if lhs != mid:
                            return ("(x,y,z)t == (xt,y,z)", (i, j, k, l), lhs, mid)
                        rhs = dense_combination(A, cube[j][l],
                                                [assoc[i][m][k] for m in range(n)])
                        if lhs != rhs:
                            return ("(x,y,z)t == (x,yt,z)", (i, j, k, l), lhs, rhs)
        return None
    assert kind == "leibniz"
    cols = [d.column(j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = dense_combination(A, cube[i][j], cols)
            rhs = dense_sum(A, dense_multiply(A, cols[i], e[j]),
                            dense_multiply(A, e[i], cols[j]))
            if lhs != rhs:
                return ("d(xy) == d(x)y + x d(y)", (i, j), lhs, rhs)
    return None


def canonical_types(F, v):
    if F.p is None:
        return all(type(a) is Fraction for a in v)
    return all(type(a) is int and 0 <= a < F.p for a in v)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def scalars(F):
    if F.p is None:
        nonzero = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    else:
        nonzero = st.integers(1, F.p - 1)
    # zero twice as often as not, so cubes and vectors come out sparse
    return st.one_of(st.just(F.zero), st.just(F.zero), nonzero)


def vectors(F, n):
    return st.one_of(st.just((F.zero,) * n),
                     st.tuples(*[scalars(F)] * n) if n else st.just(()))


@st.composite
def tables(draw, max_dim=4):
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, max_dim))
    cube = [[draw(vectors(F, n)) for _ in range(n)] for _ in range(n)]
    return AlgebraTable(F, cube)


@st.composite
def subspaces(draw, A):
    F, n = A.field, A.dim
    choice = draw(st.sampled_from(("zero", "full", "span")))
    if choice == "zero":
        return A.zero_space()
    if choice == "full":
        return A.full_space()
    gens = draw(st.lists(vectors(F, n), max_size=n))
    return Subspace.span(F, gens, n)


# ---------------------------------------------------------------------------
# multiply
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.data())
def test_multiply_matches_dense_reference(data):
    A = data.draw(tables())
    x = data.draw(vectors(A.field, A.dim))
    y = data.draw(vectors(A.field, A.dim))
    got = A.multiply(x, y)
    assert got == dense_multiply(A, x, y)
    assert len(got) == A.dim
    assert canonical_types(A.field, got)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.spec_string())
def test_multiply_of_zero_vectors_is_canonical_zero(F):
    A = AlgebraTable.from_products(F, 2, {(0, 0): (1, 1), (1, 1): (0, 1)})
    z = A.zero_vector()
    for x, y in ((z, z), (z, A.basis_vector(0)), (A.basis_vector(1), z)):
        got = A.multiply(x, y)
        assert got == z and canonical_types(F, got)


@st.composite
def int_terms(draw, F, n):
    """Sparse nonzero integer terms ``(k, c)`` in increasing k: any ints
    over QQ, residues over GF(p)."""
    coeff = st.integers(-4, 4).filter(bool) if F.p is None else st.integers(1, F.p - 1)
    ks = draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else set()
    return [(k, draw(coeff)) for k in sorted(ks)]


def from_terms(F, ts, n):
    out = [F.zero] * n
    for k, c in ts:
        out[k] = F.coerce(c)
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_int_multiply_is_none_exactly_when_no_product_is_reached(data):
    A = data.draw(tables())
    F, n = A.field, A.dim
    xs, ys = data.draw(int_terms(F, n)), data.draw(int_terms(F, n))
    cube = A.cube
    got = A.int_multiply(xs, ys)
    if not any(any(cube[i][j]) for i, _ in xs for j, _ in ys):
        assert got is None
        return
    assert type(got) is list
    want = dense_multiply(A, from_terms(F, xs, n), from_terms(F, ys, n))
    assert got == [c * A._den for c in want]  # D = 1 over GF(p)
    if F.p is not None:
        assert all(0 <= c < F.p for c in got)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.spec_string())
def test_int_multiply_returns_a_cancelled_product_as_zeros(F):
    # e1 e1 = e2 e1 = e1, so (e1 - e2) e1 = 0 with both terms written
    A = AlgebraTable.from_products(F, 2, {(0, 0): (1, 0), (1, 0): (1, 0)})
    minus_one = -1 if F.p is None else F.p - 1
    assert A.int_multiply([(0, 1), (1, minus_one)], [(0, 1)]) == [0, 0]
    assert A.int_multiply([(0, 1)], [(1, 1)]) is None  # e1 e2 is not reached
    assert A.multiply(A.element([1, -1]), A.basis_vector(0)) == A.zero_vector()
    assert A.multiply(A.basis_vector(0), A.basis_vector(1)) == A.zero_vector()


def test_the_zero_dimensional_product_is_the_empty_vector():
    A = AlgebraTable(QQ, [])
    assert A.int_multiply([], []) is None
    assert A.multiply((), ()) == ()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_basis_products_match_dense_reference(data):
    A = data.draw(tables())
    if A.dim == 0:
        return
    v = data.draw(vectors(A.field, A.dim))
    i = data.draw(st.integers(0, A.dim - 1))
    e = A.basis_vector(i)
    for got, want in ((left_basis_mul(A, i, v), dense_multiply(A, e, v)),
                      (right_basis_mul(A, v, i), dense_multiply(A, v, e))):
        assert got == want and canonical_types(A.field, got)


# ---------------------------------------------------------------------------
# is_ideal
# ---------------------------------------------------------------------------

def ideal_by_spans(A, U):
    """AU + UA inside U, with both products spanned and subset-tested."""
    e = A.basis_vectors()
    left = [dense_multiply(A, x, u) for x in e for u in U.rows]
    right = [dense_multiply(A, u, x) for x in e for u in U.rows]
    return all(Subspace.span(A.field, vecs, A.dim).is_subspace_of(U)
               for vecs in (left, right))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_is_ideal_matches_span_reference(data):
    A = data.draw(tables())
    U = data.draw(subspaces(A))
    assert is_ideal(A, U) == ideal_by_spans(A, U)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.spec_string())
def test_is_ideal_on_ideals_and_non_ideals(F):
    A = direct_sum(a2(field=F), field_algebra(field=F))  # e1 e1 = e2, f f = f
    e1, e2, f = A.basis_vectors()
    cases = [(A.zero_space(), True), (A.full_space(), True),
             (Subspace.span(F, [e2], 3), True),
             (Subspace.span(F, [f], 3), True),
             (Subspace.span(F, [e1], 3), False),
             (Subspace.span(F, [e1, f], 3), False),
             (Subspace.span(F, [(1, 0, 1)], 3), False),
             (ideal_closure(A, Subspace.span(F, [e1], 3)), True)]
    for U, want in cases:
        assert is_ideal(A, U) is want
        assert ideal_by_spans(A, U) is want


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.spec_string())
def test_is_ideal_needs_both_sides(F):
    # e1 e2 = e2: span(e1) is a left ideal but not a right one; with the
    # opposite product it is a right ideal but not a left one
    U = Subspace.span(F, [(1, 0)], 2)
    for products in ({(0, 1): (0, 1)}, {(1, 0): (0, 1)}):
        A = AlgebraTable.from_products(F, 2, products)
        assert not is_ideal(A, U)
        assert not ideal_by_spans(A, U)


def test_is_ideal_rejects_foreign_subspaces():
    A = a2()
    with pytest.raises(FieldMismatchError):
        is_ideal(A, a2(field=GF(3)).full_space())
    with pytest.raises(DimensionMismatchError):
        is_ideal(A, Subspace.full(QQ, 3))
    with pytest.raises(DimensionMismatchError):
        is_ideal(A, Subspace.zero(QQ, 1))


# ---------------------------------------------------------------------------
# verify_identity failure reports on perturbed cubes
# ---------------------------------------------------------------------------

def perturb(A, i, j, k, delta):
    cube = [[list(v) for v in plane] for plane in A.cube]
    cube[i][j][k] += delta
    return AlgebraTable(A.field, cube, A.basis_names)


def euler_pair(F):
    B = truncated_poly(4, field=F)
    return B, weighted_euler_derivation(B, [F.of_int(w) for w in (1, 2, 3)])


def unital_pair(F):
    B = truncated_poly(3, unital=True, field=F)
    return B, truncated_poly_derivation(B, True, (0, 1, 0))


def base_cases(F):
    """(kind, algebra, derivation) whose law holds before perturbation."""
    out = []
    for B, d in (euler_pair(F), unital_pair(F)):
        A = gd_construct(B, d)
        out += [("novikov", A, None), ("eq1", A, None),
                ("associative", B, None), ("commutative", B, None),
                ("leibniz", B, d)]
    return out


def report_tuple(rep):
    f = rep.failure
    return None if rep.ok else (f.law, f.indices, f.lhs, f.rhs)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_failure_reports_match_dense_reference(data):
    F = data.draw(st.sampled_from(FIELDS))
    kind, A, d = data.draw(st.sampled_from(base_cases(F)))
    i, j, k = (data.draw(st.integers(0, A.dim - 1)) for _ in range(3))
    delta = data.draw(scalars(F).filter(bool))
    P = perturb(A, i, j, k, delta)
    rep = verify_identity(P, kind, derivation=d)
    assert report_tuple(rep) == dense_first_failure(P, kind, d)
    if not rep.ok:
        assert isinstance(rep.failure, IdentityFailure)
        assert canonical_types(F, rep.failure.lhs)
        assert canonical_types(F, rep.failure.rhs)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.spec_string())
@pytest.mark.parametrize("kind", ["novikov", "eq1", "associative", "commutative",
                                  "leibniz"])
def test_every_law_is_broken_and_reported(F, kind):
    broken = 0
    for k, A, d in base_cases(F):
        if k != kind:
            continue
        assert verify_identity(A, kind, derivation=d).ok
        n = A.dim
        for i in range(n):
            for j in range(n):
                for m in range(n):
                    P = perturb(A, i, j, m, F.one)
                    rep = verify_identity(P, kind, derivation=d)
                    assert report_tuple(rep) == dense_first_failure(P, kind, d)
                    broken += not rep.ok
    assert broken > 0


KINDS = ("novikov", "eq1", "associative", "commutative", "leibniz")


@st.composite
def identity_cases(draw):
    """``(kind, algebra, map)``: a random table and map, or a base case
    whose constants and map are scaled by nonzero scalars (which keeps
    every law, since each is homogeneous) and, in half the draws, one
    constant perturbed.  Over QQ the scalars carry denominators."""
    kind = draw(st.sampled_from(KINDS))
    if draw(st.booleans()):
        A = draw(tables())
        F, n = A.field, A.dim
        d = Matrix(F, [[draw(scalars(F)) for _ in range(n)] for _ in range(n)], ncols=n)
        return kind, A, d if kind == "leibniz" else None
    F = draw(st.sampled_from(FIELDS))
    _, A, d = draw(st.sampled_from([c for c in base_cases(F) if c[0] == kind]))
    lam, mu = (draw(scalars(F).filter(bool)) for _ in range(2))
    cube = [[[lam * c for c in v] for v in plane] for plane in A.cube]
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, A.dim - 1)) for _ in range(3))
        cube[i][j][k] += draw(scalars(F).filter(bool))
    return kind, AlgebraTable(F, cube, A.basis_names), None if d is None else d.scale(mu)


def perturbed_example1(i, j, k, c):
    """The Gelfand-Dorfman product of Example 1 in three variables (dim 7,
    eq1 holds) with the constant c_ij^k moved by c."""
    B, d = example1_algebra(3)
    cube = [[list(v) for v in plane] for plane in gd_construct(B, d).cube]
    cube[i][j][k] += c
    return AlgebraTable(QQ, cube)


@settings(max_examples=120, deadline=None)
@given(identity_cases())
# These algebras are one eq1 slice; the test also checks them with one first
# index per slice.  Here slices 0-2 have entries and agree; the least
# failing tuple, (3, 0, 1, 3), is in slice 3.
@example(("eq1", perturbed_example1(3, 2, 2, Fraction(1, 2)), None))
# Both laws first differ in slice 3, the first at (3, 0, 1, 0) and the
# second at the smaller (3, 0, 0, 1), so the report names the second.
@example(("eq1", perturbed_example1(3, 2, 5, Fraction(1, 2)), None))
# Every associator (e1, y, z) is zero, so slice 0 holds only (e1 t, y, z),
# and the least failing tuple, (0, 0, 1, 1), is there.
@example(("eq1", AlgebraTable.from_products(QQ, 2, {(0, 0): (1, 0), (0, 1): (0, 1),
                                                      (1, 1): (0, 1)}), None))
def test_integer_laws_match_the_field_scalar_reference(case):
    kind, A, d = case
    rep = verify_identity(A, kind, derivation=d)
    assert rep == reference_identity(A, kind, d)
    if not rep.ok:
        assert canonical_types(A.field, rep.failure.lhs)
        assert canonical_types(A.field, rep.failure.rhs)
    if kind == "eq1":
        # one first index per slice, as on an algebra too large for one
        cap, core.EQ1_SLICE_ENTRIES = core.EQ1_SLICE_ENTRIES, 1
        try:
            assert verify_identity.__wrapped__(A, kind) == rep  # past the lru cache
        finally:
            core.EQ1_SLICE_ENTRIES = cap


def sparse_bases(F):
    """(algebra, derivation) of Example 1 in three variables (dim 7), and
    its Gelfand-Dorfman product: 19 and 36 nonzero structure constants."""
    B, d = example1_algebra(3, field=F)
    return B, d, gd_construct(B, d)


@st.composite
def sparse_perturbations(draw, A):
    """A with one to four entries changed.  An entry is either moved by a
    nonzero scalar or driven to zero: by ``-c`` over QQ, and over GF(p) by
    ``p - c mod p``, so the raw entry is a nonzero multiple of p that must
    cancel when the table reduces it."""
    F, n = A.field, A.dim
    dense = A.cube
    nonzero = [(i, j, k) for i in range(n) for j in range(n)
               for k, c in enumerate(dense[i][j]) if c]
    cube = [[list(v) for v in plane] for plane in dense]
    entries = st.one_of(st.sampled_from(nonzero), st.tuples(*[st.integers(0, n - 1)] * 3))
    for _ in range(draw(st.integers(1, 4))):
        i, j, k = draw(entries)
        c = cube[i][j][k]
        if draw(st.booleans()):
            cube[i][j][k] += -c if F.p is None else F.p - c % F.p
        else:
            cube[i][j][k] += draw(scalars(F).filter(bool))
    return AlgebraTable(F, cube, A.basis_names)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reports_on_a_sparse_base_match_dense_reference(data):
    # prime fields only: the dense reference's Fraction loops take seconds
    # per report at dim 7, and QQ reports are compared on the bases above
    F = data.draw(st.sampled_from(FIELDS[1:]))
    B, d, A = sparse_bases(F)
    kind = data.draw(st.sampled_from(["novikov", "eq1", "associative", "commutative",
                                      "leibniz"]))
    P = data.draw(sparse_perturbations(A if kind in ("novikov", "eq1") else B))
    d = d if kind == "leibniz" else None
    rep = verify_identity(P, kind, derivation=d)
    assert report_tuple(rep) == dense_first_failure(P, kind, d)
    if not rep.ok:
        assert canonical_types(F, rep.failure.lhs)
        assert canonical_types(F, rep.failure.rhs)


def assert_eq1_report_by_elements(A):
    """An eq1 failure's sides are the element-level products its law
    names; a pass means both laws hold on every basis tuple."""
    e = A.basis_vectors()
    mul, assoc = A.multiply, A.associator

    def sides(i, j, k, l):
        lhs = mul(assoc(e[i], e[j], e[k]), e[l])
        return (lhs, {"(x,y,z)t == (xt,y,z)": assoc(mul(e[i], e[l]), e[j], e[k]),
                      "(x,y,z)t == (x,yt,z)": assoc(e[i], mul(e[j], e[l]), e[k])})

    rep = verify_identity(A, "eq1")
    if rep.ok:
        n = A.dim
        for t in ((i, j, k, l) for i in range(n) for j in range(n)
                  for k in range(n) for l in range(n)):
            lhs, rhs = sides(*t)
            assert all(lhs == r for r in rhs.values()), t
        return
    f = rep.failure
    lhs, rhs = sides(*f.indices)
    assert f.lhs == lhs and f.rhs == rhs[f.law] and f.lhs != f.rhs


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_eq1_failures_are_the_element_associators(data):
    if data.draw(st.booleans()):
        A = data.draw(tables(max_dim=3))
    else:
        F = data.draw(st.sampled_from(FIELDS))
        A = data.draw(sparse_perturbations(sparse_bases(F)[2]))
    assert_eq1_report_by_elements(A)


def test_eq1_holds_one_slice_at_a_time():
    # the whole 4-index tensors of eq1 at k=7 (dim 127) peak at 31 MB of
    # Python allocations; slices of at most EQ1_SLICE_ENTRIES entries stay
    # under 16
    B, d = example1_algebra(7)
    A = gd_construct(B, d, check=False)
    hash(A)
    tracemalloc.start()
    try:
        assert verify_identity.__wrapped__(A, "eq1").ok  # past the lru cache
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_eq1_second_law_substitutes_into_the_middle_slot():
    # e1 e1 = e1, e2 e1 = e3: (e2, e1, e1) = e3 e1 - e2 e1 = -e3, so
    # (e2, e1, e1) e1 = 0 while (e2, e1 e1, e1) = -e3.  Substituting into
    # the first slot instead, (e1 e1, e2, e1) = (e1, e2, e1) = 0, misses it.
    A = AlgebraTable.from_products(QQ, 3, {(0, 0): (1, 0, 0), (1, 0): (0, 0, 1)})
    f = verify_identity(A, "eq1").failure
    assert (f.law, f.indices) == ("(x,y,z)t == (x,yt,z)", (1, 0, 0, 0))
    assert f.lhs == A.zero_vector() and f.rhs == (0, 0, -1)
    assert_eq1_report_by_elements(A)


# ---------------------------------------------------------------------------
# bound certificates against repeated products
# ---------------------------------------------------------------------------

def dense_right_chain(A, I):
    terms = [I]
    while not terms[-1].is_zero():
        nxt = Subspace.span(A.field, [dense_multiply(A, u, v) for u in terms[-1].rows
                                      for v in I.rows], A.dim)
        if nxt == terms[-1]:
            return terms, None
        terms.append(nxt)
    return terms, len(terms)


def dense_certificate(A, x, n, ideal, claim):
    """Certificate data from repeated products, or the error class raised."""
    x = A.element(x)
    if claim == "lemma1":
        xn, xn1 = dense_power(A, x, n), dense_power(A, x, n + 1)
        if any(dense_multiply(A, xn, xn)) or any(dense_multiply(A, xn1, xn1)):
            return "PreconditionError"
        return {"element": x, "n": n, "square_power_n_zero": True,
                "square_power_n1_zero": True, "vanishing_exponent": 2 * n + 2,
                "holds": not any(dense_power(A, x, 2 * n + 2))}
    if not ideal.contains(dense_power(A, x, n)):
        return "PreconditionError"
    if claim == "lemma3":
        i2 = Subspace.span(A.field, [dense_multiply(A, u, v) for u in ideal.rows
                                     for v in ideal.rows], A.dim)
        return {"element": x, "n": n, "ideal": ideal,
                "membership_exponent": 2 * n + 2,
                "holds": i2.contains(dense_power(A, x, 2 * n + 2))}
    terms, index = dense_right_chain(A, ideal)
    s, s_sequence, memberships = n, [], []
    for k, term in enumerate(terms, start=1):
        if k > 1:
            s = 2 * s + 2
        s_sequence.append(s)
        member = term.contains(dense_power(A, x, s))
        memberships.append({"k": k, "s_k": s, "ideal_power_dim": term.dim,
                            "holds": member})
    return {"element": x, "n": n, "ideal": ideal, "s_sequence": s_sequence,
            "memberships": memberships, "ideal_chain_index": index,
            "holds": all(m["holds"] for m in memberships)}


def certificate_algebras():
    """Nilpotent ones, and ones with idempotents, whose elements need not
    be r-nilpotent."""
    B5 = truncated_poly(5)
    return [
        a2(),
        gd_construct(B5, weighted_euler_derivation(B5, [1, 2, 3, 4])),
        direct_sum(field_algebra(), a2()),
        split_idempotents(2),
        truncated_poly(3, unital=True),
        direct_sum(truncated_poly(3, unital=True), a2()),
        direct_sum(field_algebra(field=GF(5)), a2(field=GF(5))),
    ]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_certificates_match_repeated_products(data):
    A = data.draw(st.sampled_from(certificate_algebras()))
    F = A.field
    x = data.draw(st.tuples(*[st.integers(-2, 2)] * A.dim))
    x = A.element(x)
    n = data.draw(st.integers(1, 3))
    claim = data.draw(st.sampled_from(("lemma1", "lemma3", "theorem1")))
    ideal = None
    if claim != "lemma1":
        choice = data.draw(st.sampled_from(("closure", "full", "zero")))
        if choice == "closure":
            ideal = ideal_closure(A, Subspace.span(F, [dense_power(A, x, n)], A.dim))
        else:
            ideal = A.full_space() if choice == "full" else A.zero_space()
    want = dense_certificate(A, x, n, ideal, claim)
    try:
        cert = bound_certificates(A, x, n, ideal=ideal, claim=claim)
    except WorkbenchError as exc:
        assert type(exc).__name__ == want
        return
    assert cert.data == want
    assert check_certificate(A, cert)


def test_theorem1_on_elements_that_are_not_r_nilpotent():
    # f + e1 in Q f (+) a2: its powers settle at the idempotent f and never
    # vanish, while the right chain of A takes three terms, so s_3 = 10
    # passes dim + 1 = 4
    A = direct_sum(field_algebra(), a2())
    x = A.element((1, 1, 0))
    assert A.r_nilpotency_index(x) is None
    cert = bound_certificates(A, x, 1, ideal=A.full_space(), claim="theorem1")
    assert cert.data == dense_certificate(A, x, 1, A.full_space(), "theorem1")
    assert cert.data["s_sequence"] == [1, 4, 10]
    assert cert.data["s_sequence"][-1] > A.dim + 1
    assert cert.data["ideal_chain_index"] is None
    assert check_certificate(A, cert)


def test_check_certificate_rederives_from_a_fresh_walk(monkeypatch):
    A = direct_sum(field_algebra(), a2())
    x = A.element((1, 1, 0))
    cert = bound_certificates(A, x, 1, ideal=A.full_space(), claim="theorem1")
    calls = {"bound": 0, "walks": 0}
    bound, walk = radicals.bound_certificates, AlgebraTable._int_powers

    def counted_bound(*args, **kwargs):
        calls["bound"] += 1
        return bound(*args, **kwargs)

    def counted_walk(self, *args):
        calls["walks"] += 1
        return walk(self, *args)

    monkeypatch.setattr(radicals, "bound_certificates", counted_bound)
    monkeypatch.setattr(AlgebraTable, "_int_powers", counted_walk)
    assert check_certificate(A, cert)
    assert calls == {"bound": 1, "walks": 1}
    tampered = radicals.Certificate("theorem1", dict(cert.data, s_sequence=[1, 4, 11]))
    assert not check_certificate(A, tampered)


def test_bound_certificates_take_no_field_scalar_route(monkeypatch):
    """Bound certificates and their checker read integer powers, integer
    squares and integer memberships only: with ``multiply``,
    ``left_normed_powers`` and ``Subspace.contains`` patched to raise, every
    claim on the QQ and GF(3) corpora gives the data or error it gives
    unpatched (which ``test_certificates_match_repeated_products`` compares
    with repeated products)."""
    cases = []
    for _, A in q_corpus() + gf3_population():
        ones = (A.field.one,) * A.dim
        for x, n, claim in product(A.basis_vectors() + [ones], (1, 2),
                                   ("lemma1", "lemma3", "theorem1")):
            ideal = None
            if claim != "lemma1":
                ideal = ideal_closure(A, Subspace.span(
                    A.field, [A.left_normed_power(x, n)], A.dim))
            try:
                want = bound_certificates(A, x, n, ideal=ideal, claim=claim).data
            except PreconditionError:
                want = "PreconditionError"
            cases.append((A, x, n, ideal, claim, want))

    def refuse(*args, **kwargs):
        raise AssertionError("a field-scalar route was taken")

    monkeypatch.setattr(AlgebraTable, "multiply", refuse)
    monkeypatch.setattr(AlgebraTable, "left_normed_powers", refuse)
    monkeypatch.setattr(Subspace, "contains", refuse)
    certified = Counter()
    for A, x, n, ideal, claim, want in cases:
        if want == "PreconditionError":
            with pytest.raises(PreconditionError):
                bound_certificates(A, x, n, ideal=ideal, claim=claim)
            continue
        cert = bound_certificates(A, x, n, ideal=ideal, claim=claim)
        assert cert.data == want, (A, x, n, claim)
        assert check_certificate(A, cert)
        certified[A.field.spec_string(), claim] += 1
    assert len(certified) == 6 and min(certified.values()) >= 10, certified


def test_a_conclusion_that_fails_is_recorded():
    """``holds`` is computed, not assumed.  Off the Novikov laws the lemmas
    can fail: with x x = y and y x = y, x^m = y for every m >= 2, and
    I = span(y) is an ideal with I I = 0, so x^2 is in I but x^6 is in
    neither I I nor I^[2], and x^6 is not zero."""
    A = AlgebraTable.from_products(QQ, 2, {(0, 0): (0, 1), (1, 0): (0, 1)})
    assert not verify_identity(A, "novikov").ok
    x, I = A.basis_vector(0), Subspace.span(QQ, [(0, 1)], 2)
    certs = [bound_certificates(A, x, 2, claim="lemma1")] + [
        bound_certificates(A, x, 2, ideal=I, claim=claim) for claim in ("lemma3", "theorem1")]
    for cert in certs:
        assert cert.data == dense_certificate(A, x, 2, I, cert.claim)
        assert cert.data["holds"] is False
        assert check_certificate(A, cert)
    assert [m["holds"] for m in certs[2].data["memberships"]] == [True, False]


# ---------------------------------------------------------------------------
# echelon insertion: spans, products, closures, solving
# ---------------------------------------------------------------------------

def round_closure(A, S):
    """Ideal closure by rounds: U <- U + AU + UA until nothing changes."""
    e = A.basis_vectors()
    rows = S.rows
    while True:
        vecs = (list(rows) + [dense_multiply(A, x, u) for x in e for u in rows]
                + [dense_multiply(A, u, x) for x in e for u in rows])
        nxt = ref_span(A.field, vecs, A.dim)
        if nxt == rows:
            return rows
        rows = nxt


def round_subalgebra(A, elements):
    """Generated subalgebra by rounds: U <- U + UU until nothing changes."""
    rows = ref_span(A.field, elements, A.dim)
    while True:
        vecs = list(rows) + [dense_multiply(A, u, v) for u in rows for v in rows]
        nxt = ref_span(A.field, vecs, A.dim)
        if nxt == rows:
            return rows
        rows = nxt


@st.composite
def generators(draw, A):
    """Zero, one-vector, random or full generating sets."""
    F, n = A.field, A.dim
    choice = draw(st.sampled_from(("zero", "one", "random", "full")))
    if choice == "zero":
        return draw(st.sampled_from(([], [A.zero_vector()])))
    if choice == "one":
        return [draw(vectors(F, n))]
    if choice == "random":
        return draw(st.lists(vectors(F, n), max_size=n + 1))
    return list(reversed(A.basis_vectors()))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_span_matches_reference_gauss_jordan(data):
    A = data.draw(tables(max_dim=5))
    gens = data.draw(generators(A))
    S = Subspace.span(A.field, gens, A.dim)
    assert S.rows == ref_span(A.field, gens, A.dim)
    assert all(canonical_types(A.field, r) for r in S.rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ideal_closure_matches_round_reference(data):
    A = data.draw(tables(max_dim=5))
    S = Subspace.span(A.field, data.draw(generators(A)), A.dim)
    got = ideal_closure(A, S)
    assert got.rows == round_closure(A, S)
    assert S.is_subspace_of(got) and is_ideal(A, got)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subalgebra_generated_matches_round_reference(data):
    A = data.draw(tables(max_dim=5))
    gens = data.draw(generators(A))
    assert subalgebra_generated(A, gens).rows == round_subalgebra(A, gens)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.spec_string())
def test_closures_of_one_generator_need_both_sides(F):
    # e1 e2 = e3 and e3 e1 = e4: the ideal of e2 needs a left product and
    # then a right one, the subalgebra of e1, e2 the same
    A = AlgebraTable.from_products(F, 4, {(0, 1): (0, 0, 1, 0), (2, 0): (0, 0, 0, 1)})
    e1, e2, e3, e4 = A.basis_vectors()
    S = Subspace.span(F, [e2], 4)
    assert ideal_closure(A, S) == Subspace.span(F, [e2, e3, e4], 4)
    assert ideal_closure(A, S).rows == round_closure(A, S)
    assert subalgebra_generated(A, [e1, e2]) == A.full_space()
    assert subalgebra_generated(A, [e2, e1]).rows == round_subalgebra(A, [e2, e1])


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_subspace_product_matches_dense_span(data):
    A = data.draw(tables(max_dim=5))
    U = data.draw(subspaces(A))
    V = data.draw(subspaces(A))
    want = ref_span(A.field, [dense_multiply(A, u, v) for u in U.rows for v in V.rows],
                    A.dim)
    assert subspace_product(A, U, V).rows == want


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.spec_string())
def test_subspace_product_with_duplicate_and_zero_products(F):
    # commutative: t^a t^b = t^b t^a repeats every product, and t^a t^b = 0
    # once a + b >= 5; the zero algebra has only zero products
    A = truncated_poly(5, field=F)
    full = A.full_space()
    want = ref_span(F, [dense_multiply(A, u, v) for u in full.rows for v in full.rows],
                    A.dim)
    assert subspace_product(A, full, full).rows == want
    assert subspace_product(A, full, full) == Subspace.span(F, A.basis_vectors()[1:], 4)
    top = Subspace.span(F, [A.basis_vector(3)], 4)
    assert subspace_product(A, top, full).is_zero()
    Z = zero_algebra(3, field=F)
    assert subspace_product(Z, Z.full_space(), Z.full_space()).is_zero()


@st.composite
def linear_systems(draw):
    F = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(0, 4))
    rows = [draw(st.tuples(*[scalars(F)] * ncols)) for _ in range(nrows)]
    b = draw(st.tuples(*[scalars(F)] * nrows))
    return Matrix(F, rows, ncols=ncols), b


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_kernel_rank_match_reference_gauss_jordan(system):
    M, b = system
    F = M.field
    y = solve(M, b)
    assert y == ref_solve(F, M.rows, b, M.ncols)
    if y is not None:
        assert canonical_types(F, y)
    K = kernel(M)
    assert K.rows == ref_kernel(F, M.rows, M.ncols)
    assert rank(M) == len(ref_gauss_jordan(F, M.rows, M.ncols)[1])
    assert all(canonical_types(F, r) for r in K.rows)


def non_lie_solvable_algebra():
    """Over GF(5), x . y = x d(y) on F[t]/(t^5) with d = d/dt: a simple
    noncommutative Novikov algebra, whose commutator chain never vanishes."""
    F = GF(5)
    B = truncated_poly(5, unital=True, field=F)
    cols = []
    for k in range(5):  # d/dt: t^k -> k t^{k-1}
        col = [F.zero] * 5
        if k:
            col[k - 1] = F.of_int(k)
        cols.append(tuple(col))
    return gd_construct(B, Matrix.from_columns(F, cols, nrows=5))


def test_radical_routes_reject_a_non_lie_solvable_algebra():
    A = non_lie_solvable_algebra()
    assert verify_identity(A, "novikov").ok
    for route in (baer_radical, lqr_radical,
                  lambda A: quasi_inverse_lift(A, A.basis_vector(1))):
        with pytest.raises(NotLieSolvableError):
            route(A)


def test_radical_preconditions_read_the_lie_chain_only(monkeypatch):
    calls = {"classify": 0}
    classify = ideals.classify

    def counted(A):
        calls["classify"] += 1
        return classify(A)

    monkeypatch.setattr(ideals, "classify", counted)
    monkeypatch.setattr(radicals, "classify", counted, raising=False)
    before = classify.cache_info()
    B = truncated_poly(4, field=GF(5))
    A = gd_construct(B, weighted_euler_derivation(B, [1, 2, 3]))
    assert radicals._require_radical_preconditions(A) is None
    baer_radical(A)
    lqr_radical(A)
    quasi_inverse_lift(A, A.basis_vector(0))
    with pytest.raises(NotLieSolvableError):
        radicals._require_radical_preconditions(non_lie_solvable_algebra())
    after = classify.cache_info()
    assert calls["classify"] == 0
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_exponent_budget_applies_to_elements_that_are_not_r_nilpotent():
    # e e = e: every power of e is e, so x^n is reached only by walking
    A = field_algebra(field=GF(5))
    e = A.basis_vector(0)
    full = A.full_space()
    cap = radicals.MAX_POWER_EXPONENT
    cert = bound_certificates(A, e, cap, ideal=full, claim="theorem1")
    assert cert.data["s_sequence"] == [cap] and cert.data["holds"]
    with pytest.raises(BudgetExceededError):
        bound_certificates(A, e, cap + 1, ideal=full, claim="theorem1")
    tampered = radicals.Certificate("theorem1", dict(cert.data, n=cap + 1))
    assert not check_certificate(A, tampered)
    # a nilpotent element answers any exponent
    B = a2(field=GF(5))
    cert = bound_certificates(B, B.basis_vector(0), 10 ** 9, ideal=B.full_space(),
                              claim="theorem1")
    assert cert.data["holds"]
