"""The sparse arithmetic core against dense references written here.

``multiply``, ``is_ideal``, the failure reports of ``verify_identity`` and
the bound certificates are each compared with a plain dense computation
over QQ, GF(3) and GF(5).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import a2, field_algebra
from novikov import GF, QQ, AlgebraTable, Subspace
from novikov import radicals
from novikov.constructions import (direct_sum, gd_construct, split_idempotents,
                                   truncated_poly, truncated_poly_derivation,
                                   weighted_euler_derivation)
from novikov.core import IdentityFailure, verify_identity
from novikov.errors import (DimensionMismatchError, FieldMismatchError,
                            WorkbenchError)
from novikov.ideals import ideal_closure, is_ideal
from novikov.radicals import bound_certificates, check_certificate

FIELDS = (QQ, GF(3), GF(5))


# ---------------------------------------------------------------------------
# dense references
# ---------------------------------------------------------------------------

def canon(F, out):
    return tuple(out) if F.p is None else tuple(c % F.p for c in out)


def dense_multiply(A, x, y):
    n = A.dim
    out = [A.field.zero] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] += x[i] * y[j] * A.cube[i][j][k]
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
    e = A.basis_vectors()
    zero = A.zero_vector()
    if kind == "commutative":
        for i in range(n):
            for j in range(n):
                if A.cube[i][j] != A.cube[j][i]:
                    return ("xy == yx", (i, j), A.cube[i][j], A.cube[j][i])
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
                    lhs = dense_multiply(A, A.cube[i][j], e[k])
                    rhs = dense_multiply(A, A.cube[i][k], e[j])
                    if lhs != rhs:
                        return ("(xy)z == (xz)y", (i, j, k), lhs, rhs)
        return None
    if kind == "eq1":
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        lhs = dense_multiply(A, assoc[i][j][k], e[l])
                        mid = dense_combination(A, A.cube[i][l],
                                                [assoc[m][j][k] for m in range(n)])
                        if lhs != mid:
                            return ("(x,y,z)t == (xt,y,z)", (i, j, k, l), lhs, mid)
                        rhs = dense_combination(A, A.cube[j][l],
                                                [assoc[m][i][k] for m in range(n)])
                        if lhs != rhs:
                            return ("(x,y,z)t == (x,yt,z)", (i, j, k, l), lhs, rhs)
        return None
    assert kind == "leibniz"
    cols = [d.column(j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = dense_combination(A, A.cube[i][j], cols)
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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_basis_products_match_dense_reference(data):
    A = data.draw(tables())
    if A.dim == 0:
        return
    v = data.draw(vectors(A.field, A.dim))
    i = data.draw(st.integers(0, A.dim - 1))
    e = A.basis_vector(i)
    for got, want in ((A.left_basis_mul(i, v), dense_multiply(A, e, v)),
                      (A.right_basis_mul(v, i), dense_multiply(A, v, e))):
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
    bound, walk = radicals.bound_certificates, AlgebraTable.left_normed_powers

    def counted_bound(*args, **kwargs):
        calls["bound"] += 1
        return bound(*args, **kwargs)

    def counted_walk(self, v):
        calls["walks"] += 1
        return walk(self, v)

    monkeypatch.setattr(radicals, "bound_certificates", counted_bound)
    monkeypatch.setattr(AlgebraTable, "left_normed_powers", counted_walk)
    assert check_certificate(A, cert)
    assert calls == {"bound": 1, "walks": 1}
    tampered = radicals.Certificate("theorem1", dict(cert.data, s_sequence=[1, 4, 11]))
    assert not check_certificate(A, tampered)
