"""An ``AlgebraTable`` is its nonzero structure constants.

Every construction route gives the same table, with the same hash, for the
same constants: a dense cube, ``from_products`` with or without explicit
zero vectors, raw entries that cancel mod p, and ``gd_construct``'s integer
route, whose numerators may share a factor with their denominator.  The
integer index is the constants over the least common denominator.  The
builders that read the nonzero products (``adjoin_unit``, ``direct_sum``,
``gd_construct``, ``quotient`` and ``serialize_algebra_doc``) are compared
with dense loops over the cube written here.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_sparse_core import FIELDS, subspaces, tables
from novikov import GF, QQ, AlgebraTable, Matrix
from novikov.constructions import (adjoin_unit, direct_sum, example1_algebra,
                                   gd_construct, random_commutative_pair, truncated_poly,
                                   weighted_euler_derivation, zero_algebra)
from novikov.core import verify_identity
from novikov.dsl import AlgebraDoc, parse_algebra_source, serialize_algebra_doc
from novikov.errors import NotADerivationError, PreconditionError
from novikov.ideals import ideal_closure, quotient


def same_table(A, B):
    return A == B and B == A and hash(A) == hash(B)


# ---------------------------------------------------------------------------
# one table per set of structure constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.spec_string())
def test_every_route_gives_one_table(F):
    one, zero = F.one, F.zero
    cube = [[(zero, one), (zero, zero)], [(zero, zero), (zero, zero)]]
    dense = AlgebraTable(F, cube)
    sparse = AlgebraTable.from_products(F, 2, {(0, 0): (0, 1)})
    zeros = AlgebraTable.from_products(
        F, 2, {(0, 0): (0, 1), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (0, 0)})
    ints = AlgebraTable(F, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
    for other in (sparse, zeros, ints):
        assert same_table(dense, other)
    assert dense._int_index == ((((1, 1),), ()), ((), ())) and dense._den == 1
    assert dense != AlgebraTable.from_products(F, 2, {(0, 0): (0, 1)}, ("x", "y"))
    assert dense != AlgebraTable.from_products(F, 2, {(0, 1): (0, 1)})


@pytest.mark.parametrize("p", [3, 5])
def test_entries_that_cancel_mod_p_are_absent(p):
    F = GF(p)
    table = AlgebraTable(F, [[[p, 2 * p + 1], [0, 0]], [[0, 0], [-p, 0]]])
    assert table._int_index == ((((1, 1),), ()), ((), ()))
    assert same_table(table, AlgebraTable.from_products(F, 2, {(0, 0): (0, 1)}))
    cancelled = AlgebraTable.from_products(F, 2, {(0, 0): (p, -p), (1, 0): (0, 2 * p)})
    assert cancelled._int_index == (((), ()), ((), ()))
    assert list(cancelled._int_products()) == []
    assert same_table(cancelled, AlgebraTable.from_products(F, 2, {}))


def test_rational_entries_are_reduced_before_comparison():
    halves = AlgebraTable(QQ, [[[Fraction(2, 4)]]])
    assert same_table(halves, AlgebraTable.from_products(QQ, 1, {(0, 0): (Fraction(1, 2),)}))
    assert same_table(AlgebraTable(QQ, [[[Fraction(3, 3) - 1]]]), AlgebraTable(QQ, [[[0]]]))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_dense_cube_round_trips(data):
    A = data.draw(tables())
    cube = A.cube
    assert same_table(AlgebraTable(A.field, cube, A.basis_names), A)
    for i in range(A.dim):
        for j in range(A.dim):
            assert cube[i][j] == A.basis_product(i, j)
            assert cube[i][j] == A.multiply(A.basis_vector(i), A.basis_vector(j))
    products = {(i, j): cube[i][j] for i in range(A.dim) for j in range(A.dim)}
    assert same_table(AlgebraTable.from_products(A.field, A.dim, products, A.basis_names), A)
    listed = list(A._int_products())
    assert [(i, j) for i, j, _ in listed] == sorted(
        (i, j) for i in range(A.dim) for j in range(A.dim) if any(cube[i][j]))
    for i, j, terms in listed:
        assert terms == tuple((k, c * A._den) for k, c in enumerate(cube[i][j]) if c)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_the_integer_index_is_canonical(data):
    A = data.draw(tables())
    cube = A.cube
    den = lcm(*[Fraction(c).denominator for plane in cube for v in plane for c in v])
    assert A._den == den
    assert A._int_index == tuple(tuple(tuple((k, int(c * den)) for k, c in enumerate(v) if c)
                                       for v in plane) for plane in cube)


def cancelling_pair(F, lam, mu):
    """B = F[t]/(t^3) in the basis 1 + t, t, t^2 with its product times lam,
    and the derivation d(t) = mu (t + c t^2) for c = -1 (p - 1 over GF(p)).
    In gd(B, d) the t^2 terms of (1 + t) . t = (1 + t)(t + c t^2) sum to
    (1 + c) lam mu, which is 0 but not from a zero term."""
    c = F.coerce(-1)
    B = AlgebraTable.from_products(F, 3, {
        (0, 0): (lam, lam, lam), (0, 1): (0, lam, lam), (1, 0): (0, lam, lam),
        (0, 2): (0, 0, lam), (2, 0): (0, 0, lam), (1, 1): (0, 0, lam)})
    d = Matrix.from_columns(F, [(0, mu, mu * c), (0, mu, mu * c), (0, 0, 2 * mu)], nrows=3)
    return B, d


@pytest.mark.parametrize("F,lam,mu,den", [
    (QQ, Fraction(1, 2), Fraction(4, 3), 3),  # numerators 4 and 8 over 6 share 2
    (QQ, Fraction(3), Fraction(5, 3), 1),  # 15 over 3
    (GF(2), 1, 1, 1), (GF(3), 2, 1, 1), (GF(5), 3, 4, 1)], ids=str)
def test_gd_and_the_scalar_routes_give_one_canonical_table(F, lam, mu, den):
    B, d = cancelling_pair(F, lam, mu)
    A = gd_construct(B, d)
    cube = dense_gd(B, d).cube
    assert not any(cube[0][1][2:])  # the t^2 terms cancelled
    routes = [AlgebraTable(F, cube, B.basis_names),
              AlgebraTable.from_products(F, 3, {(i, j): cube[i][j] for i in range(3)
                                                for j in range(3)}, B.basis_names)]
    for other in routes:
        assert same_table(A, other)
        assert A._int_index == other._int_index and A.cube == other.cube
    assert A._den == den


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.spec_string())
def test_the_zero_table_has_denominator_one(F):
    half = F.inv(F.of_int(2))
    A = gd_construct(zero_algebra(2, field=F), Matrix(F, [[half, 1], [1, half]]))
    for other in (AlgebraTable(F, [[(F.zero,) * 2] * 2] * 2, A.basis_names),
                  AlgebraTable.from_products(F, 2, {}, A.basis_names)):
        assert same_table(A, other)
        assert A._int_index == other._int_index and A.cube == other.cube
    assert A._den == 1 and A._int_index == (((), ()), ((), ()))
    assert AlgebraTable(QQ, [[[Fraction(1, 3) - Fraction(1, 3)]]])._den == 1


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.spec_string())
def test_a_matrix_keeps_its_integer_rows(F):
    half, quarter = F.inv(F.of_int(2)), F.inv(F.of_int(4))
    M = Matrix(F, [[half, F.of_int(3)], [F.zero, quarter]])
    assert M.den == (4 if F.p is None else 1)
    assert M.int_rows == tuple(tuple(int(a * M.den) for a in r) for r in M.rows)
    for other in (Matrix.from_columns(F, [M.column(0), M.column(1)], nrows=2),
                  M.scale(1), M + Matrix.zeros(F, 2, 2)):
        assert other == M and hash(other) == hash(M) and other.int_rows == M.int_rows
    assert M.scale(2) != M and M.scale(2).den == (2 if F.p is None else 1)
    assert Matrix(F, [], ncols=3) != Matrix(F, [], ncols=2)
    assert Matrix(F, [[], []]).int_rows == ((), ())


def test_the_product_rule_and_gd_construct_hash_no_fraction(monkeypatch):
    B, d = example1_algebra(3)

    def refuse(self):
        raise AssertionError("a Fraction was hashed")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    assert verify_identity(B, "leibniz", derivation=d).ok
    gd_construct(B, d, check=False)
    half = Matrix.diagonal(QQ, [Fraction(1, 2)] * B.dim)  # not a derivation
    assert verify_identity(B, "leibniz", derivation=half).failure is not None


def test_the_grading_check_reads_the_integer_index(monkeypatch):
    def refuse(self, other):
        raise AssertionError("two Fractions were added")

    monkeypatch.setattr(Fraction, "__add__", refuse)
    monkeypatch.setattr(Fraction, "__radd__", refuse)
    B = truncated_poly(4)  # t^i t^j = t^(i+j), zero from t^4 on
    half = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    assert weighted_euler_derivation(B, half).rows[2][2] == Fraction(3, 2)
    with pytest.raises(NotADerivationError) as err:
        weighted_euler_derivation(B, [Fraction(1, 2), 1, 2])
    assert str(err.value) == ("weights are not compatible with the grading at "
                              "product (0, 1) component 2")
    # over GF(3) the weights are residues: 2 + 2 = 1 is the weight of t^2
    F = GF(3)
    B3 = AlgebraTable._from_int_terms(F, 3, {(0, 0): [(1, 1)]}, 1)
    weighted_euler_derivation(B3, [2, 1, 0])
    with pytest.raises(NotADerivationError):
        weighted_euler_derivation(B3, [2, 2, 0])


def test_a_table_is_immutable():
    A = AlgebraTable.from_products(QQ, 1, {(0, 0): (1,)})
    for name in ("cube", "_int_index", "dim"):
        with pytest.raises(AttributeError):
            setattr(A, name, None)


# ---------------------------------------------------------------------------
# builders against dense loops over the cube
# ---------------------------------------------------------------------------

def dense_adjoin_unit(A):
    F, n = A.field, A.dim
    cube = A.cube
    unit = [[cube[i][j] + (F.zero,) for j in range(n)] for i in range(n)]
    for i in range(n):
        unit[i].append(A.basis_vector(i) + (F.zero,))
    unit.append([A.basis_vector(i) + (F.zero,) for i in range(n)]
                + [(F.zero,) * n + (F.one,)])
    names = list(A.basis_names)
    uname = "unit"
    while uname in names:
        uname += "_"
    return AlgebraTable(F, unit, names + [uname])


def dense_direct_sum(A, B):
    F = A.field
    ca, cb = A.cube, B.cube
    za, zb = (F.zero,) * A.dim, (F.zero,) * B.dim
    zero = za + zb
    cube = [[ca[i][j] + zb for j in range(A.dim)] + [zero] * B.dim for i in range(A.dim)]
    cube += [[zero] * A.dim + [za + cb[i][j] for j in range(B.dim)] for i in range(B.dim)]
    names = list(A.basis_names) + list(B.basis_names)
    if len(set(names)) != len(names):
        names = [f"a_{n}" for n in A.basis_names] + [f"b_{n}" for n in B.basis_names]
    return AlgebraTable(F, cube, names)


def dense_quotient(A, I):
    comp = [c for c in range(A.dim) if c not in I.pivots]
    cube = A.cube

    def project(v):
        res = I.residual(v)
        return tuple(res[c] for c in comp)

    return AlgebraTable(A.field, [[project(cube[a][b]) for b in comp] for a in comp],
                        [A.basis_names[c] for c in comp])


def dense_gd(B, d):
    F, n = B.field, B.dim
    cube = B.cube
    out = []
    for i in range(n):
        plane = []
        for j in range(n):
            acc = [F.zero] * n
            for m in range(n):
                for k in range(n):
                    acc[k] += cube[i][m][k] * d.rows[m][j]
            plane.append(tuple(acc) if F.p is None else tuple(a % F.p for a in acc))
        out.append(plane)
    return AlgebraTable(F, out, B.basis_names)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_adjoin_unit_matches_dense_reference(data):
    A = data.draw(tables())
    assert same_table(adjoin_unit(A), dense_adjoin_unit(A))


def test_adjoin_unit_renames_a_clashing_unit():
    A = AlgebraTable.from_products(QQ, 2, {(0, 0): (0, 1)}, ("unit", "unit_"))
    hull = adjoin_unit(A)
    assert hull.basis_names == ("unit", "unit_", "unit__")
    assert same_table(hull, dense_adjoin_unit(A))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_direct_sum_matches_dense_reference(data):
    A = data.draw(tables(max_dim=3))
    B = data.draw(tables(max_dim=3).filter(lambda B: B.field == A.field))
    assert same_table(direct_sum(A, B), dense_direct_sum(A, B))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quotient_matches_dense_reference(data):
    A = data.draw(tables())
    I = ideal_closure(A, data.draw(subspaces(A)))
    Q, _ = quotient(A, I)
    assert same_table(Q, dense_quotient(A, I))


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.spec_string())
@pytest.mark.parametrize("seed", range(6))
def test_gd_construct_matches_dense_reference(F, seed):
    B, d = random_commutative_pair(random.Random(seed), max_dim=5, field=F)
    assert same_table(gd_construct(B, d), dense_gd(B, d))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_serialize_algebra_doc_matches_dense_reference(data):
    A = data.draw(tables())
    if not A.dim:  # no text form: the basis declaration needs a name
        with pytest.raises(PreconditionError):
            serialize_algebra_doc(AlgebraDoc(A, {}))
        return
    cube = A.cube
    names = A.basis_names
    want = [[names[i], names[j]] for i in range(A.dim) for j in range(A.dim)
            if any(cube[i][j])]
    text = serialize_algebra_doc(AlgebraDoc(A, {}))
    assert [line.split()[1:3] for line in text.splitlines()[2:]] == want
    assert same_table(parse_algebra_source(text).algebra, A)
