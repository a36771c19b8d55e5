from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import identity_matrix, ref_gauss_jordan, ref_kernel, ref_solve, ref_span
from novikov.errors import DimensionMismatchError, FieldMismatchError
from novikov.exactlin import (GF, MODULUS_BOUND, QQ, Matrix, Subspace, _is_prime,
                              coerce_vector, kernel, rank, solve)

F3 = GF(3)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def test_rational_field_basics():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert QQ.parse("-7/2") == Fraction(-7, 2)
    assert QQ.fmt(Fraction(3, 2)) == "3/2"
    assert QQ.characteristic == 0


def test_prime_field_basics():
    assert F3.add(2, 2) == 1
    assert F3.inv(2) == 2
    assert F3.parse("7") == 1
    assert F3.of_int(-1) == 2
    assert F3.characteristic == 3
    assert GF(3) is F3


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_primality_matches_trial_division_below_100000():
    assert [n for n in range(-5, 100000) if _is_prime(n)] == \
        [n for n in range(100000) if trial_division(n)]


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
    3825123056546413051,  # strong pseudoprime to every prime base up to 23
    318665857834031151167461,  # to every prime base up to 37; 41 finds it
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161,  # Carmichael numbers
    2 ** 67 - 1, (2 ** 19 - 1) * (2 ** 31 - 1),
])
def test_pseudoprimes_are_not_prime(n):
    assert not _is_prime(n)
    with pytest.raises(ValueError, match="not prime"):
        GF(n)


@pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1, 10 ** 9 + 7, 2 ** 64 - 59])
def test_large_primes_are_prime(p):
    assert _is_prime(p)
    assert GF(p).p == p


def test_modulus_over_the_bound_is_refused():
    # the bound is itself a strong pseudoprime to all thirteen bases
    # (Sorenson and Webster 2015), so a test there could not decide
    for n in (MODULUS_BOUND, 2 ** 89 - 1, 10 ** 30):
        with pytest.raises(ValueError, match=str(MODULUS_BOUND)):
            GF(n)


def test_field_coercion_mismatch():
    with pytest.raises(FieldMismatchError):
        F3.coerce(Fraction(1, 2))
    with pytest.raises(FieldMismatchError):
        QQ.coerce("3")


# ---------------------------------------------------------------------------
# Subspace.span
# ---------------------------------------------------------------------------

def test_span_identity_case():
    S = Subspace.span(QQ, [(1, 0), (0, 1)], 2)
    assert S == Subspace.full(QQ, 2)
    assert S.dim == 2


def test_span_dependent_vectors():
    S = Subspace.span(QQ, [(1, 1), (2, 2)], 2)
    assert S.rows == ((Fraction(1), Fraction(1)),)


def test_span_empty():
    S = Subspace.span(QQ, [], 2)
    assert S.is_zero() and S.dim == 0


def test_span_idempotent():
    S = Subspace.span(QQ, [(2, 4, 6), (1, 1, 1), (0, 3, 6)], 3)
    again = Subspace.span(QQ, S.rows, 3)
    assert again == S


def test_span_ambient_mismatch():
    with pytest.raises(DimensionMismatchError):
        Subspace.span(QQ, [(1, 0, 0)], 2)


@pytest.mark.parametrize("F", [QQ, GF(3)], ids=lambda F: F.spec_string())
def test_span_validates_vectors_after_it_is_full(F):
    full = [(1, 0), (0, 1)]
    assert Subspace.span(F, full + [(1, 1), (2, 0)], 2) == Subspace.full(F, 2)
    with pytest.raises(DimensionMismatchError):
        Subspace.span(F, full + [(1, 0, 0)], 2)
    with pytest.raises(FieldMismatchError):
        Subspace.span(F, full + [(0.5, 0)], 2)


small_rats = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def vector_sets(draw, max_dim=4, max_count=5):
    dim = draw(st.integers(1, max_dim))
    count = draw(st.integers(1, max_count))
    vecs = [tuple(draw(small_rats) for _ in range(dim)) for _ in range(count)]
    return dim, vecs


@settings(max_examples=60, deadline=None)
@given(vector_sets(), st.randoms(use_true_random=False))
def test_span_canonical_under_permutation_and_scaling(data, rnd):
    dim, vecs = data
    S = Subspace.span(QQ, vecs, dim)
    shuffled = list(vecs)
    rnd.shuffle(shuffled)
    scaled = []
    for v in shuffled:
        c = Fraction(rnd.randint(1, 7), rnd.randint(1, 7))
        if rnd.random() < 0.5:
            c = -c
        scaled.append(tuple(c * a for a in v))
    assert Subspace.span(QQ, scaled, dim) == S


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_scalar():
    M = Matrix(QQ, [[2]])
    assert solve(M, (1,)) == (Fraction(1, 2),)


def test_solve_inconsistent():
    M = Matrix(QQ, [[0]])
    assert solve(M, (1,)) is None


def test_solve_free_variables_zero():
    M = Matrix(QQ, [[1, 1]])
    assert solve(M, (1,)) == (Fraction(1), Fraction(0))


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve(Matrix(QQ, [[1, 2]]), (1, 2))


@st.composite
def matrices(draw, max_dim=4):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    rows = [[draw(st.integers(-4, 4)) for _ in range(ncols)] for _ in range(nrows)]
    return Matrix(QQ, rows)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_exact_on_consistent_systems(M, data):
    y0 = tuple(Fraction(data.draw(st.integers(-3, 3))) for _ in range(M.ncols))
    b = M.mat_vec(y0)
    y = solve(M, b)
    assert y is not None
    assert M.mat_vec(y) == b


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_succeeds_iff_rhs_in_column_space(M, data):
    b = tuple(Fraction(data.draw(st.integers(-3, 3))) for _ in range(M.nrows))
    augmented = Matrix(QQ, [list(r) + [b[i]] for i, r in enumerate(M.rows)])
    in_colspace = rank(augmented) == rank(M)
    assert (solve(M, b) is not None) == in_colspace


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_identity():
    assert kernel(identity_matrix(QQ, 2)).is_zero()


def test_kernel_zero_matrix():
    assert kernel(Matrix.zeros(QQ, 2, 2)) == Subspace.full(QQ, 2)


def test_kernel_canonicalized():
    K = kernel(Matrix(QQ, [[1, 1]]))
    assert K.rows == ((Fraction(1), Fraction(-1)),)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(M):
    assert kernel(M).dim + rank(M) == M.ncols


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(M):
    K = kernel(M)
    zero = (Fraction(0),) * M.nrows
    for v in K.rows:
        assert M.mat_vec(v) == zero


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------

def test_sum_of_axes_is_full():
    U = Subspace.span(QQ, [(1, 0)], 2)
    V = Subspace.span(QQ, [(0, 1)], 2)
    assert U.sum(V) == Subspace.full(QQ, 2)


def test_intersect_of_axes_is_zero():
    U = Subspace.span(QQ, [(1, 0)], 2)
    V = Subspace.span(QQ, [(0, 1)], 2)
    assert U.intersect(V).is_zero()


def test_contains_scaled_vector():
    U = Subspace.span(QQ, [(1, 1)], 2)
    assert U.contains((2, 2))
    assert not U.contains((1, 2))


def test_residual_of_raw_and_canonical_vectors_agree():
    for F, rows, v in ((QQ, [(1, 1, 0), (0, 0, 2)], (Fraction(3, 2), 4, -1)),
                       (F3, [(1, 2, 0)], (4, -1, 5))):
        U = Subspace.span(F, rows, 3)
        r = U.residual(v)
        assert r == U.residual_canonical(coerce_vector(F, v))
        assert all(r[c] == F.zero for c in U.pivots)
        assert U.contains(tuple(a - b for a, b in zip(coerce_vector(F, v), r)))


def test_lattice_ambient_mismatch():
    U = Subspace.span(QQ, [(1, 0)], 2)
    V = Subspace.span(QQ, [(1, 0, 0)], 3)
    with pytest.raises(DimensionMismatchError):
        U.sum(V)
    W = Subspace.span(F3, [(1, 0)], 2)
    with pytest.raises(FieldMismatchError):
        U.intersect(W)


@settings(max_examples=50, deadline=None)
@given(vector_sets(), st.data())
def test_dimension_formula(data, extra):
    dim, vecs = data
    cut = extra.draw(st.integers(0, len(vecs)))
    U = Subspace.span(QQ, vecs[:cut], dim)
    V = Subspace.span(QQ, vecs[cut:], dim)
    S = U.sum(V)
    I = U.intersect(V)
    assert U.dim + V.dim == S.dim + I.dim
    assert I.is_subspace_of(U) and I.is_subspace_of(V)
    assert U.is_subspace_of(S) and V.is_subspace_of(S)


def test_subspace_set_equality_is_structural():
    U = Subspace.span(QQ, [(1, 2), (0, 1)], 2)
    V = Subspace.span(QQ, [(3, 1), (1, 5)], 2)
    assert U == V  # both are the full plane, identical echelon bases
    assert U.rows == V.rows


# ---------------------------------------------------------------------------
# modular-rational agreement
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_rank_over_prime_fields_bounded_by_rational_rank(nr, nc, data):
    rows = [[data.draw(st.integers(-5, 5)) for _ in range(nc)] for _ in range(nr)]
    rq = rank(Matrix(QQ, rows))
    for p in (2, 3, 5, 7):
        F = GF(p)
        rp = rank(Matrix(F, [[F.of_int(a) for a in r] for r in rows]))
        assert rp <= rq
    # entries are bounded, so a prime beyond the Hadamard bound of every
    # minor determinant must preserve the rank exactly
    big = GF(1009)
    rbig = rank(Matrix(big, [[big.of_int(a) for a in r] for r in rows]))
    assert rbig == rq


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_matrix_multiplication_and_trace():
    A = Matrix(QQ, [[1, 2], [3, 4]])
    B = Matrix(QQ, [[0, 1], [1, 0]])
    assert (A * B).rows == ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3)))
    assert (A - A).is_zero()


def test_matrix_shape_errors():
    A = Matrix(QQ, [[1, 2]])
    with pytest.raises(DimensionMismatchError):
        A * A
    with pytest.raises(DimensionMismatchError):
        A + Matrix(QQ, [[1], [2]])
    with pytest.raises(FieldMismatchError):
        A + Matrix(F3, [[1, 2]])
    with pytest.raises(DimensionMismatchError):
        Matrix(QQ, [[1, 2], [3]])


def test_matrix_immutable():
    A = Matrix(QQ, [[1]])
    with pytest.raises(AttributeError):
        A.rows = ()


# ---------------------------------------------------------------------------
# the integer row kernel against plain Gauss-Jordan on field scalars
# ---------------------------------------------------------------------------

KERNEL_FIELDS = (QQ, GF(2), GF(3), GF(5))


def ref_residual(F, vectors, n, v):
    rows, pivots = ref_gauss_jordan(F, vectors, n)
    out = [F.coerce(a) for a in v]
    for row, q in zip(rows, pivots):
        c = out[q]
        out = [F.sub(a, F.mul(c, b)) for a, b in zip(out, row)]
    return tuple(out)


def kernel_scalars(F):
    if F.p is None:
        return st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)
    return st.integers(0, F.p - 1)


@st.composite
def vector_families(draw, max_dim=5, max_count=6):
    """(F, n, vectors): random vectors over one field, some of them
    combinations of earlier ones, so that the family is dependent."""
    F = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(1, max_dim))
    count = draw(st.integers(0, max_count))
    sparse = st.one_of(st.just(F.zero), kernel_scalars(F))
    vecs = []
    for _ in range(count):
        if vecs and draw(st.booleans()):
            coeffs = [F.coerce(draw(sparse)) for _ in vecs]
            v = [F.zero] * n
            for c, w in zip(coeffs, vecs):
                v = [F.add(a, F.mul(c, b)) for a, b in zip(v, w)]
            vecs.append(tuple(v))
        else:
            vecs.append(tuple(F.coerce(draw(sparse)) for _ in range(n)))
    return F, n, vecs


def assert_canonical_int_rows(S):
    """Every stored integer row is the canonical one for its RREF row."""
    F = S.field
    for row, q in zip(S.int_rows, S.pivots):
        assert all(type(a) is int for a in row)
        assert not any(row[:q])
        if F.p is None:
            assert row[q] > 0 and gcd(*row) == 1
        else:
            assert row[q] == 1 and all(0 <= a < F.p for a in row)


@settings(max_examples=150, deadline=None)
@given(vector_families(), st.data())
def test_span_contains_and_residual_match_gauss_jordan(family, data):
    F, n, vecs = family
    S = Subspace.span(F, vecs, n)
    want = ref_span(F, vecs, n)
    assert S.rows == want
    assert S.pivots == tuple(ref_gauss_jordan(F, vecs, n)[1])
    assert_canonical_int_rows(S)
    v = tuple(F.coerce(data.draw(kernel_scalars(F))) for _ in range(n))
    assert S.residual(v) == ref_residual(F, vecs, n, v)
    assert S.contains(v) == (len(ref_span(F, vecs + [v], n)) == len(want))
    for w in vecs:
        assert S.contains(w)


@settings(max_examples=100, deadline=None)
@given(vector_families(), st.data())
def test_intersect_and_sum_match_gauss_jordan(family, data):
    F, n, vecs = family
    cut = data.draw(st.integers(0, len(vecs)))
    U, V = Subspace.span(F, vecs[:cut], n), Subspace.span(F, vecs[cut:], n)
    # the intersection by the reference: kernel of [U rows; V rows] as columns
    cols = list(U.rows) + list(V.rows)
    combos = []
    for w in ref_kernel(F, [[c[t] for c in cols] for t in range(n)], len(cols)):
        v = [F.zero] * n
        for a, row in zip(w, U.rows):
            v = [F.add(s, F.mul(a, b)) for s, b in zip(v, row)]
        combos.append(v)
    I = U.intersect(V)
    assert I.rows == ref_span(F, combos, n)
    assert U.sum(V).rows == ref_span(F, vecs, n)
    for T in (I, U.sum(V)):
        assert_canonical_int_rows(T)


@settings(max_examples=120, deadline=None)
@given(vector_families(max_dim=4, max_count=5), st.data())
def test_solve_kernel_and_rank_match_gauss_jordan(family, data):
    F, ncols, rows = family
    if not rows:
        return
    M = Matrix(F, rows)
    b = tuple(F.coerce(data.draw(kernel_scalars(F))) for _ in range(M.nrows))
    if data.draw(st.booleans()):  # a consistent system half of the time
        y0 = [F.coerce(data.draw(kernel_scalars(F))) for _ in range(ncols)]
        b = M.mat_vec(y0)
    assert solve(M, b) == ref_solve(F, M.rows, b, ncols)
    K = kernel(M)
    assert K.rows == ref_kernel(F, M.rows, ncols)
    assert_canonical_int_rows(K)
    assert rank(M) == len(ref_span(F, M.rows, ncols))
