import random
from fractions import Fraction

import pytest

from corpus import identity_matrix, operator_matrix, random_element
from novikov import QQ, AlgebraTable, verify_identity
from novikov.constructions import (adjoin_unit, direct_sum, example1_algebra,
                                   gd_construct, random_commutative_pair,
                                   split_idempotents, truncated_poly,
                                   truncated_poly_derivation,
                                   weighted_euler_derivation, zero_algebra)
from novikov.errors import (FieldMismatchError, NotADerivationError,
                            NotCommutativeAssociativeError)
from novikov.exactlin import Matrix, solve, vec_is_zero
from novikov.ideals import chain
from novikov.radicals import quasiregular_solve


# ---------------------------------------------------------------------------
# gd_construct
# ---------------------------------------------------------------------------

def test_gd_table_of_truncated_euler():
    B = truncated_poly(4)
    A = gd_construct(B, weighted_euler_derivation(B, [1, 2, 3]))
    t, t2, t3 = (A.basis_vector(i) for i in range(3))
    assert A.multiply(t, t) == t2
    assert A.multiply(t, t2) == tuple(2 * c for c in t3)
    assert A.multiply(t2, t) == t3
    assert vec_is_zero(A.multiply(t2, t2))


def test_gd_with_zero_derivation():
    B = truncated_poly(4)
    A = gd_construct(B, Matrix.zeros(QQ, 3, 3))
    assert all(vec_is_zero(A.cube[i][j]) for i in range(3) for j in range(3))


def test_gd_unit_times_y_is_dy():
    B = truncated_poly(3, unital=True)
    d = truncated_poly_derivation(B, True, (0, 1, 0))
    A = gd_construct(B, d)
    one = A.basis_vector(0)
    for j in range(3):
        assert A.multiply(one, A.basis_vector(j)) == d.column(j)


def test_gd_rejects_noncommutative_input():
    bad = AlgebraTable.from_products(QQ, 2, {(0, 1): (0, 1)})
    with pytest.raises(NotCommutativeAssociativeError):
        gd_construct(bad, Matrix.zeros(QQ, 2, 2))


def test_gd_rejects_non_derivation():
    B = truncated_poly(4)
    with pytest.raises(NotADerivationError):
        gd_construct(B, identity_matrix(QQ, 3))


def test_gd_novikov_law_on_random_pairs():
    rng = random.Random(404)
    for _ in range(15):
        B, d = random_commutative_pair(rng, max_dim=5)
        A = gd_construct(B, d)
        assert verify_identity(A, "novikov").ok
        assert verify_identity(A, "eq1").ok


# ---------------------------------------------------------------------------
# example 1 truncations
# ---------------------------------------------------------------------------

def test_example1_one_variable():
    B, d = example1_algebra(1)
    assert B.dim == 1
    assert vec_is_zero(B.multiply(B.basis_vector(0), B.basis_vector(0)))
    assert d == identity_matrix(QQ, 1)


def test_example1_two_variables():
    B, d = example1_algebra(2)
    assert B.dim == 3
    assert B.basis_names == ("x1", "x2", "x1x2")
    x1, x2, x12 = (B.basis_vector(i) for i in range(3))
    assert B.multiply(x1, x2) == x12
    assert vec_is_zero(B.multiply(x1, x1))
    assert vec_is_zero(B.multiply(x12, x2))
    assert d == Matrix.diagonal(QQ, [1, 1, 2])


def test_example1_rejects_zero_variables():
    with pytest.raises(ValueError):
        example1_algebra(0)


def test_example1_nilpotency_index():
    for k in (1, 2, 3):
        B, _ = example1_algebra(k)
        rep = chain(B, "full")
        assert rep.index == k + 1  # terms are B, B^2, ..., with B^{k+1} = 0


def test_gd_of_example1_nilpotent():
    B, d = example1_algebra(2)
    A = gd_construct(B, d)
    assert chain(A, "full").index is not None


def test_example1_right_index_growth():
    indices = []
    for k in range(1, 6):
        B, d = example1_algebra(k)
        A = gd_construct(B, d, check=True)
        indices.append(chain(A, "right").index)
    assert verify_identity(A, "eq1").ok  # k = 5, dim 31
    assert all(i is not None for i in indices)
    assert all(a < b for a, b in zip(indices, indices[1:]))


def test_example1_six_variables_is_novikov_and_eq1():
    B, d = example1_algebra(6)
    A = gd_construct(B, d, check=True)
    assert A.dim == 63
    assert verify_identity(A, "eq1").ok


# ---------------------------------------------------------------------------
# truncated polynomial algebras
# ---------------------------------------------------------------------------

def test_truncated_poly_small():
    A = truncated_poly(2)
    assert A.dim == 1
    assert vec_is_zero(A.multiply(A.basis_vector(0), A.basis_vector(0)))


def test_truncated_poly_products():
    A = truncated_poly(4)
    t, t2, t3 = (A.basis_vector(i) for i in range(3))
    assert A.multiply(t, t2) == t3
    assert vec_is_zero(A.multiply(t2, t2))


def test_truncated_poly_unital():
    A = truncated_poly(3, unital=True)
    one = A.basis_vector(0)
    for j in range(3):
        e = A.basis_vector(j)
        assert A.multiply(one, e) == e
        assert A.multiply(e, one) == e


def test_truncated_poly_rejects_small_order():
    with pytest.raises(ValueError):
        truncated_poly(1)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def test_weighted_euler_on_truncated():
    B = truncated_poly(4)
    d = weighted_euler_derivation(B, [1, 2, 3])
    assert d == Matrix.diagonal(QQ, [1, 2, 3])
    assert verify_identity(B, "leibniz", derivation=d).ok


def test_weighted_euler_on_zero_algebra():
    B = zero_algebra(3)
    d = weighted_euler_derivation(B, [5, -1, Fraction(1, 2)])
    assert verify_identity(B, "leibniz", derivation=d).ok


def test_weighted_euler_rejects_idempotents():
    B = split_idempotents(2)
    with pytest.raises(NotADerivationError):
        weighted_euler_derivation(B, [1, 1])


def test_truncated_poly_derivation_shifted_image():
    B = truncated_poly(5)
    d = truncated_poly_derivation(B, False, (0, 1, 0, 0))  # d(t) = t^2
    assert verify_identity(B, "leibniz", derivation=d).ok
    # d(t^2) = 2 t^3
    assert d.column(1) == (Fraction(0), Fraction(0), Fraction(2), Fraction(0))


def test_truncated_poly_derivation_rejects_constant_term():
    B = truncated_poly(3, unital=True)
    with pytest.raises(NotADerivationError):
        truncated_poly_derivation(B, True, (1, 0, 0))


# ---------------------------------------------------------------------------
# unit adjunction and direct sums
# ---------------------------------------------------------------------------

def test_adjoin_unit_to_zero_line():
    A = adjoin_unit(zero_algebra(1))
    # behaves as the span of {t, 1} with t^2 = 0
    t, one = A.basis_vector(0), A.basis_vector(1)
    assert A.multiply(one, one) == one
    assert A.multiply(one, t) == t
    assert A.multiply(t, one) == t
    assert vec_is_zero(A.multiply(t, t))


def test_adjoin_unit_preserves_commutative_associative():
    for B in (truncated_poly(4), split_idempotents(2), zero_algebra(2)):
        H = adjoin_unit(B)
        assert verify_identity(H, "commutative").ok
        assert verify_identity(H, "associative").ok


def test_direct_sum_blocks():
    A = direct_sum(*(AlgebraTable.from_products(QQ, 2, {(0, 0): (0, 1)})
                     for _ in range(2)))
    assert A.dim == 4
    e1, e3 = A.basis_vector(0), A.basis_vector(2)
    assert A.multiply(e1, e1) == A.basis_vector(1)
    assert A.multiply(e3, e3) == A.basis_vector(3)
    assert vec_is_zero(A.multiply(e1, e3))


def test_direct_sum_field_mismatch():
    from novikov import GF
    with pytest.raises(FieldMismatchError):
        direct_sum(zero_algebra(1), zero_algebra(1, field=GF(3)))


# ---------------------------------------------------------------------------
# stability statements for the derived product
# ---------------------------------------------------------------------------

def test_nil_bound_via_derivation_powers():
    # x^{n+1} in the derived product equals x d(x)^n computed upstairs
    rng = random.Random(31)
    for _ in range(12):
        B, d = random_commutative_pair(rng, max_dim=5, nilpotent_only=True)
        A = gd_construct(B, d)
        for x in B.basis_vectors() + [random_element(B, rng) for _ in range(3)]:
            dx = d.mat_vec(x)
            n = next((m for m in range(1, B.dim + 2)
                      if vec_is_zero(_assoc_power(B, dx, m))), None)
            assert n is not None  # B nilpotent, so d(x) is nilpotent in B
            lhs = A.left_normed_power(x, n + 1)
            rhs = B.multiply(x, _assoc_power(B, dx, n))
            assert lhs == rhs
            assert vec_is_zero(lhs)


def _assoc_power(B, x, n):
    p = x
    for _ in range(n - 1):
        p = B.multiply(p, x)
    return p


def test_nilpotency_transfer_with_index_bound():
    rng = random.Random(37)
    for _ in range(12):
        B, d = random_commutative_pair(rng, max_dim=5, nilpotent_only=True)
        A = gd_construct(B, d)
        bi = chain(B, "full").index
        ai = chain(A, "full").index
        assert bi is not None and ai is not None
        assert ai <= bi


def test_quasi_inverse_formula_transfers():
    # z solving d(x) + z = d(x) z in B gives the left quasi-inverse xz - x
    rng = random.Random(41)
    checked = 0
    for _ in range(12):
        B, d = random_commutative_pair(rng, max_dim=5, nilpotent_only=True)
        A = gd_construct(B, d)
        for x in B.basis_vectors() + [random_element(B, rng) for _ in range(2)]:
            w = d.mat_vec(x)
            lw = operator_matrix(B, w, side="left")
            z = solve(lw - identity_matrix(B.field, B.dim), w)
            if z is None:
                continue
            y = tuple(a - b for a, b in zip(B.multiply(x, z), x))
            lhs = tuple(a + b for a, b in zip(x, y))
            assert lhs == A.multiply(y, x)
            assert quasiregular_solve(A, x, side="left") is not None
            checked += 1
    assert checked >= 20


def test_random_pairs_are_valid():
    rng = random.Random(43)
    for _ in range(25):
        B, d = random_commutative_pair(rng, max_dim=5)
        assert 1 <= B.dim <= 5
        assert verify_identity(B, "commutative").ok
        assert verify_identity(B, "associative").ok
        assert verify_identity(B, "leibniz", derivation=d).ok


def test_random_nilpotent_pairs_are_nilpotent():
    rng = random.Random(47)
    for _ in range(12):
        B, _ = random_commutative_pair(rng, max_dim=5, nilpotent_only=True)
        assert chain(B, "full").index is not None
