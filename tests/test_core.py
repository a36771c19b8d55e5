import random
from fractions import Fraction

import pytest

from corpus import (a2, field_algebra, left_basis_mul, operator_matrix, q_corpus,
                    random_element, right_basis_mul)
from novikov import GF, QQ, AlgebraTable, verify_identity
from novikov.constructions import (example1_algebra, gd_construct, truncated_poly,
                                   weighted_euler_derivation)
from novikov.errors import DimensionMismatchError
from novikov.exactlin import Matrix, vec_is_zero, vec_sub
from novikov.oracle import enumerate_vectors, power_iteration_index


def gd_tpoly4():
    B = truncated_poly(4)
    return gd_construct(B, weighted_euler_derivation(B, [1, 2, 3]))


# ---------------------------------------------------------------------------
# products and operators
# ---------------------------------------------------------------------------

def test_multiply_table_read():
    A = a2()
    e1, e2 = A.basis_vector(0), A.basis_vector(1)
    assert A.multiply(e1, e1) == e2
    assert A.multiply(e2, e1) == A.zero_vector()  # absent entry means zero


def test_multiply_gd_euler():
    A = gd_tpoly4()
    t, t2 = A.basis_vector(0), A.basis_vector(1)
    assert A.multiply(t, t) == t2


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        a2().multiply((1,), (1, 0))


def test_operator_matrices():
    A = a2()
    r1 = operator_matrix(A, A.basis_vector(0), side="right")
    # e1 -> e1 e1 = e2, e2 -> e2 e1 = 0
    assert r1.column(0) == A.basis_vector(1)
    assert r1.column(1) == A.zero_vector()
    l2 = operator_matrix(A, A.basis_vector(1), side="left")
    assert l2.is_zero()
    assert operator_matrix(A, A.zero_vector(), side="right").is_zero()


def test_operator_matrix_linear_in_element():
    A = gd_tpoly4()
    rng = random.Random(7)
    x, y = random_element(A, rng), random_element(A, rng)
    rx = operator_matrix(A, x)
    ry = operator_matrix(A, y)
    rsum = operator_matrix(A, tuple(a + b for a, b in zip(x, y)))
    assert rsum == rx + ry


def test_associator_values():
    A = a2()
    e1 = A.basis_vector(0)
    assert A.associator(A.zero_vector(), e1, e1) == A.zero_vector()
    # (e1 e1) e1 - e1 (e1 e1) = 0 - e1 e2 = 0
    assert A.associator(e1, e1, e1) == A.zero_vector()


def test_associator_vanishes_on_commutative_associative():
    B = truncated_poly(5, unital=True)
    rng = random.Random(3)
    for _ in range(10):
        x, y, z = (random_element(B, rng) for _ in range(3))
        assert vec_is_zero(B.associator(x, y, z))


def fraction_product(A, x, y):
    """``sum x_i y_j c_ij^k e_k`` with ``Fraction`` arithmetic on the cube."""
    out = [Fraction(0)] * A.dim
    for i, plane in enumerate(A.cube):
        for j, v in enumerate(plane):
            for k, c in enumerate(v):
                out[k] += x[i] * y[j] * c
    return tuple(out)


@pytest.mark.parametrize("lam", [Fraction(67, 71), Fraction(-113, 79)])
def test_integer_products_on_non_integer_constants(lam):
    # the sqfree-ladder build: gd(B, lam * degree) has constants lam * deg
    B, degree = example1_algebra(3)
    A = gd_construct(B, degree.scale(lam))
    assert A._den > 1
    rng = random.Random(11)

    def element():
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) * rng.randint(0, 1)
                     for _ in range(A.dim))

    for _ in range(15):
        x, y = element(), element()
        assert A.multiply(x, y) == fraction_product(A, x, y)
        for i in range(A.dim):
            e = A.basis_vector(i)
            assert left_basis_mul(A, i, y) == fraction_product(A, e, y)
            assert right_basis_mul(A, x, i) == fraction_product(A, x, e)
        p, n = x, 1
        while any(p):
            assert A.left_normed_power(x, n) == p
            p, n = fraction_product(A, p, x), n + 1
        assert A.left_normed_power(x, n) == p
        assert A.r_nilpotency_index(x) == n


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

def test_a2_passes_novikov():
    assert verify_identity(a2(), "novikov").ok


def test_one_dim_idempotent_is_associative_commutative():
    A = field_algebra()
    assert verify_identity(A, "associative").ok
    assert verify_identity(A, "commutative").ok


def test_gd_output_is_novikov_and_eq1():
    A = gd_tpoly4()
    assert verify_identity(A, "novikov").ok
    assert verify_identity(A, "eq1").ok


def test_failure_reports_first_tuple():
    # e1 e2 = e1 breaks right commutativity at the first lexicographic triple
    A = AlgebraTable.from_products(QQ, 2, {(0, 0): (0, 1), (0, 1): (1, 0)})
    rep = verify_identity(A, "novikov")
    assert not rep.ok
    assert rep.failure.indices == (0, 0, 1)
    assert rep.failure.law == "(xy)z == (xz)y"
    assert rep.failure.lhs != rep.failure.rhs


def test_commutative_failure():
    A = AlgebraTable.from_products(QQ, 2, {(0, 1): (0, 1)})
    rep = verify_identity(A, "commutative")
    assert not rep.ok and rep.failure.indices == (0, 1)


def test_leibniz_check():
    B = truncated_poly(4)
    d = weighted_euler_derivation(B, [1, 2, 3])
    assert verify_identity(B, "leibniz", derivation=d).ok
    bad = Matrix.diagonal(QQ, [1, 1, 1])
    rep = verify_identity(B, "leibniz", derivation=bad)
    assert not rep.ok
    with pytest.raises(ValueError):
        verify_identity(B, "leibniz")


def test_unknown_identity_kind():
    with pytest.raises(ValueError):
        verify_identity(a2(), "jacobi")


# ---------------------------------------------------------------------------
# element-level redundancy for the basis-tuple checks
# ---------------------------------------------------------------------------

def test_eq1_operator_law_on_random_elements():
    rng = random.Random(11)
    for name, A in q_corpus()[:12]:
        for _ in range(4):
            x, y, z, t = (random_element(A, rng) for _ in range(4))
            axyz = A.associator(x, y, z)
            lhs = A.multiply(axyz, t)
            assert lhs == A.associator(A.multiply(x, t), y, z), name
            assert lhs == A.associator(x, A.multiply(y, t), z), name


def test_defining_laws_on_random_elements():
    rng = random.Random(12)
    for name, A in q_corpus()[:12]:
        for _ in range(4):
            x, y, z = (random_element(A, rng) for _ in range(3))
            assert A.associator(x, y, z) == A.associator(y, x, z), name
            lhs = A.multiply(A.multiply(x, y), z)
            assert lhs == A.multiply(A.multiply(x, z), y), name


def test_right_multiplications_commute_on_novikov_corpus():
    rng = random.Random(13)
    for name, A in q_corpus()[:12]:
        for _ in range(3):
            x, y = random_element(A, rng), random_element(A, rng)
            rx, ry = operator_matrix(A, x), operator_matrix(A, y)
            assert rx * ry == ry * rx, name


# ---------------------------------------------------------------------------
# powers and r-nilpotency
# ---------------------------------------------------------------------------

def test_left_normed_powers_a2():
    A = a2()
    e1 = A.basis_vector(0)
    assert A.left_normed_power(e1, 2) == A.basis_vector(1)
    assert vec_is_zero(A.left_normed_power(e1, 3))


def test_left_normed_powers_gd():
    A = gd_tpoly4()
    t = A.basis_vector(0)
    assert A.left_normed_power(t, 2) == A.basis_vector(1)
    assert A.left_normed_power(t, 3) == A.basis_vector(2)
    assert vec_is_zero(A.left_normed_power(t, 4))


def test_idempotent_powers_fixed():
    A = field_algebra()
    e = A.basis_vector(0)
    for n in range(1, 6):
        assert A.left_normed_power(e, n) == e
    assert A.r_nilpotency_index(e) is None


def test_power_zero_exponent_rejected():
    with pytest.raises(ValueError):
        a2().left_normed_power(a2().basis_vector(0), 0)


def test_r_nilpotency_indices():
    assert a2().r_nilpotency_index(a2().basis_vector(0)) == 3
    assert gd_tpoly4().r_nilpotency_index(gd_tpoly4().basis_vector(0)) == 4
    assert a2().r_nilpotency_index(a2().zero_vector()) == 1


def test_cyclic_bound_matches_power_iteration_over_small_fields():
    # the decision rule x^(dim+1) = 0 must agree with iterating to 2 dim + 2
    for p in (2, 3):
        F = GF(p)
        tables = [
            AlgebraTable.from_products(F, 2, {(0, 0): (0, 1)}),
            AlgebraTable.from_products(F, 1, {(0, 0): (1,)}),
            truncated_poly(4, field=F),
            truncated_poly(3, unital=True, field=F),
            AlgebraTable.from_products(F, 3, {(0, 0): (0, 1, 0), (0, 1): (0, 0, 1),
                                              (1, 0): (0, 0, 1)}),
        ]
        for A in tables:
            for x in enumerate_vectors(F, A.dim):
                slow = power_iteration_index(A, x, 2 * A.dim + 2)
                assert A.r_nilpotency_index(x) == slow


def test_square_vanishing_forces_power_collapse_on_corpus():
    # whenever (x^n)^2 = 0 and (x^{n+1})^2 = 0 hold, x^{2n+2} = 0 exactly
    rng = random.Random(17)
    checked = 0
    for name, A in q_corpus():
        elements = A.basis_vectors() + [random_element(A, rng) for _ in range(3)]
        for x in elements:
            powers = [None, x]
            for _ in range(A.dim + 2):
                powers.append(A.multiply(powers[-1], x))
            for n in range(1, A.dim + 1):
                sq_n = A.multiply(powers[n], powers[n])
                sq_n1 = A.multiply(powers[n + 1], powers[n + 1])
                if vec_is_zero(sq_n) and vec_is_zero(sq_n1):
                    assert vec_is_zero(A.left_normed_power(x, 2 * n + 2)), (name, n)
                    checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# table plumbing
# ---------------------------------------------------------------------------

def test_from_products_and_names():
    A = AlgebraTable.from_products(QQ, 2, {(0, 0): (0, 1)}, basis_names=("a", "b"))
    assert A.basis_names == ("a", "b")
    assert A.cube[0][0] == (Fraction(0), Fraction(1))


@pytest.mark.parametrize("F", [QQ, GF(3)], ids=lambda F: F.spec_string())
def test_terms_in_any_order_give_one_table(F):
    # builders hand their (k, c) terms over in the order they accumulate
    dense = AlgebraTable.from_products(F, 3, {(0, 1): (2, 0, 1), (2, 2): (0, 1, 0)})
    terms = AlgebraTable._from_int_terms(F, 3, {(0, 1): {2: 1, 0: 2}.items(),
                                                (2, 2): [(1, 1), (0, 3 if F.p else 0)]}, 1)
    assert terms == dense and hash(terms) == hash(dense)
    assert terms._int_index == dense._int_index


def test_table_equality_and_immutability():
    assert a2() == a2()
    assert a2() != field_algebra()
    with pytest.raises(AttributeError):
        a2().dim = 3


def test_zero_dimensional_table():
    Z = AlgebraTable(QQ, [])
    assert Z.dim == 0
    assert Z.multiply((), ()) == ()
    assert verify_identity(Z, "novikov").ok
