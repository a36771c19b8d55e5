from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novikov.errors import CarrierMembershipError
from novikov.ratfunc import (P_ONE, P_X, P_ZERO, RF_X, CaseReport, Poly,
                             RatFunc, gd_power, gd_product, in_carrier,
                             left_quasi_inverse, rf_derivation, right_qr_residual)

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def polys(max_degree=5, min_degree=0):
    return st.lists(coeffs, min_size=min_degree + 1, max_size=max_degree + 1).map(Poly)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_canonical_form():
    p = Poly([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert Poly([]).degree == -1
    assert Poly([0, 0]).is_zero()


def test_poly_arith():
    p = Poly([1, 1])      # 1 + x
    q = Poly([-1, 1])     # -1 + x
    assert p * q == Poly([-1, 0, 1])
    assert p + q == Poly([0, 2])
    assert p - p == P_ZERO
    assert p(Fraction(2)) == 3


def test_poly_divmod_exact():
    num = Poly([-1, 0, 1])
    q, r = num.divmod(Poly([1, 1]))
    assert q == Poly([-1, 1]) and r.is_zero()
    q, r = Poly([1, 0, 1]).divmod(Poly([1, 1]))
    assert Poly([1, 1]) * q + r == Poly([1, 0, 1])
    with pytest.raises(ZeroDivisionError):
        num.divmod(P_ZERO)


def test_poly_gcd_monic():
    a = Poly([0, 2, 2])   # 2x(1 + x)
    b = Poly([0, 0, 3, 3])  # 3x^2(1 + x)
    g = a.gcd(b)
    assert g == Poly([0, 1, 1])  # x (1 + x), monic
    assert g.leading == 1


def test_poly_derivative():
    assert Poly([5, 1, 3]).derivative() == Poly([1, 6])
    assert P_ONE.derivative().is_zero()


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_poly_divmod_roundtrip(a, b):
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_poly_gcd_divides_both(a, b):
    g = a.gcd(b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    assert a.divmod(g)[1].is_zero()
    assert b.divmod(g)[1].is_zero()


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

def test_rf_addition():
    assert RF_X + RF_X == RatFunc(Poly([0, 2]))


def test_rf_cancellation():
    u = RatFunc(P_X, Poly([1, 1]))
    v = RatFunc(Poly([1, 1]), P_ONE)
    assert u * v == RF_X


def test_rf_normalization_monic_denominator():
    u = RatFunc(Poly([0, 2]), Poly([2]))
    assert u == RF_X
    assert u.den == P_ONE
    w = RatFunc(P_X, Poly([1, 2]))  # denominator normalized to x + 1/2 scale
    assert w.den.leading == 1


def test_rf_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RatFunc(P_ONE, P_ZERO)


def test_carrier_membership():
    assert in_carrier(RF_X)
    assert in_carrier(RatFunc(P_X, Poly([1, 1])))
    assert not in_carrier(RatFunc(P_ONE))      # value 1 at the origin
    assert not in_carrier(RatFunc(P_ONE, P_X))  # pole at the origin
    assert in_carrier(RatFunc(P_ZERO))


def rf_carrier(max_degree=4):
    return st.builds(
        lambda num, den: RatFunc(num.shift(1), den),
        polys(max_degree - 1),
        polys(max_degree).filter(lambda g: g(0) != 0),
    )


@settings(max_examples=60, deadline=None)
@given(rf_carrier(), rf_carrier())
def test_carrier_closed_under_sum_and_product(u, v):
    assert in_carrier(u + v)
    assert in_carrier(u * v)


# ---------------------------------------------------------------------------
# the derivation
# ---------------------------------------------------------------------------

def test_derivation_values():
    assert rf_derivation(RF_X) == RF_X
    assert rf_derivation(RF_X * RF_X) == RatFunc(Poly([0, 0, 2]))
    assert rf_derivation(RatFunc(P_ZERO)).is_zero()


def test_derivation_requires_carrier():
    with pytest.raises(CarrierMembershipError):
        rf_derivation(RatFunc(P_ONE))


@settings(max_examples=50, deadline=None)
@given(rf_carrier(3), rf_carrier(3))
def test_derivation_satisfies_product_rule(u, v):
    lhs = rf_derivation(u * v)
    rhs = rf_derivation(u) * v + u * rf_derivation(v)
    assert lhs == rhs
    assert in_carrier(rf_derivation(u))


# ---------------------------------------------------------------------------
# the derived product
# ---------------------------------------------------------------------------

def test_gd_product_values():
    x = RF_X
    assert gd_product(x, x) == RatFunc(Poly([0, 0, 1]))
    assert gd_product(x, x * x) == RatFunc(Poly([0, 0, 0, 2]))
    assert gd_product(x, RatFunc(P_ZERO)).is_zero()


def test_gd_powers_of_x_are_monomials():
    for k in range(1, 11):
        p = gd_power(RF_X, k)
        assert p == RatFunc(P_X.shift(k - 1))
        assert not p.is_zero()


# ---------------------------------------------------------------------------
# left quasi-inverses
# ---------------------------------------------------------------------------

def test_left_quasi_inverse_zero():
    assert left_quasi_inverse(RatFunc(P_ZERO)).is_zero()


def test_left_quasi_inverse_of_x():
    y = left_quasi_inverse(RF_X)
    assert y == RatFunc(P_X, Poly([-1, 1]))
    check = RF_X + y - gd_product(y, RF_X)
    assert check.is_zero()


def test_left_quasi_inverse_of_x_squared():
    u = RF_X * RF_X
    y = left_quasi_inverse(u)
    assert (u + y - gd_product(y, u)).is_zero()


@settings(max_examples=60, deadline=None)
@given(rf_carrier())
def test_left_quasi_inverse_verifies_exactly(u):
    y = left_quasi_inverse(u)
    assert (u + y - gd_product(y, u)).is_zero()
    assert in_carrier(y)


# ---------------------------------------------------------------------------
# the right-quasiregularity obstruction
# ---------------------------------------------------------------------------

def test_residual_linear_over_constant():
    r, rep = right_qr_residual(P_X, P_ONE)
    assert r == Poly([0, 2, -1])
    assert rep.case == "n>m"
    assert rep.predicted_coeff == -1 and rep.predicted_exponent == 2
    assert rep.matches and not rep.residual_is_zero


def test_residual_equal_degrees():
    r, rep = right_qr_residual(P_X, Poly([1, 1]))
    assert r == Poly([0, 2, 2, 1])
    assert rep.case == "n=m"
    assert rep.predicted_coeff == 1 and rep.predicted_exponent == 3
    assert rep.matches


def test_residual_denominator_dominates():
    _, rep = right_qr_residual(P_X, Poly([1, 0, 1]))
    assert rep.case == "m>n"
    assert rep.predicted_exponent == 5
    assert rep.predicted_coeff == 1
    assert rep.matches


def test_residual_preconditions():
    with pytest.raises(CarrierMembershipError):
        right_qr_residual(P_ZERO, P_ONE)
    with pytest.raises(CarrierMembershipError):
        right_qr_residual(Poly([1, 1]), P_ONE)  # f(0) != 0
    with pytest.raises(CarrierMembershipError):
        right_qr_residual(P_X, P_X)  # g(0) = 0


@settings(max_examples=200, deadline=None)
@given(polys(max_degree=4),
       polys(max_degree=5).filter(lambda g: g(0) != 0))
def test_leading_term_law(fbody, g):
    f = fbody.shift(1)
    if f.is_zero():
        return
    r, rep = right_qr_residual(f, g)
    assert not rep.residual_is_zero
    assert rep.matches
    assert r.leading == rep.predicted_coeff
    assert r.degree == rep.predicted_exponent
