import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import a2, field_algebra, q_corpus, random_element
from novikov import QQ, AlgebraTable, Subspace, verify_identity
from novikov.constructions import (example1_algebra, gd_construct, truncated_poly,
                                   weighted_euler_derivation, zero_algebra)
from novikov.errors import NotAnIdealError, PreconditionError
from novikov.ideals import (chain, classify, commutator_ideal, ideal_closure,
                            is_ideal, is_trivial_ideal, quotient,
                            subalgebra_generated, subspace_product)


def span(A, *vecs):
    return Subspace.span(A.field, list(vecs), A.dim)


def gd_tpoly4():
    B = truncated_poly(4)
    return gd_construct(B, weighted_euler_derivation(B, [1, 2, 3]))


# ---------------------------------------------------------------------------
# subspace products, closures, generated subalgebras
# ---------------------------------------------------------------------------

def test_product_of_full_space_a2():
    A = a2()
    S = subspace_product(A, A.full_space(), A.full_space())
    assert S == span(A, A.basis_vector(1))


def test_product_with_zero():
    A = a2()
    assert subspace_product(A, A.zero_space(), A.full_space()).is_zero()


def test_product_annihilator():
    A = a2()
    S = subspace_product(A, span(A, A.basis_vector(1)), A.full_space())
    assert S.is_zero()


def test_ideal_closure_of_generator():
    A = a2()
    S = ideal_closure(A, span(A, A.basis_vector(0)))
    assert S == A.full_space()


def test_ideal_closure_already_closed():
    A = a2()
    S = span(A, A.basis_vector(1))
    assert ideal_closure(A, S) == S
    assert ideal_closure(A, A.zero_space()).is_zero()


def test_subalgebra_generated():
    A = a2()
    assert subalgebra_generated(A, [A.basis_vector(0)]) == A.full_space()
    assert subalgebra_generated(A, []).is_zero()
    assert subalgebra_generated(A, [A.basis_vector(1)]) == span(A, A.basis_vector(1))


# ---------------------------------------------------------------------------
# commutator ideal
# ---------------------------------------------------------------------------

def test_commutator_of_commutative_is_zero():
    A = truncated_poly(4)
    assert commutator_ideal(A, A.full_space()).is_zero()


def test_commutator_of_a2_is_zero():
    assert commutator_ideal(a2(), a2().full_space()).is_zero()


def test_commutator_of_gd_tpoly4():
    A = gd_tpoly4()
    K = commutator_ideal(A, A.full_space())
    assert K == span(A, A.basis_vector(2))  # t.t2 - t2.t = 2t3 - t3 = t3


def test_commutator_requires_ideal():
    A = a2()
    with pytest.raises(NotAnIdealError):
        commutator_ideal(A, span(A, A.basis_vector(0)))


def test_commutator_span_is_already_an_ideal_on_corpus():
    for name, A in q_corpus():
        K = commutator_ideal(A, A.full_space())
        assert ideal_closure(A, K) == K, name
        # same claim for the commutator of a smaller ideal
        inner = ideal_closure(A, span(A, A.basis_vector(A.dim - 1)))
        K2 = commutator_ideal(A, inner)
        assert ideal_closure(A, K2) == K2, name


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def test_right_chain_a2():
    A = a2()
    rep = chain(A, "right")
    assert [t.dim for t in rep.terms] == [2, 1, 0]
    assert rep.index == 3 and rep.stabilized


def test_all_chains_of_zero_algebra():
    A = zero_algebra(2)
    for kind in ("right", "derived", "lie", "full"):
        rep = chain(A, kind)
        assert rep.index == 2, kind
        assert [t.dim for t in rep.terms] == [2, 0]


def test_full_chain_of_gd_square_free_truncation():
    B, d = example1_algebra(2)
    A = gd_construct(B, d)
    rep = chain(A, "full")
    assert rep.index is not None  # nilpotent


def test_chain_with_non_closed_base_rejected():
    A = a2()
    with pytest.raises(PreconditionError):
        chain(A, "right", base=span(A, A.basis_vector(0)))
    with pytest.raises(NotAnIdealError):
        chain(A, "lie", base=span(A, A.basis_vector(0)))


def test_chain_with_zero_base():
    A = a2()
    for kind in ("right", "derived", "lie", "full"):
        rep = chain(A, kind, base=A.zero_space())
        assert rep.index == 1
        assert [t.dim for t in rep.terms] == [0]


def test_iterated_quotients():
    A = gd_tpoly4()
    Q1, _ = quotient(A, span(A, A.basis_vector(2)))
    assert Q1.dim == 2
    I = span(Q1, Q1.basis_vector(1))
    assert is_ideal(Q1, I)
    Q2, _ = quotient(Q1, I)
    assert Q2.dim == 1
    assert verify_identity(Q2, "novikov").ok


def test_full_chain_survives_plateau_before_drop():
    # aa = b, bb = c: the full powers go A > {b,c} > {c} = {c} > 0, so an
    # adjacent repeat must not be mistaken for a nonzero fixed point
    A = AlgebraTable.from_products(
        QQ, 3, {(0, 0): (0, 1, 0), (1, 1): (0, 0, 1)})
    rep = chain(A, "full")
    dims = [t.dim for t in rep.terms]
    assert dims == [3, 2, 1, 1, 0]
    assert rep.index == 5


def test_right_chain_descends_on_corpus():
    for name, A in q_corpus():
        rep = chain(A, "right")
        for earlier, later in zip(rep.terms, rep.terms[1:]):
            assert later.is_subspace_of(earlier), name
            assert later.dim < earlier.dim, name


@st.composite
def random_tables(draw, max_dim=3):
    dim = draw(st.integers(1, max_dim))
    cube = [[[draw(st.integers(-2, 2)) for _ in range(dim)]
             for _ in range(dim)] for _ in range(dim)]
    return AlgebraTable(QQ, cube)


@settings(max_examples=40, deadline=None)
@given(random_tables())
def test_right_and_derived_chains_terminate_for_arbitrary_tables(A):
    for kind in ("right", "derived"):
        rep = chain(A, kind)
        assert rep.stabilized
        for earlier, later in zip(rep.terms, rep.terms[1:]):
            assert later.is_subspace_of(earlier)
        if rep.index is not None:
            assert rep.terms[-1].is_zero()


@settings(max_examples=25, deadline=None)
@given(random_tables())
def test_full_chain_fixed_point_is_genuine(A):
    rep = chain(A, "full")
    last = rep.terms[-1]
    if rep.index is None:
        assert not last.is_zero()
        # the fixed point absorbs products against every earlier term
        nxt = Subspace.zero(A.field, A.dim)
        for t in rep.terms:
            nxt = nxt.sum(subspace_product(A, t, last))
            nxt = nxt.sum(subspace_product(A, last, t))
        assert nxt == last
    else:
        assert last.is_zero()


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_a2_all_hold():
    rep = classify(a2())
    assert rep.right_nilpotent == 3
    assert rep.solvable is not None
    assert rep.lie_solvable is not None
    assert rep.nilpotent is not None


def test_classify_field_algebra():
    rep = classify(field_algebra())
    assert rep.right_nilpotent is None
    assert rep.solvable is None
    assert rep.nilpotent is None
    assert rep.lie_solvable == 2  # commutative


def test_classify_gd_nilpotent():
    rep = classify(gd_tpoly4())
    assert rep.nilpotent is not None
    assert rep.right_nilpotent is not None
    assert rep.solvable is not None


def test_solvable_iff_right_nilpotent_iff_square_nilpotent_on_corpus():
    for name, A in q_corpus():
        rep = classify(A)
        solvable = rep.solvable is not None
        right_nil = rep.right_nilpotent is not None
        square = subspace_product(A, A.full_space(), A.full_space())
        square_nilpotent = chain(A, "full", base=square).index is not None
        assert solvable == right_nil == square_nilpotent, name


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def test_quotient_by_full_space():
    A = a2()
    Q, proj = quotient(A, A.full_space())
    assert Q.dim == 0
    assert proj.nrows == 0 and proj.ncols == 2


def test_quotient_by_zero_is_identity():
    A = a2()
    Q, proj = quotient(A, A.zero_space())
    assert Q == A
    assert proj.mat_vec((1, 2)) == (Fraction(1), Fraction(2))


def test_quotient_a2_by_socle():
    A = a2()
    Q, proj = quotient(A, span(A, A.basis_vector(1)))
    assert Q.dim == 1
    assert Q.cube[0][0] == (Fraction(0),)  # e1^2 = e2 = 0 in the quotient


def test_quotient_requires_ideal():
    A = a2()
    with pytest.raises(NotAnIdealError):
        quotient(A, span(A, A.basis_vector(0)))


def test_quotient_projection_is_multiplicative():
    rng = random.Random(23)
    for name, A in q_corpus()[:15]:
        I = ideal_closure(A, span(A, A.basis_vector(A.dim - 1)))
        Q, proj = quotient(A, I)
        for _ in range(4):
            x, y = random_element(A, rng), random_element(A, rng)
            assert (proj.mat_vec(A.multiply(x, y))
                    == Q.multiply(proj.mat_vec(x), proj.mat_vec(y))), name


def test_quotient_basis_uses_complement_coordinates():
    A = gd_tpoly4()
    I = span(A, A.basis_vector(2))
    Q, _ = quotient(A, I)
    assert Q.basis_names == A.basis_names[:2]


# ---------------------------------------------------------------------------
# trivial ideals
# ---------------------------------------------------------------------------

def test_trivial_ideal_checks():
    A = a2()
    assert is_trivial_ideal(A, span(A, A.basis_vector(1)))
    assert not is_trivial_ideal(A, A.full_space())
    assert is_trivial_ideal(A, A.zero_space())
    assert not is_trivial_ideal(A, span(A, A.basis_vector(0)))  # not an ideal


def test_is_ideal():
    A = a2()
    assert is_ideal(A, span(A, A.basis_vector(1)))
    assert not is_ideal(A, span(A, A.basis_vector(0)))
