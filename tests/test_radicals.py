import copy
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import (a2, field_algebra, identity_matrix, operator_matrix, q_corpus,
                    random_element, rebased, reference_initial_lift,
                    reference_radical)
from novikov import GF, QQ, AlgebraTable, Subspace
from novikov.constructions import (adjoin_unit, direct_sum, example1_algebra,
                                   gd_construct, random_commutative_pair,
                                   split_idempotents, truncated_poly,
                                   truncated_poly_derivation,
                                   weighted_euler_derivation, zero_algebra)
from novikov.errors import (CharTwoError, NotAnIdealError, NotCommutativeAssociativeError,
                            NotLieSolvableError, PreconditionError)
from novikov.exactlin import solve, vec_add, vec_is_zero
from novikov.ideals import chain, classify, commutator_ideal
from novikov.oracle import bruteforce_baer_tower, bruteforce_nilpotents
from novikov.radicals import (Certificate, baer_radical, bound_certificates,
                              check_certificate, lqr_radical, nilradical_commutative,
                              quasi_inverse_lift, quasiregular_solve)


def span(A, *vecs):
    return Subspace.span(A.field, list(vecs), A.dim)


def gd_tpoly(n, weights=None):
    B = truncated_poly(n)
    weights = weights or list(range(1, n))
    return gd_construct(B, weighted_euler_derivation(B, weights))


# ---------------------------------------------------------------------------
# nilradical of commutative associative algebras
# ---------------------------------------------------------------------------

def test_nilradical_unital_truncated():
    A = truncated_poly(3, unital=True)
    N = nilradical_commutative(A)
    assert N == span(A, A.basis_vector(1), A.basis_vector(2))


def test_nilradical_split_semisimple():
    assert nilradical_commutative(split_idempotents(2)).is_zero()


def test_nilradical_nonunital_truncated_is_everything():
    A = truncated_poly(4)
    assert nilradical_commutative(A) == A.full_space()


def test_nilradical_rejects_noncommutative():
    bad = AlgebraTable.from_products(QQ, 2, {(0, 1): (0, 1)})
    with pytest.raises(NotCommutativeAssociativeError):
        nilradical_commutative(bad)


def test_nilradical_in_small_characteristic():
    F = GF(3)
    A = truncated_poly(4, field=F)  # dim 3 = p: the Frobenius power is 3^2
    assert nilradical_commutative(A) == A.full_space()


def test_nilradical_small_prime_large_enough():
    F = GF(5)
    A = truncated_poly(4, field=F)
    assert nilradical_commutative(A) == A.full_space()


def test_nilradical_mixed_sum():
    from novikov.constructions import direct_sum
    A = direct_sum(split_idempotents(1), truncated_poly(3))
    N = nilradical_commutative(A)
    assert N == span(A, A.basis_vector(1), A.basis_vector(2))


def test_nilradical_matches_enumeration_on_fixed_samples():
    samples = []
    for p in (5, 7):
        F = GF(p)
        samples += [
            truncated_poly(3, field=F),
            truncated_poly(4, field=F),
            truncated_poly(3, unital=True, field=F),
            split_idempotents(2, field=F),
            direct_sum(split_idempotents(1, field=F), truncated_poly(3, field=F)),
            zero_algebra(2, field=F),
        ]
    # p = dim + 1, the hull's dimension, where a trace form on the hull
    # would vanish on the unit: trace(L_unit) = p = 0
    F3, F5 = GF(3), GF(5)
    samples += [
        truncated_poly(3, field=F3),
        truncated_poly(5, field=F5),
        direct_sum(split_idempotents(1, field=F5), truncated_poly(4, field=F5)),
        direct_sum(split_idempotents(2, field=F5), truncated_poly(3, field=F5)),
    ]
    for A in samples:
        assert nilradical_commutative(A) == nilpotent_span(A)


def nilpotent_span(A):
    return Subspace.span(A.field, bruteforce_nilpotents(A, budget=A.field.p ** A.dim), A.dim)


def polynomial_quotient(F, modulus):
    """GF(p)[t]/(f) on the basis 1, t, ..., t^(n-1), for a monic f of
    degree n given by its coefficients, constant first, leading 1 omitted."""
    n = len(modulus)
    products = {}
    for i in range(n):
        for j in range(n):
            v = [0] * (2 * n - 1)
            v[i + j] = 1
            for k in range(2 * n - 2, n - 1, -1):  # t^k = t^(k-n) t^n, t^n = -sum f_m t^m
                c, v[k] = v[k], 0
                for m, f in enumerate(modulus):
                    v[k - n + m] -= c * f
            products[i, j] = tuple(F.of_int(a) for a in v[:n])
    return AlgebraTable.from_products(F, n, products)


@pytest.mark.parametrize("p,modulus,nil_dim", [
    (3, (-1, 0, 0), 2),       # t^3 - 1 = (t - 1)^3: nilradical (t - 1)
    (5, (-1, 0, 0, 0, 0), 4),  # t^5 - 1 = (t - 1)^5
    (3, (1, 0), 0),           # t^2 + 1 is irreducible: GF(9), a field
    (3, (0, 0, -1, 0), 1),    # t^4 - t^2 = t^2 (t - 1)(t + 1): t^3 - t
    (2, (1, 1), 0),           # t^2 + t + 1: GF(4)
    (2, (1, 0, 0, 0), 3),     # t^4 + 1 = (t + 1)^4
])
def test_frobenius_nilradical_of_polynomial_quotients(p, modulus, nil_dim):
    # the basis 1, t, ... holds no nilpotent vector, so every nonzero
    # element of the nilradical mixes basis vectors
    A = polynomial_quotient(GF(p), modulus)
    N = nilradical_commutative(A)
    assert N.dim == nil_dim
    assert N == nilpotent_span(A)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 5), (5, 4), (7, 3)]), st.randoms(use_true_random=False))
def test_frobenius_nilradical_matches_the_oracle(case, rng):
    p, top = case
    B, _ = random_commutative_pair(rng, max_dim=top, field=GF(p))
    assert nilradical_commutative(B) == nilpotent_span(B)


# ---------------------------------------------------------------------------
# radical preconditions
# ---------------------------------------------------------------------------

def test_radical_rejects_characteristic_two():
    A = AlgebraTable.from_products(GF(2), 2, {(0, 0): (0, 1)})
    with pytest.raises(CharTwoError):
        baer_radical(A)
    with pytest.raises(CharTwoError):
        lqr_radical(A)


def test_radical_rejects_non_novikov():
    bad = AlgebraTable.from_products(QQ, 2, {(0, 0): (0, 1), (0, 1): (1, 0)})
    with pytest.raises(PreconditionError):
        baer_radical(bad)


def test_radical_rejects_non_lie_solvable():
    # over GF(5) the derived product on F[t]/(t^5) with d = d/dt is a simple
    # noncommutative Novikov algebra, so its commutator chain never vanishes
    F = GF(5)
    B = truncated_poly(5, unital=True, field=F)
    d = truncated_poly_derivation(B, True, (0, 1, 0, 0, 0))
    cols = []
    for k in range(5):  # d/dt: t^k -> k t^{k-1}
        col = [F.zero] * 5
        if k:
            col[k - 1] = F.of_int(k)
        cols.append(tuple(col))
    from novikov.exactlin import Matrix
    ddt = Matrix.from_columns(F, cols, nrows=5)
    A = gd_construct(B, ddt)
    assert classify(A).lie_solvable is None
    with pytest.raises(NotLieSolvableError):
        baer_radical(A)


# ---------------------------------------------------------------------------
# baer radical
# ---------------------------------------------------------------------------

def test_baer_radical_of_a2_is_everything():
    rep = baer_radical(a2())
    assert rep.radical == a2().full_space()
    assert "A/[A,A] nilradical preimage" in rep.route
    assert rep.witnesses and rep.witnesses[0].claim == "tower"


def test_baer_radical_of_split_is_zero():
    rep = baer_radical(split_idempotents(2))
    assert rep.radical.is_zero()


def test_baer_radical_of_gd_square_free():
    B, d = example1_algebra(2)
    A = gd_construct(B, d)
    assert baer_radical(A).radical == A.full_space()


def test_baer_radical_of_unital_truncated():
    A = truncated_poly(3, unital=True)
    rep = baer_radical(A)
    assert rep.radical == span(A, A.basis_vector(1), A.basis_vector(2))


def test_baer_radical_small_char_frobenius_route():
    F = GF(3)
    A = truncated_poly(4, field=F)  # commutative, quotient dim 3 = p
    rep = baer_radical(A)
    assert rep.radical == A.full_space()
    assert rep.route == ("A/[A,A] nilradical preimage; nilradical via "
                         "Frobenius kernel x -> x^(p^m)")


# ---------------------------------------------------------------------------
# left-quasiregular radical
# ---------------------------------------------------------------------------

def test_lqr_radical_of_a2():
    rep = lqr_radical(a2())
    assert rep.radical == a2().full_space()
    assert "finite-dimensional coincidence" in rep.route
    assert all(c.claim == "quasireg" for c in rep.witnesses)


def test_lqr_radical_of_split_is_zero():
    assert lqr_radical(split_idempotents(2)).radical.is_zero()


def test_lqr_radical_of_unital_truncated_matches_field_quotient():
    A = truncated_poly(3, unital=True)
    rep = lqr_radical(A)
    assert rep.radical == span(A, A.basis_vector(1), A.basis_vector(2))


def test_baer_equals_lqr_on_corpus():
    for name, A in q_corpus():
        assert baer_radical(A).radical == lqr_radical(A).radical, name


def test_lemma4_equivalence_membership_iff_r_nilpotent():
    rng = random.Random(59)
    for name, A in q_corpus():
        rad = baer_radical(A).radical
        elements = A.basis_vectors() + [random_element(A, rng) for _ in range(100)]
        for x in elements:
            assert rad.contains(x) == (A.r_nilpotency_index(x) is not None), name


def test_everything_left_quasiregular_when_radical_is_all():
    rng = random.Random(71)
    for name, A in q_corpus():
        if lqr_radical(A).radical != A.full_space():
            continue
        for x in A.basis_vectors() + [random_element(A, rng) for _ in range(10)]:
            assert quasiregular_solve(A, x, side="left") is not None, name


def test_three_way_agreement_on_corpus():
    rng = random.Random(61)
    for name, A in q_corpus():
        radical_is_all = baer_radical(A).radical == A.full_space()
        solvable = classify(A).solvable is not None
        sampled = A.basis_vectors() + [random_element(A, rng) for _ in range(10)]
        all_r_nil = all(A.r_nilpotency_index(x) is not None for x in sampled)
        assert radical_is_all == solvable == all_r_nil, name


# ---------------------------------------------------------------------------
# quasiregularity solving
# ---------------------------------------------------------------------------

def test_quasiregular_solve_commutative_truncated():
    A = truncated_poly(3)
    t = A.basis_vector(0)
    y = quasiregular_solve(A, t, side="left")
    assert y == (Fraction(-1), Fraction(-1))  # -t - t^2
    assert vec_add(QQ, t, y) == A.multiply(y, t)


def test_quasiregular_solve_gd():
    A = gd_tpoly(4)
    t = A.basis_vector(0)
    y = quasiregular_solve(A, t, side="left")
    assert y == (Fraction(-1), Fraction(-1), Fraction(-1))


def test_quasiregular_solve_zero():
    A = gd_tpoly(4)
    assert quasiregular_solve(A, A.zero_vector(), side="left") == A.zero_vector()
    assert quasiregular_solve(A, A.zero_vector(), side="right") == A.zero_vector()


def test_idempotent_not_quasiregular():
    A = field_algebra()
    e = A.basis_vector(0)
    assert quasiregular_solve(A, e, side="left") is None
    assert quasiregular_solve(A, e, side="right") is None


def test_right_quasiregular_solve_verifies():
    A = truncated_poly(4)
    t = A.basis_vector(0)
    y = quasiregular_solve(A, t, side="right")
    assert y is not None
    assert vec_add(QQ, t, y) == A.multiply(t, y)


# ---------------------------------------------------------------------------
# quasi-inverse lifting
# ---------------------------------------------------------------------------

def test_lift_on_gd_tpoly4():
    A = gd_tpoly(4)
    t = A.basis_vector(0)
    y, cert = quasi_inverse_lift(A, t)
    assert y == (Fraction(-1), Fraction(-1), Fraction(-1))
    assert vec_add(QQ, t, y) == A.multiply(y, t)
    K = commutator_ideal(A, A.full_space())
    assert len(cert.data["steps"]) <= chain(A, "right", base=K).index
    assert check_certificate(A, cert)


def test_lift_zero_element_needs_no_steps():
    A = gd_tpoly(4)
    y, cert = quasi_inverse_lift(A, A.zero_vector())
    assert vec_is_zero(y)
    assert cert.data["steps"] == []


def test_lift_commutative_case_is_direct():
    A = truncated_poly(3)
    t = A.basis_vector(0)
    y, cert = quasi_inverse_lift(A, t)
    assert y == quasiregular_solve(A, t, side="left")
    assert cert.data["steps"] == []


def test_lift_none_for_non_quasiregular():
    A = field_algebra()
    assert quasi_inverse_lift(A, A.basis_vector(0)) is None


def test_lift_needs_multiple_corrections_on_deep_commutator_ideal():
    # t F[t]/(t^9): the commutator ideal starts at t^3 and its own cube is
    # still nonzero, so the correction loop must run twice
    B = truncated_poly(9)
    A = gd_construct(B, weighted_euler_derivation(B, list(range(1, 9))),
                     check=False)
    K = commutator_ideal(A, A.full_space())
    assert chain(A, "right", base=K).index == 3
    t = A.basis_vector(0)
    y, cert = quasi_inverse_lift(A, t)
    assert len(cert.data["steps"]) == 2
    assert [s["n"] for s in cert.data["steps"]] == [1, 2]
    assert vec_add(QQ, t, y) == A.multiply(y, t)
    assert y == quasiregular_solve(A, t, side="left")
    assert check_certificate(A, cert)


def test_lift_agrees_with_solve_on_corpus():
    rng = random.Random(67)
    for name, A in q_corpus():
        K = commutator_ideal(A, A.full_space())
        bound = chain(A, "right", base=K).index
        for x in A.basis_vectors() + [random_element(A, rng) for _ in range(5)]:
            direct = quasiregular_solve(A, x, side="left")
            lifted = quasi_inverse_lift(A, x)
            assert (direct is None) == (lifted is None), name
            if lifted is None:
                continue
            y, cert = lifted
            assert vec_add(A.field, x, y) == A.multiply(y, x), name
            assert len(cert.data["steps"]) <= bound, name


@pytest.mark.parametrize("forge", [
    lambda d: d.update(initial_lift=(Fraction(7),) * len(d["initial_lift"])),
    lambda d: d.update(commutator_right_nilpotency_index=99),
    lambda d: d.update(steps=[]),
    lambda d: d["steps"][0].update(residual=(Fraction(0),) * len(d["element"])),
], ids=["initial-lift", "index", "no-steps", "zero-residual"])
def test_a_forged_lifting_certificate_is_rejected(forge):
    A = gd_tpoly(6)
    _, cert = quasi_inverse_lift(A, A.basis_vector(0))
    assert cert.data["steps"] and check_certificate(A, cert)
    data = copy.deepcopy(cert.data)
    forge(data)
    assert not check_certificate(A, Certificate("lifting", data))


# ---------------------------------------------------------------------------
# the route modulo the commutator ideal against the quotient algebra
# ---------------------------------------------------------------------------

def commutative_pairs():
    """A field with its largest dimension, and a seed for
    ``random_commutative_pair``."""
    return st.tuples(st.sampled_from([(QQ, 6), (GF(3), 6), (GF(5), 5), (GF(7), 5)]),
                     st.integers(0, 2 ** 32 - 1))


def drawn_algebras(case):
    """``(rng, (B, gd(B, d), gd(B, d) rebased))`` for one draw of
    :func:`commutative_pairs`."""
    (F, max_dim), seed = case
    rng = random.Random(seed)
    B, d = random_commutative_pair(rng, max_dim=max_dim, field=F)
    A = gd_construct(B, d)
    return rng, (B, A, rebased(A, rng))


@settings(max_examples=60, deadline=None)
@given(commutative_pairs())
def test_radical_and_initial_lift_match_the_quotient_algebra_route(case):
    rng, algebras = drawn_algebras(case)
    for A in algebras:
        if classify(A).lie_solvable is None:
            continue
        assert baer_radical(A).radical == reference_radical(A)
        for x in [A.basis_vector(0)] + [random_element(A, rng) for _ in range(3)]:
            lifted = quasi_inverse_lift(A, x)
            want = reference_initial_lift(A, x)
            assert (lifted is None) == (want is None)
            if lifted is not None:
                assert lifted[1].data["initial_lift"] == want


@settings(max_examples=60, deadline=None)
@given(commutative_pairs())
def test_every_basis_associator_lies_in_the_commutator_ideal(case):
    # A/[A,A] is commutative and left-symmetric, so (x, y, z) = -(x, y, z)
    # there: the radical route needs no associativity check of A/[A,A]
    for A in drawn_algebras(case)[1]:
        K = commutator_ideal(A, A.full_space())
        es = A.basis_vectors()
        for i, j, k in product(range(A.dim), repeat=3):
            assert K.contains(A.associator(es[i], es[j], es[k]))


# ---------------------------------------------------------------------------
# bound certificates
# ---------------------------------------------------------------------------

def test_s_sequence_from_one():
    A = gd_tpoly(4)
    t3 = A.basis_vector(2)
    I = span(A, t3)  # the commutator ideal
    cert = bound_certificates(A, t3, 1, ideal=I, claim="theorem1")
    assert cert.data["s_sequence"] == [1, 4]
    assert cert.data["holds"]
    # the arithmetic s_k = 2 s_{k-1} + 2 is forced
    s = 1
    for expected in (4, 10, 22):
        s = 2 * s + 2
        assert s == expected


def test_power_collapse_certificate_on_octic_truncation():
    A = gd_tpoly(8)
    t = A.basis_vector(0)
    sq4 = A.multiply(A.left_normed_power(t, 4), A.left_normed_power(t, 4))
    assert vec_is_zero(sq4)
    cert = bound_certificates(A, t, 4, claim="lemma1")
    assert cert.data["holds"]
    assert cert.data["vanishing_exponent"] == 10
    assert check_certificate(A, cert)


def test_ideal_square_membership_on_a2():
    A = a2()
    e1 = A.basis_vector(0)
    I = span(A, A.basis_vector(1))
    cert = bound_certificates(A, e1, 2, ideal=I, claim="lemma3")
    assert cert.data["holds"]
    assert cert.data["membership_exponent"] == 6
    assert check_certificate(A, cert)


def test_theorem1_memberships_until_zero_power():
    A = a2()
    e1 = A.basis_vector(0)
    I = span(A, A.basis_vector(1))
    cert = bound_certificates(A, e1, 2, ideal=I, claim="theorem1")
    ks = [m["k"] for m in cert.data["memberships"]]
    assert ks == [1, 2]
    assert cert.data["memberships"][-1]["ideal_power_dim"] == 0
    assert cert.data["holds"]
    assert check_certificate(A, cert)


def test_certificate_preconditions():
    A = a2()
    e1 = A.basis_vector(0)
    with pytest.raises(PreconditionError):
        bound_certificates(A, e1, 1, claim="lemma1")  # (e1^1)^2 = e2 != 0
    with pytest.raises(PreconditionError):
        bound_certificates(A, e1, 1, ideal=span(A, A.basis_vector(1)),
                           claim="lemma3")  # e1 not in the ideal
    with pytest.raises(NotAnIdealError):
        bound_certificates(A, e1, 2, ideal=span(A, e1), claim="lemma3")
    with pytest.raises(PreconditionError):
        bound_certificates(A, e1, 2, claim="lemma3")  # no ideal given


def test_certificate_sweep_on_corpus():
    # every admissible (x, n, I) over the corpus certifies cleanly
    certified = 0
    for name, A in q_corpus():
        ideals = [A.zero_space(), A.full_space(),
                  commutator_ideal(A, A.full_space())]
        for x in A.basis_vectors():
            for n in range(1, A.dim + 2):
                xn = A.left_normed_power(x, n)
                for I in ideals:
                    if not I.contains(xn):
                        continue
                    for claim in ("lemma3", "theorem1"):
                        cert = bound_certificates(A, x, n, ideal=I, claim=claim)
                        assert cert.data["holds"], (name, claim, n)
                        certified += 1
    assert certified > 300


def test_tampered_certificates_fail_verification():
    A = a2()
    e1 = A.basis_vector(0)
    I = span(A, A.basis_vector(1))
    cert = bound_certificates(A, e1, 2, ideal=I, claim="lemma3")
    cert.data["membership_exponent"] = 5
    assert not check_certificate(A, cert)
    cert = bound_certificates(A, e1, 2, ideal=I, claim="lemma3")
    cert.data["n"] = 1  # precondition now fails; the verifier reports False
    assert not check_certificate(A, cert)
    cert = bound_certificates(A, e1, 2, ideal=I, claim="theorem1")
    cert.data["ideal"] = span(A, e1)  # not an ideal; the memo must not hide it
    assert not check_certificate(A, cert)
    assert not check_certificate(A, cert)
    with pytest.raises(NotAnIdealError):
        bound_certificates(A, e1, 2, ideal=span(A, e1), claim="theorem1")
    lifted = quasi_inverse_lift(gd_tpoly(4), gd_tpoly(4).basis_vector(0))
    y, lcert = lifted
    lcert.data["quasi_inverse"] = gd_tpoly(4).basis_vector(1)
    assert not check_certificate(gd_tpoly(4), lcert)


def tower_certificate(A, **tampered):
    """The tower certificate of A's Baer radical, with entries replaced."""
    cert = baer_radical(A).witnesses[0]
    return Certificate("tower", dict(cert.data, **tampered))


def test_tower_certificate_rejects_a_radical_that_is_too_small():
    # gd(F[t]/(t^4), euler): every element is r-nilpotent, so the radical is
    # the whole space; the zero subspace is an ideal with no basis rows
    B = truncated_poly(4, unital=True)
    A = gd_construct(B, weighted_euler_derivation(B, range(B.dim)))
    assert baer_radical(A).radical == A.full_space()
    assert check_certificate(A, tower_certificate(A))
    assert not check_certificate(A, tower_certificate(A, radical=A.zero_space()))
    assert not check_certificate(A, tower_certificate(A, radical=span(A, A.basis_vector(3))))


def test_tower_certificate_rejects_subspaces_that_are_too_large():
    A = truncated_poly(3, unital=True)  # the tpoly3u fixture
    assert baer_radical(A).radical.dim == 2
    assert check_certificate(A, tower_certificate(A))
    assert not check_certificate(A, tower_certificate(A, radical=A.full_space()))
    assert not check_certificate(A, tower_certificate(A, commutator_ideal=A.full_space()))


def test_tower_certificate_fails_where_the_radical_route_does_not_apply():
    cert = tower_certificate(a2())
    assert check_certificate(a2(), cert)
    assert not check_certificate(a2(GF(2)), cert)  # characteristic two


def test_tower_certificate_records_the_radical_derived_index():
    # the containment witness: the radical's derived series reaches zero
    for name, A in q_corpus():
        cert = baer_radical(A).witnesses[0]
        index = cert.data["radical_derived_index"]
        assert index is not None, name
        assert index == chain(A, "derived", base=cert.data["radical"]).index, name
        assert not check_certificate(A, Certificate("tower", dict(
            cert.data, radical_derived_index=index + 1))), name
    # on tpoly3u the whole space is not solvable, so no index witnesses it
    A = truncated_poly(3, unital=True)
    assert chain(A, "derived", base=A.full_space()).index is None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5]), st.randoms(use_true_random=False), st.data())
def test_tower_certificate_tampering_against_the_oracle(p, rng, data):
    # random Lie-solvable gd(B, d) over GF(3) up to dim 5 and GF(5) up to
    # dim 4; the oracle enumerates every point, so its budget is given here.
    # The radical of such a gd(B, d) is all of it, so a smaller one gets a
    # random commutative associative summand, whose split and unital blocks
    # leave elements outside the radical
    F = GF(p)
    top = 5 if p == 3 else 4
    B, d = random_commutative_pair(rng, max_dim=top, field=F)
    A = gd_construct(B, d)
    if A.dim < top:
        A = direct_sum(A, random_commutative_pair(rng, max_dim=top - A.dim, field=F)[0])
    assume(chain(A, "lie").index is not None)
    cert = baer_radical(A).witnesses[0]
    rad = cert.data["radical"]
    assert rad == bruteforce_baer_tower(A, budget=p ** A.dim)[1]
    assert check_certificate(A, cert)
    if rad.dim:
        drop = data.draw(st.integers(0, rad.dim - 1), label="dropped row")
        rows = rad.rows[:drop] + rad.rows[drop + 1:]
        assert not check_certificate(A, tower_certificate(A, radical=span(A, *rows)))
    if not rad.is_full():
        outside = data.draw(st.tuples(*[st.integers(0, p - 1)] * A.dim)
                            .filter(lambda v: not rad.contains(v)), label="added vector")
        assert not check_certificate(A, tower_certificate(A, radical=rad.sum(span(A, outside))))


def scalars(F):
    if F.p is not None:
        return st.integers(0, F.p - 1)
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def quasiregular_cases(draw):
    """(A, x, side): random structure constants of dim 1-3 over QQ, GF(3)
    or GF(5), optionally with a unit adjoined.  With a unit, x may be 1 + n
    for n in A: R_x - Id then maps the hull into A, which misses x, so
    these draws are always unsolvable."""
    F = draw(st.sampled_from([QQ, GF(3), GF(5)]))
    dim = draw(st.integers(1, 3))
    entry = st.one_of(st.just(0), st.just(0), scalars(F))
    products = {(i, j): tuple(draw(entry) for _ in range(dim))
                for i in range(dim) for j in range(dim)}
    A = AlgebraTable.from_products(F, dim, products)
    x = tuple(draw(scalars(F)) for _ in range(dim))
    if draw(st.booleans()):
        A = adjoin_unit(A)
        x += (F.one if draw(st.booleans()) else draw(scalars(F)),)
    return A, x, draw(st.sampled_from(["left", "right"]))


@settings(max_examples=200, deadline=None)
@given(quasiregular_cases())
def test_integer_quasiregular_solve_matches_the_matrix_route(case):
    A, x, side = case
    x = A.element(x)
    op = operator_matrix(A, x, side="right" if side == "left" else "left")
    expected = solve(op - identity_matrix(A.field, A.dim), x)
    assert quasiregular_solve(A, x, side=side) == expected
