import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import (a2, field_algebra, gf2_commutative_population, gf3_population,
                    preimage)
from novikov import GF, QQ, AlgebraTable, Subspace, oracle
from novikov.constructions import zero_algebra
from novikov.core import verify_identity
from novikov.errors import BudgetExceededError, WorkbenchError
from novikov.ideals import commutator_ideal, is_ideal, is_trivial_ideal, quotient
from novikov.oracle import (bruteforce_baer_tower, bruteforce_nilpotents,
                            enumerate_ideals, enumerate_subspaces,
                            enumerate_vectors, power_iteration_index,
                            quotient_intersection)
from novikov.radicals import baer_radical, lqr_radical

F2, F3 = GF(2), GF(3)


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_subspace_counts_dim1_gf2():
    assert len(list(enumerate_subspaces(F2, 1))) == 2


def test_subspace_counts_dim2():
    assert len(list(enumerate_subspaces(F2, 2))) == 5   # 1 + 3 + 1
    assert len(list(enumerate_subspaces(F3, 2))) == 6   # 1 + 4 + 1


def test_subspace_counts_match_gaussian_binomials():
    for p, dim in ((2, 3), (3, 3), (2, 4)):
        F = GF(p)
        spaces = list(enumerate_subspaces(F, dim))
        expected = sum(gaussian_binomial(dim, k, p) for k in range(dim + 1))
        assert len(spaces) == expected
        assert len(set(spaces)) == expected  # each exactly once


def test_enumerated_subspaces_are_canonical():
    for S in enumerate_subspaces(F3, 2):
        assert Subspace.span(F3, S.rows, 2) == S


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        list(enumerate_subspaces(F3, 5))
    with pytest.raises(BudgetExceededError):
        enumerate_vectors(F2, 3, budget=7)
    assert len(enumerate_vectors(F2, 3, budget=8)) == 8


def test_enumeration_needs_prime_field():
    with pytest.raises(WorkbenchError):
        list(enumerate_subspaces(QQ, 2))


# ---------------------------------------------------------------------------
# tower
# ---------------------------------------------------------------------------

def test_tower_of_zero_algebra_one_step():
    A = zero_algebra(2, field=F3)
    tower, rad = bruteforce_baer_tower(A)
    assert len(tower) == 1
    assert rad == A.full_space()


def test_tower_of_a2_two_steps():
    A = a2(field=F3)
    tower, rad = bruteforce_baer_tower(A)
    assert [t.dim for t in tower] == [1, 2]
    assert tower[0] == Subspace.span(F3, [A.basis_vector(1)], 2)
    assert rad == A.full_space()


def test_tower_of_field_algebra_is_zero():
    A = field_algebra(field=F3)
    tower, rad = bruteforce_baer_tower(A)
    assert rad.is_zero()
    assert [t.dim for t in tower] == [0]


def test_tower_stages_are_increasing_ideals():
    for name, A in gf3_population():
        tower, rad = bruteforce_baer_tower(A)
        for earlier, later in zip(tower, tower[1:]):
            assert earlier.is_subspace_of(later), name
            assert earlier.dim < later.dim, name
        for t in tower:
            assert is_ideal(A, t), name
        assert tower[-1] == rad, name


# ---------------------------------------------------------------------------
# nilpotent elements
# ---------------------------------------------------------------------------

def test_nilpotents_of_zero_algebra_is_everything():
    A = zero_algebra(2, field=F2)
    assert len(bruteforce_nilpotents(A)) == 4


def test_nilpotents_of_field_algebra_is_origin():
    A = field_algebra(field=F2)
    assert bruteforce_nilpotents(A) == [(0,)]


def test_nilpotents_of_a2_gf2_all_four():
    A = a2(field=F2)
    assert len(bruteforce_nilpotents(A)) == 4


def test_power_iteration_index_on_idempotent():
    A = field_algebra(field=F3)
    assert power_iteration_index(A, A.basis_vector(0), 10) is None
    assert power_iteration_index(A, A.zero_vector(), 10) == 1


# ---------------------------------------------------------------------------
# quotient intersections
# ---------------------------------------------------------------------------

def test_field_algebra_intersections_zero():
    A = field_algebra(field=F3)
    assert quotient_intersection(A, "field").is_zero()
    assert quotient_intersection(A, "domain").is_zero()


def test_a2_domain_intersection_full():
    A = a2(field=F3)
    assert quotient_intersection(A, "domain") == A.full_space()


def test_zero_algebra_intersections_full():
    A = zero_algebra(2, field=F3)
    assert quotient_intersection(A, "domain") == A.full_space()
    assert quotient_intersection(A, "field") == A.full_space()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        quotient_intersection(a2(field=F3), "ring")


# ---------------------------------------------------------------------------
# oracle versus formula routes over GF(3)
# ---------------------------------------------------------------------------

def test_tower_matches_radical_and_nilpotents_and_domains():
    for name, A in gf3_population():
        _, tower_radical = bruteforce_baer_tower(A)
        formula = baer_radical(A).radical
        nil_span = Subspace.span(F3, bruteforce_nilpotents(A), A.dim)
        domains = quotient_intersection(A, "domain")
        assert tower_radical == formula, name
        assert tower_radical == nil_span, name
        assert tower_radical == domains, name


def test_lqr_matches_field_quotient_intersection():
    for name, A in gf3_population():
        assert lqr_radical(A).radical == quotient_intersection(A, "field"), name


def test_semiprime_implies_commutative():
    for name, A in gf3_population():
        _, rad = bruteforce_baer_tower(A)
        if rad.is_zero():
            assert commutator_ideal(A, A.full_space()).is_zero(), name


# ---------------------------------------------------------------------------
# GF(2): only characteristic-free identities
# ---------------------------------------------------------------------------

def test_gf2_commutative_tower_equals_nilpotent_span():
    # for commutative associative algebras the radical-equals-nilpotents
    # identity is classical and characteristic-free
    for name, A in gf2_commutative_population():
        _, rad = bruteforce_baer_tower(A)
        nil_span = Subspace.span(F2, bruteforce_nilpotents(A), A.dim)
        assert rad == nil_span, name


def test_gf2_ideal_enumeration_contains_obvious_ideals():
    A = a2(field=F2)
    ideals = enumerate_ideals(A)
    assert A.zero_space() in ideals
    assert A.full_space() in ideals
    assert Subspace.span(F2, [A.basis_vector(1)], 2) in ideals


# ---------------------------------------------------------------------------
# the lattice route against the definitions, enumerated afresh
# ---------------------------------------------------------------------------

def reference_tower(A, budget=None):
    """The tower through quotients: in A/J, J the stage before, sum every
    subspace that is a trivial ideal, and pull the sum back to A."""
    tower, current = [], A.zero_space()
    while True:
        Q, _proj = quotient(A, current)
        stage = Q.zero_space()
        for S in enumerate_subspaces(Q.field, Q.dim, budget):
            if is_trivial_ideal(Q, S):
                stage = stage.sum(S)
        nxt = preimage(A, current, stage)
        if nxt == current:
            return tower or [current]
        tower.append(nxt)
        current = nxt


def reference_quotient_is(kind, Q, budget=None):
    """Q is an integral domain, or a field, checked on every point."""
    if Q.dim and not (verify_identity(Q, "commutative").ok
                      and verify_identity(Q, "associative").ok):
        return False
    points = enumerate_vectors(Q.field, Q.dim, budget)
    nonzero = [x for x in points if any(x)]
    if kind == "domain":
        return all(any(Q.multiply(x, y)) for x in nonzero for y in nonzero)
    units = [u for u in nonzero if all(Q.multiply(u, x) == x for x in points)]
    return bool(units) and all(any(Q.multiply(x, y) == units[0] for y in nonzero)
                               for x in nonzero)


def reference_intersection(A, kind, budget=None):
    """Intersection over every subspace that is an ideal with a domain (or
    field) quotient; the full space when none qualifies."""
    result = A.full_space()
    for S in enumerate_subspaces(A.field, A.dim, budget):
        if is_ideal(A, S) and reference_quotient_is(kind, quotient(A, S)[0], budget):
            result = result.intersect(S)
    return result


def assert_matches_references(A, budget=None, name=None):
    tower, rad = bruteforce_baer_tower(A, budget)
    assert tower == reference_tower(A, budget), name
    assert rad == tower[-1], name
    for kind in ("domain", "field"):
        assert (quotient_intersection(A, kind, budget)
                == reference_intersection(A, kind, budget)), (name, kind)


def test_lattice_route_matches_references_on_gf3_population():
    for name, A in gf3_population():
        assert_matches_references(A, name=name)


def test_lattice_route_matches_references_on_gf2_commutative_population():
    for name, A in gf2_commutative_population():
        assert_matches_references(A, name=name)


@st.composite
def small_prime_field_tables(draw):
    F = GF(draw(st.sampled_from((3, 5))))
    dim = draw(st.integers(1, 3))
    cube = [[[draw(st.integers(0, F.p - 1)) for _ in range(dim)]
             for _ in range(dim)] for _ in range(dim)]
    return AlgebraTable(F, cube)


@settings(max_examples=40, deadline=None)
@given(small_prime_field_tables())
@example(AlgebraTable.from_products(F3, 2, {(0, 0): (1, 0), (0, 1): (0, 1)}))  # left unit e1
@example(AlgebraTable.from_products(  # GF(3)[t]/(t^2 + 1) = GF(9), basis 1, t
    F3, 2, {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (2, 0)}))
@example(AlgebraTable.from_products(  # GF(3)[t]/(t^2): a unit, t not invertible
    F3, 2, {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1)}))
@example(AlgebraTable.from_products(  # x o y = conj(x) y on GF(9): not commutative
    F3, 2, {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 2), (1, 1): (1, 0)}))
@example(AlgebraTable.from_products(  # x o y = conj(x y) on GF(9): not associative
    F3, 2, {(0, 0): (1, 0), (0, 1): (0, 2), (1, 0): (0, 2), (1, 1): (2, 0)}))
@example(AlgebraTable.from_products(  # GF(3) x GF(3)[t]/(t^2); e1 = (1, 0) lies in GF(3) x 0
    F3, 3, {(0, 0): (1, 0, 0), (1, 1): (0, 1, 0), (1, 2): (0, 0, 1), (2, 1): (0, 0, 1)}))
def test_lattice_route_matches_references_on_drawn_algebras(A):
    assert_matches_references(A, budget=A.field.p ** A.dim)


def test_lattice_route_on_zero_algebra():
    A = zero_algebra(3, field=F3)
    assert enumerate_ideals(A) == tuple(enumerate_subspaces(F3, 3))
    assert_matches_references(A)
    assert bruteforce_baer_tower(A)[0] == [A.full_space()]


def test_lattice_route_on_field_algebra():
    A = field_algebra(field=F3)
    assert_matches_references(A)
    assert bruteforce_baer_tower(A)[0] == [A.zero_space()]


def test_one_enumeration_serves_tower_and_both_intersections(monkeypatch):
    # the subspace lattice is listed once per (p, dim): a second algebra of
    # the same dimension, and another budget, read the same lattice
    calls, items = [], []
    real = oracle.enumerate_subspaces

    def counting(*args):
        calls.append(args)
        subspaces = list(real(*args))
        items.extend(subspaces)
        return iter(subspaces)

    monkeypatch.setattr(oracle, "enumerate_subspaces", counting)
    oracle.enumerate_ideals.cache_clear()
    oracle._subspace_lattice.cache_clear()
    A = AlgebraTable.from_products(F3, 3, {(0, 0): (0, 1, 0), (0, 1): (0, 0, 1),
                                           (2, 2): (0, 0, 1)})
    B = AlgebraTable.from_products(F3, 3, {(0, 0): (1, 0, 0), (1, 2): (0, 1, 2)})
    assert A != B
    for C in (A, B):
        bruteforce_baer_tower(C)
        quotient_intersection(C, "domain")
        quotient_intersection(C, "field")
    bruteforce_baer_tower(B, budget=27)
    assert len(calls) == 1
    assert len(items) == sum(gaussian_binomial(3, k, 3) for k in range(4))
    assert isinstance(enumerate_ideals(A, 81), tuple)


def test_refusals_come_before_any_enumeration(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "enumerate_subspaces",
                        lambda *args: calls.append(args) or iter(()))
    oracle.enumerate_ideals.cache_clear()
    oracle._subspace_lattice.cache_clear()
    big = zero_algebra(5, field=F3)
    small = zero_algebra(3, field=F3)
    with pytest.raises(BudgetExceededError):
        bruteforce_baer_tower(big)
    for kind in ("domain", "field"):
        with pytest.raises(BudgetExceededError):
            quotient_intersection(big, kind)
        with pytest.raises(BudgetExceededError):
            quotient_intersection(small, kind, budget=26)
    with pytest.raises(BudgetExceededError):
        bruteforce_baer_tower(small, budget=26)
    with pytest.raises(BudgetExceededError):
        enumerate_ideals(small, 26)
    with pytest.raises(WorkbenchError):
        bruteforce_baer_tower(a2())
    with pytest.raises(WorkbenchError):
        quotient_intersection(a2(), "domain")
    with pytest.raises(WorkbenchError):
        enumerate_ideals(a2())
    assert calls == []


def test_oversized_lattice_is_refused_before_it_is_built(monkeypatch):
    # a point budget of 2^8 admits GF(2)^8, whose 417,199 subspaces exceed
    # the lattice bound; GF(3)^6 and GF(2)^7 stay within it
    calls = []
    monkeypatch.setattr(oracle, "enumerate_subspaces",
                        lambda *args: calls.append(args) or iter(()))
    oracle.enumerate_ideals.cache_clear()
    oracle._subspace_lattice.cache_clear()
    big = zero_algebra(8, field=F2)
    with pytest.raises(BudgetExceededError, match="417199 subspaces"):
        bruteforce_baer_tower(big, budget=2 ** 8)
    with pytest.raises(BudgetExceededError):
        quotient_intersection(big, "domain", budget=2 ** 8)
    assert calls == []
    assert oracle._subspace_count(2, 8) > oracle.MAX_LATTICE_SUBSPACES
    for p, dim in ((3, 6), (2, 7)):
        assert oracle._subspace_count(p, dim) <= oracle.MAX_LATTICE_SUBSPACES
        oracle._subspace_lattice(GF(p), dim)  # the stub lists nothing
    assert calls == [(GF(3), 6, 3 ** 6), (GF(2), 7, 2 ** 7)]
    oracle._subspace_lattice.cache_clear()


@pytest.mark.parametrize("p,dim", [(2, 0), (2, 1), (2, 5), (3, 4), (5, 3), (7, 2)])
def test_subspace_count_is_the_sum_of_gaussian_binomials(p, dim):
    expected = sum(gaussian_binomial(dim, k, p) for k in range(dim + 1))
    assert oracle._subspace_count(p, dim) == expected


# ---------------------------------------------------------------------------
# point masks against the echelon routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,dim", [(2, 3), (3, 2), (3, 3), (5, 2)])
def test_point_masks_index_enumerate_vectors(p, dim):
    F = GF(p)
    points = enumerate_vectors(F, dim)
    assert [oracle._point_code(p, v) for v in points] == list(range(p ** dim))
    lattice = oracle._subspace_lattice(F, dim)
    assert list(lattice) == list(enumerate_subspaces(F, dim, p ** dim))
    for S, mask in lattice.items():
        assert mask == sum(1 << c for c, v in enumerate(points) if S.contains(v))


def one_sided(p, left):
    """dim 2 with one product, e2 e1 = e1 (left) or e1 e2 = e1: span(e2)
    is a left ideal and not a right ideal in the first, the mirror image
    in the second."""
    return AlgebraTable.from_products(GF(p), 2, {(1, 0) if left else (0, 1): (1, 0)})


def test_one_sided_ideals_are_not_ideals():
    for p in (2, 3, 5):
        for left in (True, False):
            A = one_sided(p, left)
            U = Subspace.span(A.field, [A.basis_vector(1)], 2)
            basis = A.basis_vectors()
            assert all(U.contains(A.multiply(e, u)) for e in basis for u in U.rows) == left
            assert all(U.contains(A.multiply(u, e)) for e in basis for u in U.rows) != left
            assert not is_ideal(A, U)
            assert U not in enumerate_ideals(A, p ** 2)


@st.composite
def sparse_prime_field_tables(draw):
    """Tables over GF(2), GF(3) or GF(5) up to dim 4 (at most 625 points),
    about half of whose structure constants are zero, so that proper
    ideals are common."""
    p = draw(st.sampled_from((2, 3, 5)))
    dim = draw(st.integers(1, 4))
    cube = [[[draw(st.integers(0, p - 1)) if draw(st.booleans()) else 0
              for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    return AlgebraTable(GF(p), cube)


@settings(max_examples=40, deadline=None)
@given(sparse_prime_field_tables())
@example(one_sided(3, left=True))
@example(one_sided(5, left=False))
@example(zero_algebra(4, field=GF(5)))
def test_ideal_masks_match_the_echelon_ideal_test(A):
    budget = A.field.p ** A.dim
    assert enumerate_ideals(A, budget) == tuple(
        S for S in enumerate_subspaces(A.field, A.dim, budget) if is_ideal(A, S))
