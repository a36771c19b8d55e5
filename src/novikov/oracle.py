"""Brute-force ground truth over small prime fields.

Everything here is exhaustive within an explicit point budget (the number
of vectors p^dim); exceeding the budget is a hard error, never a silent
truncation, and it is raised before anything is enumerated.  Enumeration
orders are deterministic, so downstream reports are byte-reproducible.

Every ideal-based answer is read off one lattice: :func:`enumerate_ideals`
filters the subspaces of A once per (algebra, budget) and memoizes the
result.  The Baer tower walks that list through the correspondence
theorem, and both quotient intersections iterate the same list.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .core import verify_identity
from .errors import BudgetExceededError, WorkbenchError
from .exactlin import Subspace, vec_is_zero
from .ideals import _quotient, is_ideal, subspace_product

DEFAULT_BUDGET = 81  # 3^4 coordinate vectors


def _require_prime_field(field):
    if field.p is None:
        raise WorkbenchError("brute-force enumeration needs a prime field")
    return field.p


def _check_budget(field, dim, budget):
    p = _require_prime_field(field)
    budget = DEFAULT_BUDGET if budget is None else budget
    points = p ** dim
    if points > budget:
        raise BudgetExceededError(
            f"{points} points of GF({p})^{dim} exceed the budget {budget}")
    return budget


def enumerate_vectors(field, dim, budget=None):
    """All coordinate vectors of GF(p)^dim in lexicographic order."""
    p = _require_prime_field(field)
    _check_budget(field, dim, budget)
    return [tuple(v) for v in product(range(p), repeat=dim)]


def enumerate_subspaces(field, dim, budget=None):
    """Every subspace of GF(p)^dim exactly once.

    Subspaces are produced by echelon shape: for each dimension k and each
    pivot-column set, fill the free entries (positions right of a pivot in
    non-pivot columns) in all possible ways.  Each filling is a distinct
    reduced echelon basis, hence a distinct subspace.
    """
    p = _require_prime_field(field)
    _check_budget(field, dim, budget)
    one, zero = field.one, field.zero
    for k in range(dim + 1):
        for pivots in combinations(range(dim), k):
            pivot_set = set(pivots)
            free = [(r, c) for r in range(k) for c in range(dim)
                    if c not in pivot_set and c > pivots[r]]
            for values in product(range(p), repeat=len(free)):
                rows = [[zero] * dim for _ in range(k)]
                for r in range(k):
                    rows[r][pivots[r]] = one
                for (r, c), v in zip(free, values):
                    rows[r][c] = v
                yield Subspace(field, dim, rows, pivots)


@lru_cache(maxsize=256)
def enumerate_ideals(A, budget=None):
    """Every ideal of A, in the order of :func:`enumerate_subspaces`.

    Memoized per ``(A, budget)``; the tuple keeps the shared lattice safe
    from callers.  The oracle's own callers pass the budget resolved by
    :func:`_check_budget`, so they share one entry per algebra.
    """
    _check_budget(A.field, A.dim, budget)
    return tuple(S for S in enumerate_subspaces(A.field, A.dim, budget)
                 if is_ideal(A, S))


def power_iteration_index(A, x, max_exponent):
    """Smallest n <= max_exponent with x^n = 0 by direct iteration, or None."""
    p = tuple(x)
    for n in range(1, max_exponent + 1):
        if vec_is_zero(p):
            return n
        p = A.multiply(p, x)
    return None


def bruteforce_nilpotents(A, budget=None):
    """All x with x^(dim+1) = 0, by direct power iteration over every point."""
    out = []
    for x in enumerate_vectors(A.field, A.dim, budget):
        if power_iteration_index(A, x, A.dim + 1) is not None:
            out.append(x)
    return out


def bruteforce_baer_tower(A, budget=None):
    """The radical tower by definition: stage one is the sum of all trivial
    ideals, and each later stage is the preimage of the sum of all trivial
    ideals of A/J, J the stage before, until the tower stabilizes (at most
    dim steps in finite dimension).

    Every stage is read off the ideal lattice of A.  By the correspondence
    theorem an ideal of A/J is I/J for an ideal I of A that contains J,
    and I/J is trivial exactly when I I lies in J; the preimage of their
    sum is the sum of those I.  An I already inside the running sum adds
    nothing and is skipped.
    """
    budget = _check_budget(A.field, A.dim, budget)
    ideals = enumerate_ideals(A, budget)
    tower = []
    current = Subspace.zero(A.field, A.dim)
    while True:
        nxt = current
        for I in ideals:
            if (current.is_subspace_of(I) and not I.is_subspace_of(nxt)
                    and subspace_product(A, I, I).is_subspace_of(current)):
                nxt = nxt.sum(I)
        if nxt == current:
            break
        tower.append(nxt)
        current = nxt
    if not tower:
        tower = [current]
    return tower, current


def _find_unit(A, points):
    basis = A.basis_vectors()
    for u in points:
        if vec_is_zero(u):
            continue
        if all(A.multiply(u, e) == e and A.multiply(e, u) == e for e in basis):
            return u
    return None


def _is_integral_domain(Q, budget):
    """Commutative associative with no nonzero zero divisors, checked on
    every pair of points.  The zero-dimensional algebra passes vacuously."""
    if Q.dim == 0:
        return True
    if not (verify_identity(Q, "commutative").ok and verify_identity(Q, "associative").ok):
        return False
    points = [x for x in enumerate_vectors(Q.field, Q.dim, budget)
              if not vec_is_zero(x)]
    for x in points:
        for y in points:
            if vec_is_zero(Q.multiply(x, y)):
                return False
    return True


def _is_field_algebra(Q, budget):
    """Nonzero, commutative associative, with a unit and every nonzero
    element invertible; all checked exhaustively."""
    if Q.dim == 0:
        return False
    if not (verify_identity(Q, "commutative").ok and verify_identity(Q, "associative").ok):
        return False
    points = enumerate_vectors(Q.field, Q.dim, budget)
    unit = _find_unit(Q, points)
    if unit is None:
        return False
    nonzero = [x for x in points if not vec_is_zero(x)]
    for x in nonzero:
        if not any(Q.multiply(x, y) == unit for y in nonzero):
            return False
    return True


def quotient_intersection(A, kind, budget=None):
    """Intersection of all ideals whose quotient is an integral domain or a
    field; the full space when no ideal qualifies.

    Iterates the memoized ideal lattice, so the domain and field
    intersections of one algebra share one enumeration and their
    quotients.
    """
    if kind not in ("domain", "field"):
        raise ValueError(f"unknown quotient kind {kind!r}")
    budget = _check_budget(A.field, A.dim, budget)
    test = _is_integral_domain if kind == "domain" else _is_field_algebra
    result = Subspace.full(A.field, A.dim)
    for I in enumerate_ideals(A, budget):  # ideals already: no is_ideal re-test
        Q, _proj = _quotient(A, I)
        if test(Q, budget):
            result = result.intersect(I)
    return result
