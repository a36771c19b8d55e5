"""Brute-force ground truth over small prime fields.

Everything here is exhaustive within an explicit point budget (the number
of vectors p^dim); exceeding the budget is a hard error, never a silent
truncation, and it is raised before anything is enumerated.  Enumeration
orders are deterministic, so downstream reports are byte-reproducible.

Membership is decided on point sets.  A point's code is its index in
:func:`enumerate_vectors` order, the base-p integer of its coordinates,
and a subspace is held with the bitmask of the codes of its p^k points.
The subspaces of GF(p)^dim and their masks are listed once per (p, dim)
and shared by every algebra of that dimension; a lattice of more than
``MAX_LATTICE_SUBSPACES`` subspaces is refused before it is built.
:func:`enumerate_ideals` keeps a subspace S when the point of every
``e_i r`` and ``r e_i``, r a row of S, lies in S's mask, and memoizes the
result per (algebra, budget); it never calls the echelon ideal test it is
meant to check.  The Baer tower walks that list through the
correspondence theorem with mask tests, and both quotient intersections
iterate the same list.  They build no quotient algebra: A/I is decided on
A's own points, a coset named by its point supported on I's non-pivot
coordinates and a point of I by its bit in I's mask.  A/I is a domain when
no two nonzero representatives multiply into I, a field when in addition a
searched representative u fixes every basis vector modulo I and every
nonzero representative has a searched inverse modulo I, and either must be
commutative associative, which holds when every basis commutator and
associator of A lies in I.  The module uses nothing of ``novikov.ideals``,
the identity checks or the linear solver it is meant to check.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, islice, product
from operator import add, sub

from .core import terms
from .errors import BudgetExceededError, WorkbenchError
from .exactlin import Subspace

DEFAULT_BUDGET = 81  # 3^4 coordinate vectors

# Most subspaces a lattice may hold: GF(3)^6 has 56,632 and GF(2)^7 29,212,
# while GF(2)^8, which a point budget of 256 admits, has 417,199.
MAX_LATTICE_SUBSPACES = 60000


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


def _point_code(p, v):
    """The index of the point v of GF(p)^dim in :func:`enumerate_vectors`
    order: its coordinates, reduced mod p, as base-p digits, the first the
    most significant.  A product with no term (None) is the origin, 0."""
    if v is None:
        return 0
    code = 0
    for a in v:
        code = code * p + a % p
    return code


def _subspace_count(p, dim):
    """The number of subspaces of GF(p)^dim: the sum over k of the
    Gaussian binomials [dim, k]_p, by [n, k] = [n-1, k-1] + p^k [n-1, k]."""
    row = [1]  # [0, 0]
    for n in range(1, dim + 1):
        row = [1] + [row[k - 1] + p ** k * row[k] for k in range(1, n)] + [1]
    return sum(row)


@lru_cache(maxsize=16)
def _subspace_lattice(field, dim):
    """``{S: mask}`` over every subspace S of GF(p)^dim, in the order of
    :func:`enumerate_subspaces`; bit c of mask is set when the point of
    code c lies in S.  It does not depend on any algebra or budget, so
    every algebra of one (p, dim) shares one enumeration; callers check
    their budget first.  A lattice of more than ``MAX_LATTICE_SUBSPACES``
    subspaces is refused before anything is built."""
    p = field.p
    count = _subspace_count(p, dim)
    if count > MAX_LATTICE_SUBSPACES:
        raise BudgetExceededError(
            f"{count} subspaces of GF({p})^{dim} exceed the lattice bound "
            f"{MAX_LATTICE_SUBSPACES}")
    lattice = {}
    for S in enumerate_subspaces(field, dim, p ** dim):
        points = [(0,) * dim]  # integer combinations of the rows, unreduced
        for row in S.int_rows:
            multiples = [[c * b for b in row] for c in range(p)]
            points = [tuple(map(add, v, m)) for v in points for m in multiples]
        mask = 0
        for v in points:
            mask |= 1 << _point_code(p, v)
        lattice[S] = mask
    return lattice


@lru_cache(maxsize=256)
def enumerate_ideals(A, budget=None):
    """Every ideal of A, in the order of :func:`enumerate_subspaces`.

    S is an ideal when ``e_i r`` and ``r e_i`` lie in S for every row r of
    S and every i.  The points of those products form one image mask per
    row, computed once for all the subspaces that share the row, and S
    passes when no image has a bit outside S's mask.

    Memoized per ``(A, budget)``; the tuple keeps the shared lattice safe
    from callers.  The oracle's own callers pass the budget resolved by
    :func:`_check_budget`, so they share one entry per algebra.
    """
    _check_budget(A.field, A.dim, budget)
    p = A.field.p
    images = {}

    def image(r):
        mask = images.get(r)
        if mask is None:
            mask, rs = 0, terms(r)
            for i in range(A.dim):
                e = ((i, 1),)
                mask |= ((1 << _point_code(p, A.int_multiply(e, rs)))
                         | (1 << _point_code(p, A.int_multiply(rs, e))))
            images[r] = mask
        return mask

    return tuple(S for S, mask in _subspace_lattice(A.field, A.dim).items()
                 if not any(image(r) & ~mask for r in S.int_rows))


def power_iteration_index(A, x, max_exponent):
    """Smallest n <= max_exponent with x^n = 0 by direct iteration, or None.

    x is a point of GF(p)^dim, and each power is the next product of
    ``AlgebraTable.int_multiply``, x^n = x^(n-1) x in residues (D = 1 over
    GF(p)).  A product with no term (None) is the zero power."""
    xs = terms(x)
    power = x
    for n in range(1, max_exponent + 1):
        if power is None or not any(power):
            return n
        power = A.int_multiply(terms(power), xs)
    return None


def bruteforce_nilpotents(A, budget=None):
    """All x with x^(dim+1) = 0, by direct power iteration over every point."""
    out = []
    for x in enumerate_vectors(A.field, A.dim, budget):
        if power_iteration_index(A, x, A.dim + 1) is not None:
            out.append(x)
    return out


def _square_inside(A, I, held):
    """Whether I I lies in the subspace with point mask ``held``: the point
    of the product of every ordered pair of I's rows is in it."""
    p = A.field.p
    rows = [terms(r) for r in I.int_rows]
    return all(held >> _point_code(p, A.int_multiply(u, v)) & 1 for u in rows for v in rows)


def bruteforce_baer_tower(A, budget=None):
    """The radical tower by definition: stage one is the sum of all trivial
    ideals, and each later stage is the preimage of the sum of all trivial
    ideals of A/J, J the stage before, until the tower stabilizes (at most
    dim steps in finite dimension).

    Every stage is read off the ideal lattice of A.  By the correspondence
    theorem an ideal of A/J is I/J for an ideal I of A that contains J,
    and I/J is trivial exactly when I I lies in J; the preimage of their
    sum is the sum of those I.  An I already inside the running sum adds
    nothing and is skipped.  Containments are tests on point masks; a sum
    of ideals is a subspace, so the lattice holds its mask.
    """
    budget = _check_budget(A.field, A.dim, budget)
    lattice = _subspace_lattice(A.field, A.dim)
    masked = [(I, lattice[I]) for I in enumerate_ideals(A, budget)]
    tower = []
    current, held = Subspace.zero(A.field, A.dim), 1  # bit 0: the origin
    while True:
        nxt, grown = current, held
        for I, mask in masked:
            if (mask & held == held and mask & ~grown
                    and _square_inside(A, I, held)):
                nxt = nxt.sum(I)
                grown = lattice[nxt]
        if grown == held:
            break
        tower.append(nxt)
        current, held = nxt, grown
    if not tower:
        tower = [current]
    return tower, current


def _quotient_is(A, I, held, kind):
    """Whether A/I is an integral domain (``kind`` "domain") or a field,
    decided on A's own points against I's point mask ``held``.

    A coset of I is named by its one point supported on I's non-pivot
    coordinates, and a point lies in I when its bit is in ``held``.  No two
    nonzero representatives may multiply into I: a field has no zero
    divisors either, so this is searched first for both kinds, each new
    representative against those before it.  A field also needs some
    representative u with ``u e_j - e_j`` in I for every j, and for every
    nonzero representative x some y with ``x y - u`` in I, both found by
    search.  Either way A/I must be commutative associative: every basis
    commutator and associator of A lies in I, which is tested last, so a
    one-sided unit found above is a unit.  The zero quotient is a domain
    and not a field.
    """
    p, n = A.field.p, A.dim
    pivots = set(I.pivots)
    comp = [c for c in range(n) if c not in pivots]
    zero = [0] * n

    def inside(v):
        return held >> _point_code(p, v) & 1

    def times(u, v):  # u v, read as the zero vector when it has no term
        return A.int_multiply(u, v) or zero

    reps = []  # each new one is multiplied by every one before it, both ways
    for values in islice(product(range(p), repeat=len(comp)), 1, None):  # not zero
        x = [(c, a) for c, a in zip(comp, values) if a]
        reps.append(x)
        if any(inside(A.int_multiply(x, y)) or inside(A.int_multiply(y, x)) for y in reps):
            return False
    if kind == "field":
        unit = next((u for u in reps
                     if all(inside(map(sub, times(u, ((j, 1),)), A.basis_vector(j)))
                            for j in range(n))), None)
        if unit is None:
            return False
        u = [0] * n
        for c, a in unit:
            u[c] = a
        if not all(any(inside(map(sub, times(x, y), u)) for y in reps)
                   for x in reps):
            return False
    e = [[A.basis_product(i, j) for j in range(n)] for i in range(n)]
    ts = [[terms(v) for v in row] for row in e]
    return (all(inside(map(sub, e[i][j], e[j][i])) for i in range(n) for j in range(i))
            and all(inside(map(sub, times(ts[i][j], ((k, 1),)), times(((i, 1),), ts[j][k])))
                    for i, j, k in product(range(n), repeat=3)))


def quotient_intersection(A, kind, budget=None):
    """Intersection of all ideals whose quotient is an integral domain or a
    field; the full space when no ideal qualifies.

    Iterates the memoized ideal lattice, so the domain and field
    intersections of one algebra share one enumeration, and decides each
    quotient with :func:`_quotient_is` on A's points.  The full space
    changes no intersection and is not tested.
    """
    if kind not in ("domain", "field"):
        raise ValueError(f"unknown quotient kind {kind!r}")
    budget = _check_budget(A.field, A.dim, budget)
    lattice = _subspace_lattice(A.field, A.dim)
    result = Subspace.full(A.field, A.dim)
    for I in enumerate_ideals(A, budget):  # ideals already: no re-test
        if not I.is_full() and _quotient_is(A, I, lattice[I], kind):
            result = result.intersect(I)
    return result
