"""Subspace products, ideal closures, power/series chains and quotients.

Series terms, ideals and radicals are all canonical :class:`Subspace`
values over the algebra's coordinate space, so equality of results is
literal equality of echelon bases.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .core import AlgebraTable, terms
from .errors import (DimensionMismatchError, FieldMismatchError, NotAnIdealError,
                     PreconditionError)
from .exactlin import Matrix, Subspace, echelon_insert, int_tidy, int_vector

CHAIN_KINDS = ("right", "derived", "lie", "full")


def _check_subspace(A, U):
    if U.field != A.field:
        raise FieldMismatchError("subspace over a different field")
    if U.ambient_dim != A.dim:
        raise DimensionMismatchError("subspace ambient dimension differs from algebra")


def _product_span(A, pairs):
    """Span of ``{u v : u in U basis, v in V basis}`` over the ``(U, V)``
    pairs.  Each integer product of integer rows is fed straight into the
    echelon rows, since a span does not depend on the scale of its
    spanning vectors; a repeated or dependent product reduces to zero
    there, and a product with no term (None) is skipped."""
    F = A.field
    rows, pivots = [], []
    for U, V in pairs:
        vs = [terms(v) for v in V.int_rows]
        for u in U.int_rows:
            us = terms(u)
            for v in vs:
                w = A.int_multiply(us, v)
                if w is not None:
                    echelon_insert(F, rows, pivots, w)
    return Subspace(F, A.dim, rows, pivots)


def subspace_product(A, U, V):
    """Span of ``{u v : u in U basis, v in V basis}``.

    Bilinearity makes the basis products span all products of elements.
    """
    _check_subspace(A, U)
    _check_subspace(A, V)
    return _product_span(A, ((U, V),))


def is_ideal(A, U):
    """True iff AU + UA lies in U: every ``e_i u`` and ``u e_i`` over U's
    basis rows is zero or reduces to zero against U's echelon rows.  Stops
    at the first product that does not."""
    _check_subspace(A, U)
    if U.is_full():
        return True
    for u in U.int_rows:
        us = terms(u)
        for i in range(A.dim):
            e = ((i, 1),)
            for w in (A.int_multiply(e, us), A.int_multiply(us, e)):
                if w is not None and not U.contains_int(w):
                    return False
    return True


def _grow(A, rows, pivots, queue, products):
    """Drain a worklist of spanning vectors: ``products(u)`` yields the
    products of a popped vector u, each but a zero one (None) is inserted
    into the echelon rows, and every new remainder is queued in turn.
    Remainders are queued as tuples: later insertions back-eliminate the
    stored rows in place, and a queued vector should not change before it
    is read.
    """
    F = A.field
    while queue and len(rows) < A.dim:
        for w in products(queue.pop()):
            if w is not None:
                r = echelon_insert(F, rows, pivots, w)
                if r is not None:
                    queue.append(tuple(r))
    return Subspace(F, A.dim, rows, pivots)


def ideal_closure(A, S):
    """Smallest ideal containing S.

    Starting from S's rows, every new echelon remainder u is multiplied
    once by each e_i on both sides.  The rows span exactly the vectors
    queued so far, and every product of a queued vector is inserted, so
    once the queue is empty their span contains AU + UA.
    """
    _check_subspace(A, S)

    def products(u):
        us = terms(u)
        for i in range(A.dim):
            e = ((i, 1),)
            yield A.int_multiply(e, us)
            yield A.int_multiply(us, e)

    return _grow(A, [list(r) for r in S.int_rows], list(S.pivots), list(S.int_rows),
                 products)


def subalgebra_generated(A, elements):
    """Smallest multiplication-closed subspace containing the elements:
    every new echelon remainder u is multiplied on both sides by each
    remainder taken from the worklist so far, u included."""
    F = A.field
    rows, pivots, queue = [], [], []
    for x in elements:
        r = echelon_insert(F, rows, pivots, int_vector(F, A.element(x))[0])
        if r is not None:
            queue.append(tuple(r))
    taken = []

    def products(u):
        u = terms(u)
        taken.append(u)
        for v in taken:
            yield A.int_multiply(u, v)
            yield A.int_multiply(v, u)

    return _grow(A, rows, pivots, queue, products)


@lru_cache(maxsize=1024)
def commutator_ideal(A, U):
    """Span of ``{uv - vu : u, v in U basis}`` for an ideal U.

    For an ideal of a Novikov algebra this span is itself an ideal without
    further closure; that claim is a test target and re-verified in the
    suite via :func:`ideal_closure`.
    """
    _check_subspace(A, U)
    if not is_ideal(A, U):
        raise NotAnIdealError("commutator span is only taken over an ideal")
    return _commutator_span(A, U)


def _commutator_span(A, U):
    """Span of ``{uv - vu : u, v in U basis}``, from integer products.
    When one of uv and vu is zero (None) the other one, up to sign, is the
    commutator, and when both are it adds nothing."""
    F, rows = A.field, [terms(u) for u in U.int_rows]
    out, pivots = [], []
    for a, u in enumerate(rows):
        for v in rows[a + 1:]:
            uv, vu = A.int_multiply(u, v), A.int_multiply(v, u)
            if uv is None or vu is None:
                w = vu if uv is None else uv
            else:
                w = int_tidy(F, [s - t for s, t in zip(uv, vu)])
            if w is not None:
                echelon_insert(F, out, pivots, w)
    return Subspace(F, A.dim, out, pivots)


def is_trivial_ideal(A, I):
    """True iff I is an ideal with zero multiplication (I^2 = 0)."""
    _check_subspace(A, I)
    return is_ideal(A, I) and subspace_product(A, I, I).is_zero()


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

class ChainReport(namedtuple("ChainReport", "kind terms stabilized index")):
    """Successive terms of a power/series chain, 1-indexed.

    ``index`` is the first k with term_k = 0 when the chain reaches zero;
    otherwise None and the last term is the nonzero fixed point.
    """

    __slots__ = ()


@lru_cache(maxsize=4096)
def chain(A, kind, base=None):
    """Compute a descending chain until it hits zero or a fixed point.

    kinds: ``right``  T_{k+1} = T_k . base   (left-normed powers of base)
           ``derived`` T_{k+1} = T_k . T_k
           ``lie``     T_{k+1} = [T_k, T_k]  (base must be an ideal)
           ``full``    T_{k+1} = sum of T_i . T_j over i + j = k + 1

    The base defaults to the full space.  For the non-lie kinds the base
    must be multiplication-closed, which keeps every chain descending and
    makes fixed-point detection sound.
    """
    if kind not in CHAIN_KINDS:
        raise ValueError(f"unknown chain kind {kind!r}")
    if base is None:
        base = A.full_space()
    _check_subspace(A, base)
    if kind == "lie":
        if not is_ideal(A, base):
            raise NotAnIdealError("lie chain needs an ideal base")
        nxt = _commutator_span(A, base)
    else:
        # base . base is both the closure precondition and the second term
        nxt = subspace_product(A, base, base)
        if not nxt.is_subspace_of(base):
            raise PreconditionError(f"{kind} chain needs a multiplication-closed base")
        if kind == "full":
            return _full_chain(A, base, nxt)

    # these recurrences depend on the current term alone, so an adjacent
    # repeat really is a fixed point
    terms = [base]
    while nxt != terms[-1]:
        terms.append(nxt)
        if nxt.is_zero():
            break
        nxt = (_commutator_span(A, nxt) if kind == "lie"
               else subspace_product(A, nxt, base if kind == "right" else nxt))
    return ChainReport(kind, tuple(terms), True, len(terms) if terms[-1].is_zero() else None)


def _full_chain(A, base, square):
    """Chain of full powers N_{k+1} = sum over i+j=k+1 of N_i N_j, given
    ``square`` = base . base, which is N_2 and L_2 below.

    The recurrence is memoryful, so an adjacent repeat does not prove
    stabilization (a plateau can be followed by a drop).  Instead compute
    the limit of the comb-shaped chain L_{k+1} = L_k B + B L_k, whose
    recurrence is memoryless: every product of 2^{k-1} or more factors
    lies in L_k, so both chains share the same limit.
    """
    L, nL = base, square
    while nL != L:
        L = nL
        nL = _product_span(A, ((L, base), (base, L)))
    limit = L
    terms = [base]
    while terms[-1] != limit:
        k1 = len(terms) + 1
        terms.append(square if k1 == 2 else _product_span(
            A, [(terms[i - 1], terms[k1 - i - 1]) for i in range(1, k1)]))
    index = len(terms) if limit.is_zero() else None
    return ChainReport("full", tuple(terms), True, index)


class ClassifyReport(namedtuple("ClassifyReport",
                                "right_nilpotent solvable lie_solvable nilpotent")):
    """Structural predicates, each with the chain index where zero is hit
    (1-indexed) or None when the chain stabilizes at a nonzero term."""

    __slots__ = ()

    def as_dict(self):
        return self._asdict()


@lru_cache(maxsize=1024)
def classify(A):
    return ClassifyReport(
        right_nilpotent=chain(A, "right").index,
        solvable=chain(A, "derived").index,
        lie_solvable=chain(A, "lie").index,
        nilpotent=chain(A, "full").index,
    )


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def quotient(A, I):
    """Quotient algebra on the complement coordinates plus the projection.

    The quotient basis is the set of non-pivot coordinates of I's echelon
    basis, which makes the construction deterministic.  The projection P
    satisfies P(xy) = P(x)P(y) with products taken in A and the quotient.
    """
    _check_subspace(A, I)
    if not is_ideal(A, I):
        raise NotAnIdealError("quotient requires an ideal")
    F = A.field
    pivot_set = set(I.pivots)
    comp = [c for c in range(A.dim) if c not in pivot_set]
    qdim = len(comp)

    def project(v):
        res = I.residual_canonical(v)
        return tuple(res[c] for c in comp)

    proj = Matrix.from_columns(F, [project(A.basis_vector(j)) for j in range(A.dim)],
                               nrows=qdim)
    position = {c: a for a, c in enumerate(comp)}
    products = {(position[i], position[j]): project(A.basis_product(i, j))
                for i, j, _ in A._int_products() if i in position and j in position}
    names = tuple(A.basis_names[c] for c in comp)
    return AlgebraTable.from_products(F, qdim, products, names), proj

