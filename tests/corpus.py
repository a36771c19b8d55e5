"""Shared algebra corpus for the test suite.

``q_corpus`` is the rational-field population (all dims <= 6, every member
a verified Novikov algebra, hence Lie-solvable in characteristic zero);
``gf3_population`` and ``gf2_population`` are the small prime-field
populations used against the brute-force oracle.  The first two end with a
``rebased`` copy of each member whose commutator ideal is nonzero.

``ref_gauss_jordan`` is the textbook elimination on field scalars that the
integer echelon rows are checked against, with the spans, kernels and
solutions read from it.

``random_element``, the basis products, ``operator_matrix`` and
``identity_matrix`` are the sampling and matrix helpers that only the tests
use.

``reference_identity`` is the identity check contracted in field scalars
(``Fraction`` over QQ) on ``index``, which ``verify_identity`` does in
integers on the integer index instead.

``reference_radical`` and ``reference_initial_lift`` take the radical route
through the quotient algebra A/[A,A] that ``quotient`` builds, which the
radicals compute modulo the commutator ideal instead; ``rebased`` gives an
algebra whose ideals are not spanned by basis vectors.
"""

import random
from functools import lru_cache

from novikov import GF, QQ, AlgebraTable, Matrix, Subspace
from novikov.constructions import (direct_sum, example1_algebra, gd_construct,
                                   random_commutative_pair, split_idempotents,
                                   truncated_poly, truncated_poly_derivation,
                                   weighted_euler_derivation, zero_algebra)
from novikov.core import IdentityFailure, IdentityReport, terms, verify_identity
from novikov.exactlin import from_int_vector, int_vector, solve
from novikov.ideals import classify, commutator_ideal, ideal_closure, quotient
from novikov.radicals import nilradical_commutative, quasiregular_solve


def a2(field=QQ):
    """dim 2, e1 e1 = e2, everything else zero."""
    return AlgebraTable.from_products(field, 2, {(0, 0): (0, 1)})


def field_algebra(field=QQ):
    """1-dimensional e e = e."""
    return AlgebraTable.from_products(field, 1, {(0, 0): (1,)})


@lru_cache(maxsize=None)
def q_corpus():
    items = []

    def add(name, algebra):
        items.append((name, algebra))

    for n in range(2, 7):
        add(f"tpoly{n}", truncated_poly(n))
    for n in range(2, 6):
        add(f"tpoly{n}u", truncated_poly(n, unital=True))
    add("field_q", field_algebra())
    add("q_x_q", split_idempotents(2))
    add("zero1", zero_algebra(1))
    add("zero3", zero_algebra(3))

    B4 = truncated_poly(4)
    gd4 = gd_construct(B4, weighted_euler_derivation(B4, [1, 2, 3]))
    add("gd_tpoly4_euler", gd4)
    B5 = truncated_poly(5)
    add("gd_tpoly5_2euler",
        gd_construct(B5, weighted_euler_derivation(B5, [2, 4, 6, 8])))
    add("gd_tpoly5_shift",
        gd_construct(B5, truncated_poly_derivation(B5, False, (1, 1, 0, 0))))
    B3u = truncated_poly(3, unital=True)
    gd3u = gd_construct(B3u, truncated_poly_derivation(B3u, True, (0, 1, 0)))
    add("gd_tpoly3u", gd3u)
    B4u = truncated_poly(4, unital=True)
    add("gd_tpoly4u",
        gd_construct(B4u, truncated_poly_derivation(B4u, True, (0, 1, 1, 0))))
    E1, d1 = example1_algebra(1)
    add("gd_sqfree1", gd_construct(E1, d1))
    E2, d2 = example1_algebra(2)
    gd_e2 = gd_construct(E2, d2)
    add("gd_sqfree2", gd_e2)

    add("a2_plus_field", direct_sum(a2(), field_algebra()))
    add("a2_plus_a2", direct_sum(a2(), a2()))
    add("gd4_plus_field", direct_sum(gd4, field_algebra()))
    add("gd4_plus_zero", direct_sum(gd4, zero_algebra(2)))
    add("tpoly3u_plus_q", direct_sum(truncated_poly(3, unital=True), field_algebra()))

    # quotients of the above by principal ideal closures
    q1, _ = quotient(gd4, ideal_closure(gd4, Subspace.span(QQ, [gd4.basis_vector(2)], 3)))
    add("gd4_mod_t3", q1)
    q2, _ = quotient(gd_e2, ideal_closure(gd_e2, Subspace.span(QQ, [gd_e2.basis_vector(2)], 3)))
    add("gd_sqfree2_mod_top", q2)
    q3, _ = quotient(a2(), Subspace.span(QQ, [a2().basis_vector(1)], 2))
    add("a2_mod_e2", q3)

    # seeded structured random commutative pairs and their products
    rng = random.Random(90125)
    for idx in range(6):
        B, d = random_commutative_pair(rng, max_dim=5)
        add(f"rand_comm{idx}", B)
        add(f"gd_rand{idx}", gd_construct(B, d))

    items += with_rebased_copies(items, random.Random(1729))
    for name, algebra in items:
        assert algebra.dim <= 6, name
        assert verify_identity(algebra, "novikov").ok, name
    assert len(items) >= 30
    return tuple(items)


def with_rebased_copies(items, rng):
    """A ``rebased`` copy of every member with a nonzero commutator ideal
    [A,A], so that some copy's [A,A] is not spanned by basis vectors."""
    copies = [(f"{name}_rebased", rebased(A, rng)) for name, A in items
              if not commutator_ideal(A, A.full_space()).is_zero()]
    assert any(sum(map(bool, row)) > 1 for _, A in copies
               for row in commutator_ideal(A, A.full_space()).int_rows)
    return copies


def _gf_population(p):
    F = GF(p)
    items = [
        ("zero1", zero_algebra(1, field=F)),
        ("zero2", zero_algebra(2, field=F)),
        ("zero3", zero_algebra(3, field=F)),
        ("a2", a2(field=F)),
        ("field", field_algebra(field=F)),
        ("split2", split_idempotents(2, field=F)),
        ("split3", split_idempotents(3, field=F)),
        ("tpoly3", truncated_poly(3, field=F)),
        ("tpoly4", truncated_poly(4, field=F)),
        ("tpoly2u", truncated_poly(2, unital=True, field=F)),
        ("tpoly3u", truncated_poly(3, unital=True, field=F)),
        ("a2_plus_field", direct_sum(a2(field=F), field_algebra(field=F))),
        ("tpoly2_plus_field", direct_sum(truncated_poly(2, field=F),
                                         field_algebra(field=F))),
    ]
    B = truncated_poly(4, field=F)
    items.append(("gd_tpoly4", gd_construct(
        B, weighted_euler_derivation(B, [F.of_int(k) for k in (1, 2, 3)]))))
    B2u = truncated_poly(2, unital=True, field=F)
    items.append(("gd_tpoly2u", gd_construct(
        B2u, truncated_poly_derivation(B2u, True, (0, 1)))))
    B3u = truncated_poly(3, unital=True, field=F)
    items.append(("gd_tpoly3u", gd_construct(
        B3u, truncated_poly_derivation(B3u, True, (0, 1, 0)))))
    return items


@lru_cache(maxsize=None)
def gf3_population():
    """Lie-solvable Novikov algebras over GF(3), dim <= 3."""
    out = []
    for name, algebra in _gf_population(3):
        if algebra.dim > 3:
            continue
        if not verify_identity(algebra, "novikov").ok:
            continue
        if classify(algebra).lie_solvable is None:
            continue
        out.append((name, algebra))
    out += with_rebased_copies(out, random.Random(1729))
    assert len(out) >= 10
    return tuple(out)


@lru_cache(maxsize=None)
def gf2_commutative_population():
    """Commutative associative algebras over GF(2), dim <= 3."""
    out = []
    for name, algebra in _gf_population(2):
        if algebra.dim > 3:
            continue
        if (verify_identity(algebra, "commutative").ok
                and verify_identity(algebra, "associative").ok):
            out.append((name, algebra))
    assert len(out) >= 8
    return tuple(out)


# ---------------------------------------------------------------------------
# elements and operators
# ---------------------------------------------------------------------------

def random_element(A, rng, spread=2):
    """Deterministic-for-seed sample with small integer coordinates."""
    F = A.field
    if F.p is None:
        return tuple(F.of_int(rng.randint(-spread, spread)) for _ in range(A.dim))
    return tuple(rng.randrange(F.p) for _ in range(A.dim))


def left_basis_mul(A, i, v):
    """``e_i v`` through the integer product ``int_multiply``, with e_i
    given as the basis term ``((i, 1),)``; a product with no term (None)
    is the zero vector."""
    vi, dv = int_vector(A.field, v)
    out = A.int_multiply(((i, 1),), terms(vi))
    return A.zero_vector() if out is None else from_int_vector(A.field, out, dv * A._den)


def right_basis_mul(A, v, k):
    """``v e_k`` through the integer product ``int_multiply``, with e_k
    given as the basis term ``((k, 1),)``; a product with no term (None)
    is the zero vector."""
    vi, dv = int_vector(A.field, v)
    out = A.int_multiply(terms(vi), ((k, 1),))
    return A.zero_vector() if out is None else from_int_vector(A.field, out, dv * A._den)


def operator_matrix(A, x, side="right"):
    """Matrix of right (v -> vx) or left (v -> xv) multiplication by x."""
    x = A.element(x)
    if side == "right":
        cols = [left_basis_mul(A, j, x) for j in range(A.dim)]
    elif side == "left":
        cols = [right_basis_mul(A, x, j) for j in range(A.dim)]
    else:
        raise ValueError(f"unknown side {side!r}")
    return Matrix.from_columns(A.field, cols, nrows=A.dim)


def identity_matrix(field, n):
    return Matrix.diagonal(field, [field.one] * n)


# ---------------------------------------------------------------------------
# textbook Gauss-Jordan on field scalars
# ---------------------------------------------------------------------------

def ref_gauss_jordan(F, rows, pivot_limit):
    """Reduced row-echelon form by textbook Gauss-Jordan with the field's
    own operations (``Fraction`` over QQ): (nonzero rows, pivot columns)."""
    work = [[F.coerce(a) for a in r] for r in rows]
    pivots = []
    for c in range(pivot_limit):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = F.inv(work[r][c])
        work[r] = [F.mul(inv, a) for a in work[r]]
        for i in range(len(work)):
            f = work[i][c]
            if i != r and f:
                work[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return [tuple(r) for r in work[:len(pivots)]], pivots


def ref_span(F, vectors, n):
    """Reduced row-echelon rows of the span, as ``Subspace.rows`` holds them."""
    return tuple(ref_gauss_jordan(F, vectors, n)[0])


def ref_kernel(F, rows, ncols):
    """Reduced row-echelon rows of the null space of the matrix ``rows``."""
    work, pivots = ref_gauss_jordan(F, rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [F.zero] * ncols
        v[free] = F.one
        for row, q in zip(work, pivots):
            v[q] = F.neg(row[free])
        basis.append(v)
    return ref_span(F, basis, ncols)


def ref_solve(F, rows, b, ncols):
    """The solution of ``rows @ y = b`` with every free variable zero, or
    None when the system is inconsistent."""
    work, pivots = ref_gauss_jordan(F, [list(r) + [c] for r, c in zip(rows, b)], ncols + 1)
    if ncols in pivots:  # a pivot in the right-hand side column
        return None
    y = [F.zero] * ncols
    for row, q in zip(work, pivots):
        y[q] = row[ncols]
    return tuple(y)


# ---------------------------------------------------------------------------
# the radical route through the quotient algebra
# ---------------------------------------------------------------------------

def section(I, v):
    """The vector of A with the coordinates of v, a vector of
    ``quotient(A, I)[0]``, on I's non-pivot coordinates and zero on its
    pivots."""
    out = [I.field.zero] * I.ambient_dim
    for c, a in zip([c for c in range(I.ambient_dim) if c not in I.pivots], v):
        out[c] = a
    return tuple(out)


def preimage(A, I, S):
    """Preimage in A of a subspace S of the quotient A/I."""
    return Subspace.span(A.field, list(I.rows) + [section(I, v) for v in S.rows], A.dim)


def rebased(A, rng):
    """A in the basis f_i = e_i + sum over k < i of c_k e_k, with random
    c_k in {-1, 0, 1}: an isomorphic copy whose ideals, such as [A,A], are
    rarely spanned by basis vectors."""
    F, n = A.field, A.dim
    fs = [tuple(F.one if k == i else F.of_int(rng.randint(-1, 1)) if k < i else F.zero
                for k in range(n)) for i in range(n)]
    P = Matrix.from_columns(F, fs, nrows=n)
    return AlgebraTable.from_products(F, n, {(i, j): solve(P, A.multiply(u, v))
                                             for i, u in enumerate(fs)
                                             for j, v in enumerate(fs)})


def reference_radical(A):
    """The preimage of the nilradical of the quotient algebra A/[A,A]."""
    K = commutator_ideal(A, A.full_space())
    return preimage(A, K, nilradical_commutative(quotient(A, K)[0]))


def reference_initial_lift(A, x):
    """The section of the left quasi-inverse of x's image in A/[A,A], or
    None when that image is not left-quasiregular."""
    K = commutator_ideal(A, A.full_space())
    Q, proj = quotient(A, K)
    y = quasiregular_solve(Q, proj.mat_vec(A.element(x)), side="left")
    return None if y is None else section(K, y)


# ---------------------------------------------------------------------------
# identity laws contracted in field scalars
# ---------------------------------------------------------------------------

def reference_identity(A, kind, derivation=None):
    """The :class:`IdentityReport` of ``verify_identity(A, kind,
    derivation)``, with every law's sides contracted as sparse tensors of
    field scalars read from ``A.cube`` and the map's columns."""
    F, n = A.field, A.dim
    P = {(i, j): {k: c for k, c in enumerate(v) if c}
         for i, plane in enumerate(A.cube) for j, v in enumerate(plane) if any(v)}
    if kind == "commutative":
        laws = [("xy == yx", P, _ref_swapped(P, 0, 1))]
    elif kind == "leibniz":
        D = {(j,): {m: c for m, c in enumerate(derivation.column(j)) if c}
             for j in range(n) if any(derivation.column(j))}
        laws = [("d(xy) == d(x)y + x d(y)", _ref_tensor(F, _ref_apply(P, D)),
                 _ref_tensor(F, _ref_substitute(P, 0, D), _ref_substitute(P, 1, D)))]
    else:
        assoc = _ref_tensor(F, _ref_apply(P, P), minus=_ref_substitute(P, 1, P))
        if kind == "associative":
            laws = [("(xy)z == x(yz)", assoc, {})]
        elif kind == "novikov":
            right = _ref_tensor(F, _ref_apply(P, P))
            laws = [("(x,y,z) == (y,x,z)", assoc, _ref_swapped(assoc, 0, 1)),
                    ("(xy)z == (xz)y", right, _ref_swapped(right, 1, 2))]
        else:
            assert kind == "eq1", kind
            times = _ref_tensor(F, _ref_apply(assoc, P))
            laws = [("(x,y,z)t == (xt,y,z)", times,
                     _ref_tensor(F, _ref_substitute(assoc, 0, P))),
                    ("(x,y,z)t == (x,yt,z)", times,
                     _ref_tensor(F, _ref_substitute(assoc, 1, P)))]
    firsts = []
    for _, lhs, rhs in laws:
        differ = [t for t in lhs.keys() | rhs.keys() if lhs.get(t) != rhs.get(t)]
        firsts.append(min(differ) if differ else None)
    found = [t for t in firsts if t is not None]
    if not found:
        return IdentityReport(kind, True)
    t = min(found)
    law, lhs, rhs = laws[firsts.index(t)]
    lhs, rhs = (tuple(side.get(t, {}).get(k, F.zero) for k in range(n)) for side in (lhs, rhs))
    return IdentityReport(kind, False, IdentityFailure(law, t, lhs, rhs))


def _ref_tensor(F, *parts, minus=()):
    acc = {}
    for sign, contributions in [(F.one, part) for part in parts] + [(F.neg(F.one), minus)]:
        for key, a, ts in contributions:
            out = acc.setdefault(key, {})
            for k, c in ts:
                out[k] = F.add(out.get(k, F.zero), F.mul(F.mul(sign, a), c))
    return {key: v for key, out in acc.items() if (v := {k: c for k, c in out.items() if c})}


def _ref_by_slot(T, slot):
    groups = {}
    for key, v in T.items():
        groups.setdefault(key[slot], []).append((key, v.items()))
    return groups


def _ref_apply(T, S):
    groups = _ref_by_slot(S, 0)
    for key, v in T.items():
        for m, c in v.items():
            for skey, ts in groups.get(m, ()):
                yield key + skey[1:], c, ts


def _ref_substitute(T, slot, S):
    groups = _ref_by_slot(T, slot)
    for skey, v in S.items():
        for m, c in v.items():
            for key, ts in groups.get(m, ()):
                yield key[:slot] + skey[:1] + key[slot + 1:] + skey[1:], c, ts


def _ref_swapped(T, a, b):
    return {k[:a] + k[b:b + 1] + k[a + 1:b] + k[a:a + 1] + k[b + 1:]: v for k, v in T.items()}
