"""Radicals of Lie-solvable Novikov algebras over fields of characteristic
other than two, plus quasiregularity solvers and bound certificates.

The computation route works modulo the commutator ideal K on A's own
coordinates, with no quotient algebra: A/K is commutative associative,
the x nilpotent modulo K form the Baer radical, and in finite dimension
the left-quasiregular radical coincides with it.  Each field has one
nilradical route: over QQ the kernel of the trace form of A/K's unital
hull, over GF(p) the kernel of the Frobenius map x -> x^(p^m) modulo K.
Every report carries re-checkable certificates.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm

from .core import terms, verify_identity
from .errors import (BudgetExceededError, CharTwoError, NotAnIdealError,
                     NotCommutativeAssociativeError, NotLieSolvableError,
                     PreconditionError, WorkbenchError)
from .exactlin import (Matrix, from_int_vector, int_solve, int_vector,
                       kernel, vec_add)
from .ideals import chain, commutator_ideal, is_ideal, subspace_product

CLAIM_TAGS = ("lemma1", "lemma3", "theorem1", "lifting", "quasireg", "tower")

# Largest exponent a bound certificate may ask of an element that is not
# r-nilpotent: its powers never vanish, so reaching x^s costs s - 1 products.
MAX_POWER_EXPONENT = 1 << 16


class Certificate(namedtuple("Certificate", "claim data")):
    """Machine-checkable record of one verified claim instance.

    ``data`` stores the raw inputs alongside every asserted equality or
    membership, so :func:`check_certificate` can re-derive all of it; a
    certificate made without it gets a fresh empty dict.
    """

    __slots__ = ()

    def __new__(cls, claim, data=None):
        return super().__new__(cls, claim, {} if data is None else data)


RadicalReport = namedtuple("RadicalReport", "kind radical route witnesses")


# ---------------------------------------------------------------------------
# nilradical of a commutative associative algebra
# ---------------------------------------------------------------------------

def nilradical_commutative(A):
    """Nilpotent elements of a commutative associative algebra as a subspace:
    :func:`_nilradical_mod` modulo the zero ideal."""
    if not verify_identity(A, "commutative").ok or not verify_identity(A, "associative").ok:
        raise NotCommutativeAssociativeError(
            "nilradical route requires a commutative associative algebra")
    return _nilradical_mod(A, A.zero_space())


def _nilradical_mod(A, K):
    """The x in A nilpotent modulo the ideal K, for A/K commutative
    associative, on A's own coordinates: ``K.residual_canonical`` reads
    A/K on K's non-pivot coordinates.

    Over QQ: with tau(v) = trace(L_v) on A/K, the kernel of the trace form
    (u, v) -> tau(uv) on A/K's unital hull, whose rows are tau itself (the
    unit) and x -> tau(x e_j) for every j.  tau vanishes on the ideal K.

    Over GF(p): x -> x^q is GF(p)-linear on A/K for q = p^m.  With q the
    least such power with q >= dim A/K + 1, x is nilpotent modulo K exactly
    when x^q lies in K: the kernel of the e_i^q reduced modulo K.
    """
    F, d = A.field, A.dim
    if F.p is not None:
        q = F.p
        while q <= d - K.dim:
            q *= F.p
        cols = [K.residual_canonical(_int_power(A, [int(k == i) for k in range(d)], q))
                for i in range(d)]
        return kernel(Matrix.from_columns(F, cols, nrows=d))
    pivots = set(K.pivots)
    # tau(e_k): the coefficient of e_c in e_k e_c modulo K over K's
    # non-pivot c
    tau = [F.zero] * d
    for k, c, _ in A._int_products():
        if c not in pivots:
            tau[k] += K.residual_canonical(A.basis_product(k, c))[c]
    # row j + 1 of the Gram matrix is x -> tau(x e_j), e_i e_j = sum (n / D) e_m
    gram = [tau] + [[F.zero] * d for _ in range(d)]
    for i, j, ts in A._int_products():
        gram[j + 1][i] = sum(n * tau[m] for m, n in ts) / A._den
    return kernel(Matrix(F, gram, ncols=d))


def _int_power(A, x, e):
    """x^e for an integer vector x over GF(p) and e >= 1, in one bracketing,
    by left-to-right square and multiply on ``int_multiply``; every
    bracketing agrees modulo an ideal with an associative quotient.  A
    product with no term (None) makes every later one zero."""
    xs, out = terms(x), x
    for bit in bin(e)[3:]:
        ts = terms(out)
        out = A.int_multiply(ts, ts)
        if out is not None and bit == "1":
            out = A.int_multiply(terms(out), xs)
        if out is None:
            return [0] * A.dim
    return out


# ---------------------------------------------------------------------------
# radical preconditions and the shared route modulo the commutator ideal
# ---------------------------------------------------------------------------

def _require_radical_preconditions(A):
    """Refuse an algebra outside the radical route.  Past these checks A/K
    is commutative associative for K = [A, A]: a commutative left-symmetric
    algebra has (x, y, z) = -(x, y, z)."""
    if A.field.characteristic == 2:
        raise CharTwoError("radical route needs characteristic other than two")
    rep = verify_identity(A, "novikov")
    if not rep.ok:
        raise PreconditionError(
            f"input is not a Novikov algebra: {rep.failure.law} fails at "
            f"{rep.failure.indices}")
    if chain(A, "lie").index is None:
        raise NotLieSolvableError("radical route requires a Lie-solvable algebra")


@lru_cache(maxsize=256)
def _radical_subspace(A):
    """``(K, rad, route)``: the commutator ideal K, the x in A nilpotent
    modulo K, and the route taken.  One derivation per algebra, shared by
    both radicals and the ``tower`` check; an algebra outside the route
    raises, and nothing is cached for it."""
    _require_radical_preconditions(A)
    K = commutator_ideal(A, A.full_space())
    rad = _nilradical_mod(A, K)
    route = "A/[A,A] nilradical preimage; nilradical via " + (
        "trace-form kernel on the unital hull" if A.field.p is None
        else "Frobenius kernel x -> x^(p^m)")
    if not is_ideal(A, rad):  # guaranteed by the construction
        raise RuntimeError("radical preimage failed the ideal check")
    return K, rad, route


def baer_radical(A):
    """Baer radical via the commutative quotient, with a ``tower``
    certificate: the commutator ideal, the radical and the index at which
    the radical's derived series reaches zero.

    The index is the containment witness.  In a Novikov algebra I I is an
    ideal whenever I is, so a solvable ideal lies in the Baer radical; and
    the radical is solvable, so the index is never None.
    """
    K, rad, route = _radical_subspace(A)
    index = chain(A, "derived", base=rad).index
    if index is None:  # contradicts the tower argument
        raise RuntimeError("radical is not solvable")
    cert = Certificate("tower", {
        "commutator_ideal": K,
        "radical": rad,
        "radical_derived_index": index,
    })
    return RadicalReport("baer", rad, route, [cert])


def lqr_radical(A):
    """Left-quasiregular radical; in finite dimension the Jacobson radical
    of the commutative quotient equals its nilradical, so the subspace
    coincides with the Baer radical.  Each basis row of it carries a
    ``quasireg`` witness."""
    K, rad, route = _radical_subspace(A)
    route += ("; Jacobson radical of the finite-dimensional quotient equals "
              "its nilradical: = baer radical (finite-dimensional coincidence)")
    witnesses = []
    for v in rad.rows:
        y = quasiregular_solve(A, v, side="left")
        if y is None:  # contradicts the radical characterization
            raise RuntimeError("radical row is not left-quasiregular")
        witnesses.append(Certificate("quasireg", {
            "element": v, "side": "left", "quasi_inverse": y}))
    return RadicalReport("lqr", rad, route, witnesses)


# ---------------------------------------------------------------------------
# quasiregularity
# ---------------------------------------------------------------------------

def quasiregular_solve(A, x, side="left"):
    """Solve x + y = yx (left) or x + y = xy (right) for y, or None:
    :func:`_quasiregular_mod` modulo the zero ideal."""
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    return _quasiregular_mod(A, A.element(x), side, A.zero_space())


def _quasiregular_mod(A, x, side, K):
    """Some y on K's non-pivot coordinates with x + y - yx (left) or
    x + y - xy (right) in the ideal K, or None.

    With x = X / d for an integer vector X and s = D d (D is ``A._den``,
    the scale of ``AlgebraTable.int_multiply``), this is one integer solve:
    the unknowns are the coefficients of K's rows, then y; the columns are
    K's rows, then s (e_j x) - s e_j or s (x e_j) - s e_j for each
    non-pivot j; the right-hand side is D X.  With K's columns first, a
    coordinate of y is free exactly when it is free modulo K, and free
    ones are zero.  The witness is re-verified on integer products.
    """
    F, n, D = A.field, A.dim, A._den
    xe = int_vector(F, x)
    xi, dx = xe
    xs = terms(xi)
    pivots = set(K.pivots)
    free = [j for j in range(n) if j not in pivots]
    cols = list(K.int_rows)
    for j in free:
        e = ((j, 1),)
        cols.append((A.int_multiply(e, xs) if side == "left" else A.int_multiply(xs, e))
                    or [0] * n)
        cols[-1][j] -= D * dx
    rows = [[col[i] for col in cols] + [D * xi[i]] for i in range(n)]
    if F.p is not None:
        rows = [[a % F.p for a in row] for row in rows]
    solved = int_solve(F, rows, len(cols))
    if solved is None:
        return None
    y = [0] * n, solved[1]
    for j, a in zip(free, solved[0][K.dim:]):
        y[0][j] = a
    prod = _product(A, y, xe) if side == "left" else _product(A, xe, y)
    if not K.contains_int(_combine(F, (1, xe), (1, y), (-1, prod))[0]):
        raise RuntimeError("quasiregularity witness failed re-verification")
    return from_int_vector(F, *y)


# The quasiregular solvers keep an element as a pair ``(ints, den)`` for
# ``ints / den``, an integer vector and a positive den (see
# ``exactlin.int_vector``).

def _product(A, u, v):
    """The pair of u v, den not reduced."""
    return A.int_multiply(terms(u[0]), terms(v[0])) or [0] * A.dim, A._den * u[1] * v[1]


def _combine(field, *parts):
    """The pair of ``sum c u`` over the ``(c, u)`` parts, c a small int:
    in lowest terms over QQ, in residues over GF(p)."""
    den = lcm(*[d for _, (_, d) in parts])
    out = [0] * len(parts[0][1][0])
    for c, (ints, d) in parts:
        f = c * (den // d)
        for k, a in enumerate(ints):
            if a:
                out[k] += f * a
    if field.p is not None:
        return [a % field.p for a in out], 1
    g = gcd(den, *out)
    return [a // g for a in out], den // g


def _lift_corrections(A, xe, y, kchain):
    """``(y, steps)``: the lift's corrections from a pair y to a left
    quasi-inverse of the pair xe, or None once a residual leaves its power
    of K, the first term of ``kchain``; :func:`check_certificate` replays
    them."""
    F = A.field
    steps = []
    n = 1
    while True:
        v = _combine(F, (1, _product(A, y, xe)), (-1, xe), (-1, y))
        if not any(v[0]):  # x + y = yx
            return y, steps
        if n > len(kchain.terms) or not kchain.terms[n - 1].contains_int(v[0]):
            return None
        steps.append({"n": n, "residual": from_int_vector(F, *v)})
        vy = _product(A, v, y)
        y = _combine(F, (1, y), (1, v), (-1, vy), (1, _product(A, vy, y)),
                     (-1, _product(A, v, _product(A, y, y))))
        n += 1


def quasi_inverse_lift(A, x):
    """Left quasi-inverse of x by lifting from A modulo the commutator
    ideal K.

    Solve quasiregularity of x modulo K linearly, and correct that y: with
    v = -(x + y - yx) in the n-th left-normed power of K, the update
    y <- y + v - vy + (v, y, y) pushes v into the (n+1)-st power.  The
    loop ends within the right-nilpotency index of K.  The residual and
    the update run on integer vectors with one denominator in lowest terms.
    Returns (y, certificate), or None when the step modulo K is unsolvable
    (x is not left-quasiregular, matching :func:`quasiregular_solve`).
    """
    x = A.element(x)
    F = A.field
    _require_radical_preconditions(A)
    K = commutator_ideal(A, A.full_space())
    initial = _quasiregular_mod(A, x, "left", K)
    if initial is None:
        return None
    kchain = chain(A, "right", base=K)
    lifted = _lift_corrections(A, int_vector(F, x), int_vector(F, initial), kchain)
    if lifted is None:  # contradicts the lifting argument
        raise RuntimeError("lifting residual left the left-normed powers of the "
                           "commutator ideal")
    y, steps = lifted
    y = from_int_vector(F, *y)
    cert = Certificate("lifting", {
        "element": x,
        "initial_lift": initial,
        "steps": steps,
        "quasi_inverse": y,
        "commutator_right_nilpotency_index": kchain.index,
    })
    return y, cert


# ---------------------------------------------------------------------------
# bound certificates
# ---------------------------------------------------------------------------

def _power_reader(A, x):
    """``power(s)``: x^s as an integer vector (a positive multiple of it,
    which zero tests and spans do not see), for non-decreasing s, read off
    one walk of ``A._int_powers``.  The walk ends at the first zero power,
    so past it every exponent costs nothing.  Once it has passed x^(dim+1)
    without a zero power, x is not r-nilpotent, and an exponent above
    ``MAX_POWER_EXPONENT`` raises :class:`BudgetExceededError`."""
    walk = (p for p, _ in A._int_powers(*int_vector(A.field, x)))
    e, p = 1, next(walk)

    def power(s):
        nonlocal e, p
        while e < s:
            if e > A.dim + 1 and s > MAX_POWER_EXPONENT:
                raise BudgetExceededError(
                    f"x^{s} of an element that is not r-nilpotent exceeds the "
                    f"exponent budget {MAX_POWER_EXPONENT}")
            nxt = next(walk, None)
            if nxt is None:  # p is zero, and so is every later power
                break
            e, p = e + 1, nxt
        return p

    return power


@lru_cache(maxsize=1024)
def _cached_is_ideal(A, U):
    """:func:`is_ideal` for the bound certificates' precondition: one report
    certifies many elements against the same few ideals, and
    :func:`check_certificate` re-derives each certificate."""
    return is_ideal(A, U)


def bound_certificates(A, x, n, ideal=None, claim=None):
    """Certificate for one power-bound claim.

    ``lemma1``  : from (x^n)^2 = 0 and (x^{n+1})^2 = 0 conclude x^{2n+2} = 0.
    ``lemma3``  : from x^n in I conclude x^{2n+2} in I^2.
    ``theorem1``: from x^n in I check x^{s_k} in I^[k] for s_k = 2 s_{k-1} + 2
                  until I^[k] = 0.
    The claim preconditions are enforced; the concluded membership is
    recorded as data (``holds``) rather than raised.  Every power is read
    from one integer power sequence of x, and squares and memberships are
    tested on integers.
    """
    if claim is None:
        claim = "lemma1" if ideal is None else "theorem1"
    if claim not in ("lemma1", "lemma3", "theorem1"):
        raise ValueError(f"unknown bound claim {claim!r}")
    if n < 1:
        raise PreconditionError("power exponent must be at least 1")
    x = A.element(x)
    power = _power_reader(A, x)

    if claim == "lemma1":
        ts = [terms(power(n)), terms(power(n + 1))]
        if any(any(A.int_multiply(t, t) or ()) for t in ts):
            raise PreconditionError(
                "claim needs (x^n)^2 = 0 and (x^{n+1})^2 = 0 for the given n")
        return Certificate("lemma1", {
            "element": tuple(x), "n": n,
            "square_power_n_zero": True,
            "square_power_n1_zero": True,
            "vanishing_exponent": 2 * n + 2,
            "holds": not any(power(2 * n + 2)),
        })

    if ideal is None:
        raise PreconditionError(f"claim {claim} needs an ideal")
    if not _cached_is_ideal(A, ideal):
        raise NotAnIdealError("membership claims need an ideal")
    if not ideal.contains_int(power(n)):
        raise PreconditionError("claim needs x^n in the ideal for the given n")

    if claim == "lemma3":
        i2 = subspace_product(A, ideal, ideal)
        return Certificate("lemma3", {
            "element": tuple(x), "n": n, "ideal": ideal,
            "membership_exponent": 2 * n + 2,
            "holds": i2.contains_int(power(2 * n + 2)),
        })

    ichain = chain(A, "right", base=ideal)
    s = n
    s_sequence = [s]
    memberships = []
    holds = True
    for k, term in enumerate(ichain.terms, start=1):
        if k > 1:
            s = 2 * s + 2
            s_sequence.append(s)
        member = term.contains_int(power(s))
        memberships.append({"k": k, "s_k": s, "ideal_power_dim": term.dim,
                            "holds": member})
        holds = holds and member
        if term.is_zero():
            break
    return Certificate("theorem1", {
        "element": tuple(x), "n": n, "ideal": ideal,
        "s_sequence": s_sequence,
        "memberships": memberships,
        "ideal_chain_index": ichain.index,
        "holds": holds,
    })


def check_certificate(A, cert):
    """Re-derive every equality and membership a certificate asserts.

    Tampered data (including inputs that no longer satisfy the claim's
    preconditions) yields False rather than an error.
    """
    if cert.claim not in CLAIM_TAGS:
        raise ValueError(f"unknown certificate claim {cert.claim!r}")
    d = cert.data
    if cert.claim in ("lemma1", "lemma3", "theorem1"):
        try:
            fresh = bound_certificates(A, d["element"], d["n"],
                                       ideal=d.get("ideal"), claim=cert.claim)
        except WorkbenchError:
            return False
        return fresh.data == d
    if cert.claim == "quasireg":
        x, y = d["element"], d["quasi_inverse"]
        prod = A.multiply(y, x) if d["side"] == "left" else A.multiply(x, y)
        return vec_add(A.field, x, y) == prod
    if cert.claim == "lifting":
        # re-derive the index, then replay the corrections from the stored
        # initial lift, whose residual must lie in K
        try:
            K = commutator_ideal(A, A.full_space())
            kchain = chain(A, "right", base=K)
        except WorkbenchError:
            return False
        F, y0 = A.field, A.element(d["initial_lift"])
        if (d["commutator_right_nilpotency_index"] != kchain.index
                or any(y0[c] for c in K.pivots)):
            return False
        lifted = _lift_corrections(A, int_vector(F, A.element(d["element"])),
                                   int_vector(F, y0), kchain)
        return (lifted is not None and lifted[1] == d["steps"]
                and from_int_vector(F, *lifted[0]) == d["quasi_inverse"])
    # tower: the containment witness is re-derived on the stored radical,
    # so a radical that is not solvable fails on it; both subspaces are
    # then re-derived, so a radical that is too small fails as well
    try:
        K, rad, _ = _radical_subspace(A)
        index = chain(A, "derived", base=d["radical"]).index
    except WorkbenchError:
        return False
    return (index is not None and index == d["radical_derived_index"]
            and d["commutator_ideal"] == K and d["radical"] == rad)
