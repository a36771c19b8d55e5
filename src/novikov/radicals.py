"""Radicals of Lie-solvable Novikov algebras over fields of characteristic
other than two, plus quasiregularity solvers and bound certificates.

The computation route goes through the commutative associative quotient by
the commutator ideal: its nilradical pulls back to the Baer radical, and in
finite dimension the left-quasiregular radical coincides with it.  Each
field has one nilradical route: over QQ the kernel of the trace form on the
unital hull, over GF(p) the kernel of the Frobenius map x -> x^(p^m).
Every report carries re-checkable certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from math import gcd, lcm

from .constructions import adjoin_unit
from .core import terms, verify_identity
from .errors import (BudgetExceededError, CharTwoError, NotAnIdealError,
                     NotCommutativeAssociativeError, NotLieSolvableError,
                     PreconditionError, WorkbenchError)
from .exactlin import (Matrix, Subspace, from_int_vector, int_solve, int_vector,
                       kernel, vec_add, vec_is_zero)
from .ideals import (chain, commutator_ideal, is_ideal,
                     preimage_under_quotient, quotient, quotient_section,
                     subspace_product)

CLAIM_TAGS = ("lemma1", "lemma3", "theorem1", "lifting", "quasireg", "tower")

# Largest exponent a bound certificate may ask of an element that is not
# r-nilpotent: its powers never vanish, so reaching x^s costs s - 1 products.
MAX_POWER_EXPONENT = 1 << 16


@dataclass
class Certificate:
    """Machine-checkable record of one verified claim instance.

    ``data`` stores the raw inputs alongside every asserted equality or
    membership, so :func:`check_certificate` can re-derive all of it.
    """

    claim: str
    data: dict = dc_field(default_factory=dict)


@dataclass
class RadicalReport:
    kind: str
    radical: Subspace
    route: str
    witnesses: list


# ---------------------------------------------------------------------------
# nilradical of a commutative associative algebra
# ---------------------------------------------------------------------------

def nilradical_commutative(A):
    """Nilpotent elements of a commutative associative algebra as a subspace.

    Over QQ: adjoin a unit and take the kernel in A of the trace form
    beta(x, y) = trace(L_{xy}) on the hull, the ``a`` in A with
    ``beta(a, y) = 0`` for every y in the hull.

    Over GF(p): x -> x^p is GF(p)-linear on a commutative algebra of
    characteristic p, and so is its power x -> x^q for q = p^m.  With q the
    least such power with q >= dim + 1, x is nilpotent exactly when
    x^q = 0, so the nilradical is the kernel of the matrix whose columns
    are the e_i^q, each found by square-and-multiply.
    """
    if not verify_identity(A, "commutative").ok or not verify_identity(A, "associative").ok:
        raise NotCommutativeAssociativeError(
            "nilradical route requires a commutative associative algebra")
    F, d = A.field, A.dim
    if F.p is not None:
        q = F.p
        while q <= d:
            q *= F.p
        cols = [_int_power(A, [int(k == i) for k in range(d)], q) for i in range(d)]
        return kernel(Matrix.from_columns(F, cols, nrows=d))
    hull = adjoin_unit(A)
    n = hull.dim
    # trace(L_{e_k}): the coefficient of e_i in e_k e_i, summed over i
    traces = [sum(c for i, ts in enumerate(hull.index[k]) for t, c in ts if t == i)
              for k in range(n)]
    # A sits in the hull as the first d coordinates; beta is symmetric, so
    # row j of the Gram matrix on those columns is beta(e_j, -) on A
    gram = [[F.zero] * d for _ in range(n)]
    for j, i, terms in hull.nonzero_products():
        if i < d:
            gram[j][i] = sum(c * traces[k] for k, c in terms)
    return kernel(Matrix(F, gram, ncols=d))


def _int_power(A, x, e):
    """x^e for an integer vector x over GF(p) and e >= 1, by left-to-right
    square and multiply on ``int_multiply``; A is power-associative."""
    xs, out = terms(x), x
    for bit in bin(e)[3:]:
        out = A.int_multiply(terms(out), terms(out))
        if bit == "1":
            out = A.int_multiply(terms(out), xs)
    return out


# ---------------------------------------------------------------------------
# radical preconditions and the shared quotient route
# ---------------------------------------------------------------------------

def _require_radical_preconditions(A):
    if A.field.characteristic == 2:
        raise CharTwoError("radical route needs characteristic other than two")
    rep = verify_identity(A, "novikov")
    if not rep.ok:
        raise PreconditionError(
            f"input is not a Novikov algebra: {rep.failure.law} fails at "
            f"{rep.failure.indices}")
    if chain(A, "lie").index is None:
        raise NotLieSolvableError("radical route requires a Lie-solvable algebra")


def _commutative_quotient(A):
    K = commutator_ideal(A, A.full_space())
    Q, proj = quotient(A, K)
    if not (verify_identity(Q, "commutative").ok and verify_identity(Q, "associative").ok):
        # impossible for a genuine Novikov input
        raise RuntimeError("quotient by the commutator ideal is not commutative associative")
    return K, Q, proj


@lru_cache(maxsize=256)
def _radical_subspace(A):
    """``(K, rad, route)``: the commutator ideal K, the preimage rad in A of
    the nilradical of A/K, and the route taken.  One derivation per
    algebra, shared by both radicals and the ``tower`` check; an algebra
    outside the route raises, and nothing is cached for it."""
    _require_radical_preconditions(A)
    K, Q, proj = _commutative_quotient(A)
    nil = nilradical_commutative(Q)
    route = "A/[A,A] nilradical preimage; nilradical via " + (
        "trace-form kernel on the unital hull" if A.field.p is None
        else "Frobenius kernel x -> x^(p^m)")
    rad = preimage_under_quotient(A, K, nil)
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
    """Solve x + y = yx (left) or x + y = xy (right) for y, or None.

    Left quasiregularity is the linear system (R_x - Id) y = x; right uses
    L_x.  With x = X / d for an integer vector X, the system is solved on
    integer rows scaled by s = D d (see ``AlgebraTable.int_scale``): the
    columns are the integer products s (e_j x) or s (x e_j), the diagonal
    loses s, and the right-hand side is D X.  The returned witness is
    re-verified on integer products.
    """
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    x = A.element(x)
    F, n, D = A.field, A.dim, A.int_scale
    xe = int_vector(F, x)
    xi, dx = xe
    if side == "left":
        cols = [A.int_left_mul(j, xi) for j in range(n)]
    else:
        cols = [A.int_right_mul(xi, j) for j in range(n)]
    rows = [[col[i] for col in cols] + [D * xi[i]] for i in range(n)]
    for i, row in enumerate(rows):
        row[i] -= D * dx
    if F.p is not None:
        rows = [[a % F.p for a in row] for row in rows]
    y = int_solve(F, rows, n)
    if y is None:
        return None
    prod = _product(A, y, xe) if side == "left" else _product(A, xe, y)
    if any(_combine(F, (1, xe), (1, y), (-1, prod))[0]):
        raise RuntimeError("quasiregularity witness failed re-verification")
    return from_int_vector(F, *y)


# The quasiregular solvers keep an element as a pair ``(ints, den)`` for
# ``ints / den``, an integer vector and a positive den (see
# ``exactlin.int_vector``).

def _product(A, u, v):
    """The pair of u v, den not reduced."""
    return A.int_multiply(terms(u[0]), terms(v[0])), A.int_scale * u[1] * v[1]


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


@lru_cache(maxsize=256)
def _lift_context(A):
    _require_radical_preconditions(A)
    K, Q, proj = _commutative_quotient(A)
    return K, chain(A, "right", base=K), Q, proj, quotient_section(K)


def quasi_inverse_lift(A, x):
    """Left quasi-inverse of x by lifting from the commutative quotient.

    Solve quasiregularity of the image of x in A/[A,A] linearly, lift any
    preimage y, and correct it: with v = -(x + y - yx) in the n-th
    left-normed power of the commutator ideal, the update
    y <- y + v - vy + (v, y, y) pushes v into the (n+1)-st power.  The
    loop ends within the right-nilpotency index of the commutator ideal.
    The residual and the update run on integer vectors with one
    denominator in lowest terms.
    Returns (y, certificate), or None when the quotient step is unsolvable
    (x is not left-quasiregular, matching :func:`quasiregular_solve`).
    """
    x = A.element(x)
    F = A.field
    K, kchain, Q, proj, sec = _lift_context(A)
    yq = quasiregular_solve(Q, proj.mat_vec(x), side="left")
    if yq is None:
        return None
    initial = sec.mat_vec(yq)
    xe, y = int_vector(F, x), int_vector(F, initial)
    steps = []
    n = 1
    while True:
        v = _combine(F, (1, _product(A, y, xe)), (-1, xe), (-1, y))
        if not any(v[0]):  # x + y = yx
            break
        if n > len(kchain.terms):
            raise RuntimeError("lifting failed to terminate within the "
                               "right-nilpotency index of the commutator ideal")
        if not kchain.terms[n - 1].contains_int(v[0]):
            raise RuntimeError(f"lifting residual left power {n} of the commutator ideal")
        steps.append({"n": n, "residual": from_int_vector(F, *v)})
        vy = _product(A, v, y)
        y = _combine(F, (1, y), (1, v), (-1, vy), (1, _product(A, vy, y)),
                     (-1, _product(A, v, _product(A, y, y))))
        n += 1
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
    """``power(s)``: x^s for non-decreasing s, read off one walk of the
    left-normed powers of x.  The walk ends at the first zero power, so
    past it every exponent costs nothing.  Once it has passed x^(dim+1)
    without a zero power, x is not r-nilpotent, and an exponent above
    ``MAX_POWER_EXPONENT`` raises :class:`BudgetExceededError`."""
    walk = A.left_normed_powers(x)
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
    from one power sequence of x.
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
        xn = power(n)
        sq_n = A.multiply(xn, xn)
        xn1 = power(n + 1)
        sq_n1 = A.multiply(xn1, xn1)
        if not vec_is_zero(sq_n) or not vec_is_zero(sq_n1):
            raise PreconditionError(
                "claim needs (x^n)^2 = 0 and (x^{n+1})^2 = 0 for the given n")
        return Certificate("lemma1", {
            "element": tuple(x), "n": n,
            "square_power_n_zero": True,
            "square_power_n1_zero": True,
            "vanishing_exponent": 2 * n + 2,
            "holds": vec_is_zero(power(2 * n + 2)),
        })

    if ideal is None:
        raise PreconditionError(f"claim {claim} needs an ideal")
    if not _cached_is_ideal(A, ideal):
        raise NotAnIdealError("membership claims need an ideal")
    if not ideal.contains(power(n)):
        raise PreconditionError("claim needs x^n in the ideal for the given n")

    if claim == "lemma3":
        i2 = subspace_product(A, ideal, ideal)
        return Certificate("lemma3", {
            "element": tuple(x), "n": n, "ideal": ideal,
            "membership_exponent": 2 * n + 2,
            "holds": i2.contains(power(2 * n + 2)),
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
        member = term.contains(power(s))
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
        x, y = d["element"], d["quasi_inverse"]
        if vec_add(A.field, x, y) != A.multiply(y, x):
            return False
        K = commutator_ideal(A, A.full_space())
        kchain = chain(A, "right", base=K)
        for step in d["steps"]:
            term = kchain.terms[step["n"] - 1]
            if not term.contains(step["residual"]):
                return False
        return True
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
