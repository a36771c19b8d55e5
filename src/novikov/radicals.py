"""Radicals of Lie-solvable Novikov algebras over fields of characteristic
other than two, plus quasiregularity solvers and bound certificates.

The computation route goes through the commutative associative quotient by
the commutator ideal: its nilradical (trace-form kernel on the unital hull,
or exhaustive enumeration over small prime fields) pulls back to the Baer
radical, and in finite dimension the left-quasiregular radical coincides
with it.  Every report carries re-checkable certificates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .constructions import adjoin_unit
from .core import verify_identity
from .errors import (BudgetExceededError, CharTwoError, NotAnIdealError,
                     NotCommutativeAssociativeError, NotLieSolvableError,
                     PreconditionError, SmallCharacteristicError, WorkbenchError)
from .exactlin import (Matrix, Subspace, kernel, vec_add, vec_is_zero, vec_neg,
                       vec_scale, vec_sub)
from .exactlin import solve as lin_solve
from .ideals import (chain, commutator_ideal, is_ideal,
                     preimage_under_quotient, quotient, quotient_section,
                     subspace_product)

CLAIM_TAGS = ("lemma1", "lemma3", "theorem1", "lifting", "quasireg", "tower")

_SAMPLE_SEED = 20417  # fixed so reports and golden files are reproducible

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

    Route: adjoin a unit, take the kernel of the trace form
    beta(x, y) = trace(L_{xy}) on the hull, and intersect with A.  Over
    GF(p) the trace argument needs p > dim, otherwise the caller must fall
    back to exhaustive enumeration.
    """
    if not verify_identity(A, "commutative").ok or not verify_identity(A, "associative").ok:
        raise NotCommutativeAssociativeError(
            "nilradical route requires a commutative associative algebra")
    F = A.field
    if F.p is not None and F.p <= A.dim:
        raise SmallCharacteristicError(
            f"trace form is unreliable for p = {F.p} <= dim = {A.dim}; "
            "use the enumeration (oracle) route")
    hull = adjoin_unit(A)
    n = hull.dim
    traces = [hull.operator_matrix(hull.basis_vector(k), side="left").trace()
              for k in range(n)]
    gram = [[F.zero] * n for _ in range(n)]
    for i, j, terms in hull.nonzero_products():
        gram[i][j] = sum(c * traces[k] for k, c in terms)
    rad_hull = kernel(Matrix(F, gram, ncols=n))
    # A sits in the hull as the first dim coordinates; nilpotents of the
    # hull already avoid the unit coordinate, the intersection is a guard
    embedded = Subspace.span(
        F, [A.basis_vector(i) + (F.zero,) for i in range(A.dim)], n)
    inter = rad_hull.intersect(embedded)
    return Subspace.span(F, [v[:A.dim] for v in inter.rows], A.dim)


def _nilradical_by_enumeration(A):
    """Exhaustive nilpotent-element span over a small prime field."""
    from .oracle import bruteforce_nilpotents
    return Subspace.span(A.field, bruteforce_nilpotents(A), A.dim)


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


def _radical_subspace(A):
    """Preimage in A of the nilradical of A/[A,A], plus the route taken."""
    K, Q, proj = _commutative_quotient(A)
    try:
        nil = nilradical_commutative(Q)
        route = ("A/[A,A] nilradical preimage; nilradical via trace-form "
                 "kernel on the unital hull")
    except SmallCharacteristicError:
        nil = _nilradical_by_enumeration(Q)
        route = ("A/[A,A] nilradical preimage; nilradical via exhaustive "
                 "enumeration (small characteristic)")
    rad = preimage_under_quotient(A, K, nil)
    if not is_ideal(A, rad):  # guaranteed by the construction
        raise RuntimeError("radical preimage failed the ideal check")
    return K, rad, route


def _random_member(A, sub, rng):
    """Random element of a subspace with small random coordinates."""
    F = A.field
    v = A.zero_vector()
    for row in sub.rows:
        c = F.of_int(rng.randint(-2, 2)) if F.p is None else rng.randrange(F.p)
        v = vec_add(F, v, vec_scale(F, c, row))
    return tuple(v)


def baer_radical(A, samples=20):
    """Baer radical via the commutative quotient.

    The result is verified to be an ideal; every basis element plus
    ``samples`` random elements of it are checked r-nilpotent, and random
    elements outside it are checked not r-nilpotent.
    """
    _require_radical_preconditions(A)
    K, rad, route = _radical_subspace(A)
    rng = random.Random(_SAMPLE_SEED)
    inside = list(rad.rows)
    inside.extend(_random_member(A, rad, rng) for _ in range(samples))
    nil_indices = []
    for v in inside:
        idx = A.r_nilpotency_index(v)
        if idx is None:  # contradicts the radical characterization
            raise RuntimeError("radical sample is not r-nilpotent")
        nil_indices.append(idx)
    outside_checked = 0
    if rad.dim < A.dim:
        for _ in range(samples):
            v = A.random_element(rng)
            if rad.contains(v):
                continue
            if A.r_nilpotency_index(v) is not None:
                raise RuntimeError("r-nilpotent element found outside the radical")
            outside_checked += 1
    cert = Certificate("tower", {
        "commutator_ideal": K,
        "radical": rad,
        "inside_samples": len(inside),
        "inside_nilpotency_indices": nil_indices,
        "outside_non_nilpotent_samples": outside_checked,
    })
    return RadicalReport("baer", rad, route, [cert])


def lqr_radical(A, samples=20):
    """Left-quasiregular radical; in finite dimension the Jacobson radical
    of the commutative quotient equals its nilradical, so the subspace
    coincides with the Baer radical."""
    _require_radical_preconditions(A)
    K, rad, route = _radical_subspace(A)
    route += ("; Jacobson radical of the finite-dimensional quotient equals "
              "its nilradical: = baer radical (finite-dimensional coincidence)")
    rng = random.Random(_SAMPLE_SEED + 1)
    witnesses = []
    sample_vectors = list(rad.rows)
    sample_vectors.extend(_random_member(A, rad, rng) for _ in range(samples))
    for v in sample_vectors:
        y = quasiregular_solve(A, v, side="left")
        if y is None:  # contradicts the radical characterization
            raise RuntimeError("radical sample is not left-quasiregular")
        witnesses.append(Certificate("quasireg", {
            "element": tuple(v), "side": "left", "quasi_inverse": tuple(y)}))
    return RadicalReport("lqr", rad, route, witnesses)


# ---------------------------------------------------------------------------
# quasiregularity
# ---------------------------------------------------------------------------

def quasiregular_solve(A, x, side="left"):
    """Solve x + y = yx (left) or x + y = xy (right) for y, or None.

    Left quasiregularity is the linear system (R_x - Id) y = x; right uses
    L_x.  The returned witness is re-verified by direct multiplication.
    """
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    x = A.element(x)
    op = A.operator_matrix(x, side="right" if side == "left" else "left")
    m = op - Matrix.identity(A.field, A.dim)
    y = lin_solve(m, x)
    if y is None:
        return None
    prod = A.multiply(y, x) if side == "left" else A.multiply(x, y)
    if vec_add(A.field, x, y) != prod:  # linear solve guarantees this
        raise RuntimeError("quasiregularity witness failed re-verification")
    return y


@lru_cache(maxsize=256)
def _lift_context(A):
    _require_radical_preconditions(A)
    K = commutator_ideal(A, A.full_space())
    kchain = chain(A, "right", base=K)
    Q, proj = quotient(A, K)
    return K, kchain, Q, proj, quotient_section(K)


def quasi_inverse_lift(A, x):
    """Left quasi-inverse of x by lifting from the commutative quotient.

    Solve quasiregularity of the image of x in A/[A,A] linearly, lift any
    preimage y, and correct it: with v = -(x + y - yx) in the n-th
    left-normed power of the commutator ideal, the update
    y <- y + v - vy + (v, y, y) pushes v into the (n+1)-st power.  The
    loop ends within the right-nilpotency index of the commutator ideal.
    Returns (y, certificate), or None when the quotient step is unsolvable
    (x is not left-quasiregular, matching :func:`quasiregular_solve`).
    """
    x = A.element(x)
    F = A.field
    K, kchain, Q, proj, sec = _lift_context(A)
    xq = proj.mat_vec(x)
    yq = quasiregular_solve(Q, xq, side="left")
    if yq is None:
        return None
    y = sec.mat_vec(yq)
    initial = y
    steps = []
    n = 1
    while True:
        v = vec_neg(F, vec_sub(F, vec_add(F, x, y), A.multiply(y, x)))
        if vec_is_zero(v):
            break
        if n > len(kchain.terms):
            raise RuntimeError("lifting failed to terminate within the "
                               "right-nilpotency index of the commutator ideal")
        if not kchain.terms[n - 1].contains(v):
            raise RuntimeError(f"lifting residual left power {n} of the commutator ideal")
        steps.append({"n": n, "residual": tuple(v)})
        y = vec_add(F, vec_sub(F, vec_add(F, y, v), A.multiply(v, y)),
                    A.associator(v, y, y))
        n += 1
    if vec_add(F, x, y) != A.multiply(y, x):
        raise RuntimeError("lifted quasi-inverse failed the defining identity")
    cert = Certificate("lifting", {
        "element": tuple(x),
        "initial_lift": tuple(initial),
        "steps": steps,
        "quasi_inverse": tuple(y),
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
    # tower: re-derive both subspaces, so a radical that is too small or
    # too large fails as well as one that is not an ideal
    try:
        _require_radical_preconditions(A)
        K, rad, _ = _radical_subspace(A)
    except WorkbenchError:
        return False
    return d["commutator_ideal"] == K and d["radical"] == rad
