"""Builders: the Gelfand-Dorfman product, square-free monomial truncations,
truncated polynomial algebras, graded derivations, unit adjunction, direct
sums, and the structured random generators used by the test corpus.

Random derivations are generated structurally (weighted gradings, images of
generators extended by the product rule) and then validated, never found by
rejection sampling over all matrices.
"""

from __future__ import annotations

from math import lcm

from .core import AlgebraTable, verify_identity
from .errors import (DimensionMismatchError, FieldMismatchError,
                     NotADerivationError, NotCommutativeAssociativeError)
from .exactlin import QQ, Matrix, int_vector, vec_add, vec_scale, vec_zeros


def gd_construct(B, d, check=True):
    """Novikov algebra on B's space with product ``x . y = x d(y)``.

    B must be commutative and associative, d a derivation of B; with those
    preconditions the result always satisfies the Novikov identities, which
    ``check=True`` re-verifies on all basis triples.
    """
    if not verify_identity(B, "commutative").ok or not verify_identity(B, "associative").ok:
        raise NotCommutativeAssociativeError(
            "the underlying algebra must be commutative and associative")
    leib = verify_identity(B, "leibniz", derivation=d)
    if not leib.ok:
        raise NotADerivationError(
            f"map fails the product rule on basis pair {leib.failure.indices}")
    # e_i . e_j = e_i d(e_j) = sum_m d_mj e_i e_m, over B's nonzero
    # products e_i e_m and the nonzero entries d_mj of row m of d, in
    # integers: B's constants times D and d's entries times e = d.den, so
    # that the sums are D e times the constants of the result
    drows = [[(j, a) for j, a in enumerate(row) if a] for row in d.int_rows]
    products = {}
    for i, m, terms in B._int_products():
        for j, a in drows[m]:
            out = products.setdefault((i, j), {})
            for k, c in terms:
                out[k] = out.get(k, 0) + a * c
    A = AlgebraTable._from_int_terms(B.field, B.dim, {ij: out.items()
                                                      for ij, out in products.items()},
                                     B._den * d.den, B.basis_names)
    if check:
        rep = verify_identity(A, "novikov")
        if not rep.ok:  # unreachable when the preconditions hold
            raise RuntimeError(f"construction lost the Novikov laws at {rep.failure}")
    return A


def truncated_poly(n, unital=False, field=QQ):
    """t F[t] / (t^n) (non-unital) or F[t]/(t^n) (unital); n >= 2."""
    if n < 2:
        raise ValueError("truncation order must be at least 2")
    if unital:
        dim = n
        names = ("one",) + tuple(f"t{k}" if k > 1 else "t" for k in range(1, n))
        exps = list(range(n))
    else:
        dim = n - 1
        names = tuple(f"t{k}" if k > 1 else "t" for k in range(1, n))
        exps = list(range(1, n))
    products = {}
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            s = a + b
            if s < n:
                products[(i, j)] = ((exps.index(s), 1),)
    return AlgebraTable._from_int_terms(field, dim, products, 1, names)


def example1_algebra(k, field=QQ):
    """Square-free monomial truncation in k variables with its degree map.

    The basis is every square-free monomial of degree >= 1 (dimension
    2^k - 1, no constants: the algebra is the augmentation ideal, which is
    nilpotent of index k + 1).  The returned diagonal map scales each
    monomial by its degree and satisfies the product rule because the
    algebra is graded by degree.
    """
    if k < 1:
        raise ValueError("need at least one variable")
    dim = 2 ** k - 1
    # basis index i corresponds to the nonzero bitmask i + 1
    names = []
    for mask in range(1, 2 ** k):
        names.append("".join(f"x{b + 1}" for b in range(k) if mask >> b & 1))
    products = {}
    for i in range(dim):
        a = i + 1
        for j in range(dim):
            b = j + 1
            if a & b:
                continue  # repeated variable squares to zero
            products[(i, j)] = (((a | b) - 1, 1),)
    B = AlgebraTable._from_int_terms(field, dim, products, 1, names)
    weights = [field.of_int(bin(i + 1).count("1")) for i in range(dim)]
    return B, Matrix.diagonal(field, weights)


def weighted_euler_derivation(A, weights):
    """Diagonal map e_i -> w_i e_i, validated against the product rule."""
    if len(weights) != A.dim:
        raise DimensionMismatchError("one weight per basis vector required")
    F = A.field
    weights = [F.coerce(w) for w in weights]
    w, _ = int_vector(F, weights)  # residues over GF(p)
    for i, j, terms in A._int_products():
        wij = w[i] + w[j] if F.p is None else (w[i] + w[j]) % F.p
        for kk, _ in terms:
            if w[kk] != wij:
                raise NotADerivationError(
                    f"weights are not compatible with the grading at "
                    f"product ({i}, {j}) component {kk}")
    return Matrix.diagonal(F, weights)


def adjoin_unit(A):
    """A with a two-sided identity adjoined as the last basis vector."""
    F = A.field
    dim = A.dim + 1
    u = A.dim
    products = {(i, j): terms for i, j, terms in A._int_products()}
    for i in range(dim):
        products[(i, u)] = products[(u, i)] = ((i, A._den),)
    names = list(A.basis_names)
    uname = "unit"
    while uname in names:
        uname += "_"
    return AlgebraTable._from_int_terms(F, dim, products, A._den, names + [uname])


def direct_sum(A, B):
    """Block direct sum; the summands multiply to zero against each other."""
    if A.field != B.field:
        raise FieldMismatchError("direct summands over different fields")
    dim = A.dim + B.dim
    den = lcm(A._den, B._den)
    sa, sb = den // A._den, den // B._den
    products = {(i, j): [(k, sa * n) for k, n in terms]
                for i, j, terms in A._int_products()}
    off = A.dim
    for i, j, terms in B._int_products():
        products[(off + i, off + j)] = [(off + k, sb * n) for k, n in terms]
    names = list(A.basis_names) + list(B.basis_names)
    if len(set(names)) != dim:
        names = [f"a_{n}" for n in A.basis_names] + [f"b_{n}" for n in B.basis_names]
    return AlgebraTable._from_int_terms(A.field, dim, products, den, names)


def zero_algebra(dim, field=QQ):
    """Zero multiplication on a dim-dimensional space."""
    return AlgebraTable.from_products(field, dim, {},
                                      tuple(f"z{i + 1}" for i in range(dim)))


def split_idempotents(m, field=QQ):
    """Direct product of m copies of the base field (pairwise orthogonal
    idempotents); its only derivation is zero."""
    products = {(i, i): ((i, 1),) for i in range(m)}
    return AlgebraTable._from_int_terms(field, m, products, 1,
                                        tuple(f"p{i + 1}" for i in range(m)))


def block_diag(field, mats):
    dim = sum(m.nrows for m in mats)
    rows = []
    off = 0
    for m in mats:
        for r in m.rows:
            rows.append(vec_zeros(field, off) + r + vec_zeros(field, dim - off - m.ncols))
        off += m.ncols
    return Matrix(field, rows, ncols=dim)


# ---------------------------------------------------------------------------
# structured random (B, d) generators
# ---------------------------------------------------------------------------

def _random_scalar(rng, field, spread=2, nonzero=False):
    if field.p is None:
        lo = 1 if nonzero else -spread
        v = rng.randint(lo, spread) if nonzero else rng.randint(-spread, spread)
        return field.of_int(v)
    v = rng.randrange(1 if nonzero else 0, field.p)
    return v


def truncated_poly_derivation(B, unital, image_of_t):
    """Derivation of a truncated polynomial algebra with d(t) = f.

    Extends by the product rule, d(t^k) = k t^{k-1} f; any f without
    constant term keeps the truncation relation because t^{n-1} f = 0.
    """
    field = B.field
    f = tuple(field.coerce(c) for c in image_of_t)
    if unital and f[0]:
        raise NotADerivationError("the image of t may not have a constant term")
    cols = []
    for i in range(B.dim):
        if unital and i == 0:
            cols.append(vec_zeros(field, B.dim))
            continue
        k = i if unital else i + 1
        col = f if k == 1 else B.multiply(B.basis_vector(i - 1), f)
        cols.append(vec_scale(field, field.of_int(k), col))
    return Matrix.from_columns(field, cols, nrows=B.dim)


def _truncated_block(rng, size, unital, field):
    n = size + 1 if not unital else size
    B = truncated_poly(n, unital=unital, field=field)
    offset = 1 if unital else 0  # index of t in the basis
    f = list(vec_zeros(field, B.dim))
    for idx in range(offset, B.dim):
        f[idx] = _random_scalar(rng, field)
    return B, truncated_poly_derivation(B, unital, f)


def _coin(rng):
    """A fair coin without floating point.  It draws two 32-bit words and
    reads the top bit of the first, exactly as ``rng.random() < 1/2`` does,
    so seeded constructions keep their values."""
    return not rng.getrandbits(64) >> 31 & 1


def _monomial_block(rng, k, field):
    """Square-free monomial block with generator images g_i that keep the
    square relations: any g_i supported on monomials containing x_i works."""
    B, euler = example1_algebra(k, field=field)
    if _coin(rng):
        lam = _random_scalar(rng, field, nonzero=True)
        return B, euler.scale(lam)
    dim = B.dim
    gens = []
    for i in range(k):
        g = list(vec_zeros(field, dim))
        g[(1 << i) - 1] = _random_scalar(rng, field)
        others = [m for m in range(1, 2 ** k) if (m >> i & 1) and m != (1 << i)]
        if others:
            g[rng.choice(others) - 1] = _random_scalar(rng, field)
        gens.append(tuple(g))
    cols = []
    for idx in range(dim):
        mask = idx + 1
        col = vec_zeros(field, dim)
        for i in range(k):
            if not (mask >> i & 1):
                continue
            rest = mask & ~(1 << i)
            if rest == 0:
                term = gens[i]
            else:
                term = B.multiply(B.basis_vector(rest - 1), gens[i])
            col = vec_add(field, col, term)
        cols.append(col)
    return B, Matrix.from_columns(field, cols, nrows=dim)


def _zero_block(rng, size, field):
    B = zero_algebra(size, field=field)
    rows = [[_random_scalar(rng, field) for _ in range(size)] for _ in range(size)]
    return B, Matrix(field, rows, ncols=size)


def random_commutative_pair(rng, max_dim=5, nilpotent_only=False, field=QQ):
    """Random commutative associative algebra with a structurally valid
    derivation; with ``nilpotent_only`` every block is nilpotent."""
    target = rng.randint(1, max_dim)
    blocks = []
    remaining = target
    while remaining > 0:
        kinds = ["trunc", "zero"]
        if remaining >= 3:
            kinds.append("monomial")
        if not nilpotent_only:
            kinds.append("split")
            if remaining >= 2:
                kinds.append("unital_trunc")
        kind = rng.choice(kinds)
        if kind == "trunc":
            size = rng.randint(1, remaining)
            blocks.append(_truncated_block(rng, size, unital=False, field=field))
        elif kind == "unital_trunc":
            size = rng.randint(2, remaining)
            blocks.append(_truncated_block(rng, size, unital=True, field=field))
        elif kind == "monomial":
            blocks.append(_monomial_block(rng, 2, field))
        elif kind == "split":
            size = rng.randint(1, remaining)
            blocks.append((split_idempotents(size, field=field),
                           Matrix.zeros(field, size, size)))
        else:
            size = rng.randint(1, remaining)
            blocks.append(_zero_block(rng, size, field))
        remaining -= blocks[-1][0].dim
    B = blocks[0][0]
    for blk, _ in blocks[1:]:
        B = direct_sum(B, blk)
    d = block_diag(field, [m for _, m in blocks])
    rep = verify_identity(B, "leibniz", derivation=d)
    if not rep.ok:  # generators are valid by construction
        raise RuntimeError(f"structural derivation failed validation: {rep.failure}")
    return B, d
