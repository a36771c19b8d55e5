"""Algebras presented by structure constants.

An algebra is a cube ``c`` of scalars with ``e_i e_j = sum_k c[i][j][k] e_k``;
elements are plain coordinate tuples over the algebra's field.  This module
provides the bilinear product, multiplication operators, associators,
multilinear identity verification on basis tuples, left-normed powers and the
r-nilpotency decision.

Tables are immutable and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionMismatchError, FieldMismatchError
from .exactlin import Matrix, Subspace, coerce_vector, vec_is_zero, vec_sub, vec_zeros


class AlgebraTable:
    """Finite-dimensional algebra over an exact field.

    Unspecified structure constants are zero; the cube is always total.
    The sparse index of the cube and the hash are filled in on first use;
    both are pure functions of the cube, so a race only computes them twice.
    """

    __slots__ = ("field", "dim", "cube", "basis_names", "_sparse", "_hash")

    def __init__(self, field, cube, basis_names=None):
        dim = len(cube)
        rows = []
        for i, plane in enumerate(cube):
            if len(plane) != dim:
                raise DimensionMismatchError("structure cube is not dim x dim x dim")
            rows.append(tuple(coerce_vector(field, v, dim) for v in plane))
        if basis_names is None:
            basis_names = tuple(f"e{i + 1}" for i in range(dim))
        else:
            basis_names = tuple(basis_names)
            if len(basis_names) != dim:
                raise DimensionMismatchError("basis name count differs from dim")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "cube", tuple(rows))
        object.__setattr__(self, "basis_names", basis_names)
        object.__setattr__(self, "_sparse", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraTable is immutable")

    @classmethod
    def from_products(cls, field, dim, products, basis_names=None):
        """Build a table from a ``{(i, j): coordinate vector}`` mapping."""
        zero = vec_zeros(field, dim)
        cube = [[zero] * dim for _ in range(dim)]
        for (i, j), v in products.items():
            cube[i][j] = coerce_vector(field, v, dim)
        return cls(field, cube, basis_names)

    # -- elements ----------------------------------------------------------

    def zero_vector(self):
        return vec_zeros(self.field, self.dim)

    def basis_vector(self, i):
        z = self.field.zero
        return tuple(self.field.one if j == i else z for j in range(self.dim))

    def basis_vectors(self):
        return [self.basis_vector(i) for i in range(self.dim)]

    def element(self, coords):
        return coerce_vector(self.field, coords, self.dim)

    def random_element(self, rng, spread=2):
        """Deterministic-for-seed sample with small integer coordinates."""
        F = self.field
        if F.p is None:
            return tuple(F.of_int(rng.randint(-spread, spread)) for _ in range(self.dim))
        return tuple(rng.randrange(F.p) for _ in range(self.dim))

    def full_space(self):
        return Subspace.full(self.field, self.dim)

    def zero_space(self):
        return Subspace.zero(self.field, self.dim)

    # -- products ----------------------------------------------------------

    def _check_element(self, x):
        if len(x) != self.dim:
            raise DimensionMismatchError(f"element length {len(x)} differs from dim {self.dim}")

    def _sparse_index(self):
        """``index[i][j]``: the nonzero ``(k, c)`` terms of ``e_i e_j``.

        Built on the first product rather than in ``__init__``, so tables
        that are only constructed, compared or hashed never pay for it.
        """
        index = self._sparse
        if index is None:
            index = tuple(tuple(_terms(v) for v in plane) for plane in self.cube)
            object.__setattr__(self, "_sparse", index)
        return index

    def _canonical(self, out):
        """Accumulated coordinates as a canonical vector: residues are
        reduced here, once per coordinate."""
        p = self.field.p
        return tuple(out) if p is None else tuple([c % p for c in out])

    def _combine(self, pairs):
        """Coordinates of ``sum a * v`` over ``(a, terms of v)`` pairs."""
        out = [self.field.zero] * self.dim
        for a, terms in pairs:
            for k, c in terms:
                out[k] += a * c
        return self._canonical(out)

    def multiply(self, x, y):
        """Bilinear extension of the structure constants."""
        self._check_element(x)
        self._check_element(y)
        index = self._sparse_index()
        ys = [(j, b) for j, b in enumerate(y) if b]
        out = [self.field.zero] * self.dim
        for i, a in enumerate(x):
            if a:
                row = index[i]
                for j, b in ys:
                    terms = row[j]
                    if terms:
                        s = a * b
                        for k, c in terms:
                            out[k] += s * c
        return self._canonical(out)

    def left_basis_mul(self, i, v):
        """``e_i v``, read from the sparse index."""
        row = self._sparse_index()[i]
        out = [self.field.zero] * self.dim
        for m, a in enumerate(v):
            if a:
                for k, c in row[m]:
                    out[k] += a * c
        return self._canonical(out)

    def right_basis_mul(self, v, k):
        """``v e_k``, read from the sparse index."""
        index = self._sparse_index()
        out = [self.field.zero] * self.dim
        for m, a in enumerate(v):
            if a:
                for t, c in index[m][k]:
                    out[t] += a * c
        return self._canonical(out)

    def commutator(self, x, y):
        return vec_sub(self.field, self.multiply(x, y), self.multiply(y, x))

    def associator(self, x, y, z):
        """(x, y, z) = (xy)z - x(yz), exactly."""
        lhs = self.multiply(self.multiply(x, y), z)
        rhs = self.multiply(x, self.multiply(y, z))
        return vec_sub(self.field, lhs, rhs)

    def operator_matrix(self, x, side="right"):
        """Matrix of right (v -> vx) or left (v -> xv) multiplication by x."""
        self._check_element(x)
        if side == "right":
            cols = [self.left_basis_mul(j, x) for j in range(self.dim)]
        elif side == "left":
            cols = [self.right_basis_mul(x, j) for j in range(self.dim)]
        else:
            raise ValueError(f"unknown side {side!r}")
        return Matrix.from_columns(self.field, cols, nrows=self.dim)

    # -- powers ------------------------------------------------------------

    def left_normed_powers(self, x):
        """Yield x^1, x^2, ... (x^n = x^{n-1} x) and stop after the first
        zero power, since every later power is zero too."""
        self._check_element(x)
        p = tuple(x)
        while True:
            yield p
            if vec_is_zero(p):
                return
            p = self.multiply(p, x)

    def left_normed_power(self, x, n):
        """x^1 = x, x^n = x^{n-1} x.  Rejects n = 0: no unit is assumed."""
        if n < 1:
            raise ValueError("left-normed powers start at exponent 1")
        for e, p in enumerate(self.left_normed_powers(x), start=1):
            if e == n:
                return p
        return self.zero_vector()

    def r_nilpotency_index(self, x):
        """Smallest n with x^n = 0, or None if x is not r-nilpotent.

        The power sequence is the orbit of x under right multiplication by
        x, which stays inside a cyclic subspace of dimension <= dim; so some
        power vanishes iff x^(dim+1) = 0 already.
        """
        for n, p in zip(range(1, self.dim + 2), self.left_normed_powers(x)):
            if vec_is_zero(p):
                return n
        return None

    def __eq__(self, other):
        return (isinstance(other, AlgebraTable) and other.field == self.field
                and other.cube == self.cube
                and other.basis_names == self.basis_names)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.field, self.cube, self.basis_names))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"AlgebraTable(dim={self.dim}, field={self.field.spec_string()})"


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityFailure:
    law: str
    indices: tuple
    lhs: tuple
    rhs: tuple


@dataclass(frozen=True)
class IdentityReport:
    kind: str
    ok: bool
    failure: IdentityFailure | None = None


IDENTITY_KINDS = ("novikov", "eq1", "associative", "commutative", "leibniz")


def _check_same_algebra(A, d):
    if d.field != A.field:
        raise FieldMismatchError("map over a different field")
    if d.nrows != A.dim or d.ncols != A.dim:
        raise DimensionMismatchError("map shape differs from algebra dimension")


@lru_cache(maxsize=4096)
def verify_identity(A, kind, derivation=None):
    """Check a multilinear identity on all basis tuples.

    Multilinearity makes the basis check complete; the report either passes
    or carries the first failing tuple together with both sides.  Inputs
    are immutable, so results are memoized.
    """
    n = A.dim
    index = A._sparse_index()

    def times_basis(terms, k):
        # (sum c_m e_m) e_k for the nonzero terms (m, c_m)
        return A._combine((c, index[m][k]) for m, c in terms)

    if kind == "commutative":
        for i in range(n):
            for j in range(n):
                lhs = A.cube[i][j]
                rhs = A.cube[j][i]
                if lhs != rhs:
                    return IdentityReport(kind, False,
                                          IdentityFailure("xy == yx", (i, j), lhs, rhs))
        return IdentityReport(kind, True)

    if kind == "associative":
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    a = _basis_associator(A, i, j, k)
                    if not vec_is_zero(a):
                        return IdentityReport(kind, False,
                                              IdentityFailure("(xy)z == x(yz)", (i, j, k),
                                                              a, A.zero_vector()))
        return IdentityReport(kind, True)

    if kind == "novikov":
        assoc = _associator_cube(A)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = assoc[i][j][k]
                    rhs = assoc[j][i][k]
                    if lhs != rhs:
                        return IdentityReport(kind, False,
                                              IdentityFailure("(x,y,z) == (y,x,z)",
                                                              (i, j, k), lhs, rhs))
                    lhs = times_basis(index[i][j], k)
                    rhs = times_basis(index[i][k], j)
                    if lhs != rhs:
                        return IdentityReport(kind, False,
                                              IdentityFailure("(xy)z == (xz)y",
                                                              (i, j, k), lhs, rhs))
        return IdentityReport(kind, True)

    if kind == "eq1":
        assoc = [[[_terms(v) for v in plane] for plane in block]
                 for block in _associator_cube(A)]

        def assoc_of(terms, j, k):
            # (sum c_m e_m, e_j, e_k) for the nonzero terms (m, c_m)
            return A._combine((c, assoc[m][j][k]) for m, c in terms)

        for i in range(n):
            for j in range(n):
                for k in range(n):
                    aijk = assoc[i][j][k]
                    for l in range(n):
                        lhs = times_basis(aijk, l)
                        mid = assoc_of(index[i][l], j, k)
                        if lhs != mid:
                            return IdentityReport(kind, False,
                                                  IdentityFailure("(x,y,z)t == (xt,y,z)",
                                                                  (i, j, k, l), lhs, mid))
                        rhs = assoc_of(index[j][l], i, k)
                        if lhs != rhs:
                            return IdentityReport(kind, False,
                                                  IdentityFailure("(x,y,z)t == (x,yt,z)",
                                                                  (i, j, k, l), lhs, rhs))
        return IdentityReport(kind, True)

    if kind == "leibniz":
        if derivation is None:
            raise ValueError("leibniz check needs a linear map")
        _check_same_algebra(A, derivation)
        dcols = [_terms(derivation.column(j)) for j in range(n)]
        for i in range(n):
            for j in range(n):
                lhs = derivation.mat_vec(A.cube[i][j])
                # d(e_i) e_j + e_i d(e_j)
                rhs = A._combine([(c, index[m][j]) for m, c in dcols[i]]
                                 + [(c, index[i][m]) for m, c in dcols[j]])
                if lhs != rhs:
                    return IdentityReport(kind, False,
                                          IdentityFailure("d(xy) == d(x)y + x d(y)",
                                                          (i, j), lhs, rhs))
        return IdentityReport(kind, True)

    raise ValueError(f"unknown identity kind {kind!r}")


def _terms(v):
    """The nonzero ``(k, c)`` coordinates of a vector."""
    return tuple((k, c) for k, c in enumerate(v) if c)


def _basis_associator(A, i, j, k):
    """(e_i e_j) e_k - e_i (e_j e_k), read from the sparse index."""
    index = A._sparse_index()
    return A._combine([(c, index[m][k]) for m, c in index[i][j]]
                      + [(-c, index[i][m]) for m, c in index[j][k]])


def _associator_cube(A):
    n = A.dim
    return [[[_basis_associator(A, i, j, k) for k in range(n)]
             for j in range(n)] for i in range(n)]


def is_novikov(A):
    return verify_identity(A, "novikov").ok
