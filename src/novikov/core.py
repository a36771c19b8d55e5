"""Algebras presented by structure constants.

An algebra is its nonzero structure constants: the terms ``(k, c)`` of each
nonzero product ``e_i e_j = sum_k c e_k``.  Elements are plain coordinate
tuples over the algebra's field.  This module provides the bilinear product,
multiplication operators, associators, multilinear identity verification on
basis tuples, left-normed powers and the r-nilpotency decision.

Tables are immutable and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionMismatchError, FieldMismatchError
from .exactlin import Matrix, Subspace, coerce_vector, vec_is_zero, vec_sub, vec_zeros


class AlgebraTable:
    """Finite-dimensional algebra over an exact field, stored as its
    nonzero structure constants.

    ``index[i][j]`` is the tuple of nonzero ``(k, c)`` terms of
    ``e_i e_j = sum_k c e_k``, in increasing k; every other constant is
    zero.  Scalars are canonical, so equal algebras have equal indexes and
    equality and hashing read the index alone.  The hash is computed on
    first use; it is a pure function of the index, so a race only computes
    it twice.
    """

    __slots__ = ("field", "dim", "index", "basis_names", "_hash")

    def __init__(self, field, cube, basis_names=None):
        """Validate a dense ``dim x dim x dim`` cube ``c[i][j][k]``."""
        dim = len(cube)
        index = []
        for plane in cube:
            if len(plane) != dim:
                raise DimensionMismatchError("structure cube is not dim x dim x dim")
            index.append([_terms(coerce_vector(field, v, dim)) for v in plane])
        self._store(field, index, basis_names)

    def _store(self, field, index, basis_names):
        dim = len(index)
        if basis_names is None:
            basis_names = tuple(f"e{i + 1}" for i in range(dim))
        else:
            basis_names = tuple(basis_names)
            if len(basis_names) != dim:
                raise DimensionMismatchError("basis name count differs from dim")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "index", tuple(tuple(row) for row in index))
        object.__setattr__(self, "basis_names", basis_names)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraTable is immutable")

    @classmethod
    def from_products(cls, field, dim, products, basis_names=None):
        """Build a table from a ``{(i, j): coordinate vector}`` mapping;
        absent pairs multiply to zero."""
        index = [[()] * dim for _ in range(dim)]
        for (i, j), v in products.items():
            index[i][j] = _terms(coerce_vector(field, v, dim))
        A = cls.__new__(cls)
        A._store(field, index, basis_names)
        return A

    @property
    def cube(self):
        """The dense structure cube ``c[i][j][k]`` as nested tuples.  It is
        built on each read, so every read costs O(dim^3) time and memory."""
        return tuple(tuple(self.basis_product(i, j) for j in range(self.dim))
                     for i in range(self.dim))

    def nonzero_products(self):
        """Yield ``(i, j, terms)`` for every nonzero ``e_i e_j``, in
        increasing ``(i, j)``, with the ``(k, c)`` terms of ``index[i][j]``."""
        for i, row in enumerate(self.index):
            for j, terms in enumerate(row):
                if terms:
                    yield i, j, terms

    def basis_product(self, i, j):
        """``e_i e_j`` as a dense coordinate vector."""
        out = [self.field.zero] * self.dim
        for k, c in self.index[i][j]:
            out[k] = c
        return tuple(out)

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

    def _canonical(self, out):
        """Accumulated coordinates as a canonical vector: residues are
        reduced here, once per coordinate."""
        p = self.field.p
        return tuple(out) if p is None else tuple([c % p for c in out])

    def multiply(self, x, y):
        """Bilinear extension of the structure constants."""
        self._check_element(x)
        self._check_element(y)
        index = self.index
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
        """``e_i v``, read from the index."""
        row = self.index[i]
        out = [self.field.zero] * self.dim
        for m, a in enumerate(v):
            if a:
                for k, c in row[m]:
                    out[k] += a * c
        return self._canonical(out)

    def right_basis_mul(self, v, k):
        """``v e_k``, read from the index."""
        index = self.index
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
                and other.index == self.index
                and other.basis_names == self.basis_names)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.field, self.index, self.basis_names))
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


def _check_same_algebra(A, d):
    if d.field != A.field:
        raise FieldMismatchError("map over a different field")
    if d.nrows != A.dim or d.ncols != A.dim:
        raise DimensionMismatchError("map shape differs from algebra dimension")


@lru_cache(maxsize=4096)
def verify_identity(A, kind, derivation=None):
    """Check a multilinear identity on all basis tuples.

    Multilinearity makes the basis check complete.  Each law is a pair of
    sparse tensors contracted from the nonzero structure constants only
    (see :func:`_laws`).  A failing report carries the lexicographically
    least tuple at which any law's sides differ, the first listed law that
    differs there, and both sides.  Inputs are immutable, so results are
    memoized.
    """
    laws = _laws(A, kind, derivation)
    firsts = [_first_difference(lhs, rhs) for _, lhs, rhs in laws]
    found = [t for t in firsts if t is not None]
    if not found:
        return IdentityReport(kind, True)
    t = min(found)
    law, lhs, rhs = laws[firsts.index(t)]
    zero = A.field.zero
    lhs, rhs = (tuple(side.get(t, {}).get(k, zero) for k in range(A.dim))
                for side in (lhs, rhs))
    return IdentityReport(kind, False, IdentityFailure(law, t, lhs, rhs))


def _laws(A, kind, derivation):
    """The ``(law, lhs, rhs)`` pairs of an identity kind.

    Each side is a tensor: a dict from a basis tuple to the nonzero
    coordinates ``{k: c}`` of that side there, absent meaning zero.
    ``P`` is the product tensor ``(i, j) -> e_i e_j``.
    """
    F = A.field
    P = {(i, j): dict(terms) for i, j, terms in A.nonzero_products()}
    if kind == "commutative":
        return [("xy == yx", P, _swapped(P, 0, 1))]
    if kind == "leibniz":
        if derivation is None:
            raise ValueError("leibniz check needs a linear map")
        _check_same_algebra(A, derivation)
        D = {(j,): dict(terms) for j in range(A.dim)
             if (terms := _terms(derivation.column(j)))}  # (j,) -> d(e_j)
        return [("d(xy) == d(x)y + x d(y)", _tensor(F, _apply(P, D)),
                 _tensor(F, _substitute(P, 0, D), _substitute(P, 1, D)))]
    if kind not in ("associative", "novikov", "eq1"):
        raise ValueError(f"unknown identity kind {kind!r}")
    assoc = _tensor(F, _apply(P, P), minus=_substitute(P, 1, P))
    if kind == "associative":
        return [("(xy)z == x(yz)", assoc, {})]
    if kind == "novikov":
        right = _tensor(F, _apply(P, P))  # (e_i e_j) e_k
        return [("(x,y,z) == (y,x,z)", assoc, _swapped(assoc, 0, 1)),
                ("(xy)z == (xz)y", right, _swapped(right, 1, 2))]
    times = _tensor(F, _apply(assoc, P))  # (e_i, e_j, e_k) e_l
    return [("(x,y,z)t == (xt,y,z)", times, _tensor(F, _substitute(assoc, 0, P))),
            ("(x,y,z)t == (x,yt,z)", times, _tensor(F, _substitute(assoc, 1, P)))]


def _tensor(field, *parts, minus=()):
    """Sum ``(key, a, terms)`` contributions, each ``a * sum c e_k`` over
    its ``(k, c)`` terms, into a tensor; those in ``minus`` are subtracted.
    Residues are reduced and zeros dropped, so equal tensors are equal dicts.
    """
    acc = {}
    for negate, contributions in [(False, part) for part in parts] + [(True, minus)]:
        for key, a, terms in contributions:
            out = acc.setdefault(key, {})
            if negate:
                a = -a
            for k, c in terms:
                out[k] = out.get(k, 0) + a * c
    p = field.p
    tensor = {}
    for key, out in acc.items():
        v = ({k: c for k, c in out.items() if c} if p is None
             else {k: c % p for k, c in out.items() if c % p})
        if v:
            tensor[key] = v
    return tensor


def _by_slot(T, slot):
    """``m -> [(key, terms)]`` over the entries of T with ``key[slot] == m``."""
    groups = {}
    for key, v in T.items():
        groups.setdefault(key[slot], []).append((key, v.items()))
    return groups


def _apply(T, S):
    """Contributions of ``sum_m T[key]_m S[(m,) + s]`` at ``key + s``: with
    S = P this is "times e_l"; with S a map's columns it applies the map."""
    groups = _by_slot(S, 0)
    for key, v in T.items():
        for m, c in v.items():
            for skey, terms in groups.get(m, ()):
                yield key + skey[1:], c, terms


def _substitute(T, slot, S):
    """Contributions of S substituted into one slot of T: at
    ``key[:slot] + (x,) + key[slot + 1:] + s``, ``sum_m S[(x,) + s]_m T[key]``
    over the keys with m at ``slot``.  With S = P and slot 1 this is
    ``(e_i, e_j e_l, e_k) = sum_m c_jl^m (e_i, e_m, e_k)`` at ``(i, j, k, l)``."""
    groups = _by_slot(T, slot)
    for skey, v in S.items():
        head, tail = skey[:1], skey[1:]
        for m, c in v.items():
            for key, terms in groups.get(m, ()):
                yield key[:slot] + head + key[slot + 1:] + tail, c, terms


def _swapped(T, a, b):
    """T with key slots a < b exchanged."""
    return {k[:a] + k[b:b + 1] + k[a + 1:b] + k[a:a + 1] + k[b + 1:]: v
            for k, v in T.items()}


def _first_difference(lhs, rhs):
    """The lexicographically least tuple where two tensors differ, or None."""
    if lhs == rhs:
        return None
    return min(t for t in lhs.keys() | rhs.keys() if lhs.get(t) != rhs.get(t))


def _terms(v):
    """The nonzero ``(k, c)`` coordinates of a vector."""
    return tuple((k, c) for k, c in enumerate(v) if c)
