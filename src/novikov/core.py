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
from math import gcd, lcm

from .errors import DimensionMismatchError, FieldMismatchError
from .exactlin import (Subspace, coerce_vector, from_int_vector, int_vector,
                       vec_sub, vec_zeros)


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

    __slots__ = ("field", "dim", "index", "basis_names", "_hash", "_int_index", "_den")

    def __init__(self, field, cube, basis_names=None):
        """Validate a dense ``dim x dim x dim`` cube ``c[i][j][k]``."""
        dim = len(cube)
        products = {}
        for i, plane in enumerate(cube):
            if len(plane) != dim:
                raise DimensionMismatchError("structure cube is not dim x dim x dim")
            for j, v in enumerate(plane):
                products[i, j] = _dense_terms(v, dim)
        self._store(field, dim, products, basis_names)

    def _store(self, field, dim, products, basis_names):
        """The one storage route: build the index from ``{(i, j): terms}``,
        the ``(k, c)`` terms of each nonzero product with raw scalars, which
        are coerced and sorted here; terms that are zero or cancel mod p are
        dropped.  The index's integer form is derived as
        well: the structure constants times one positive D, the least
        common denominator over QQ and 1 over GF(p), so that
        ``e_i e_j = sum_k (n / D) e_k`` over the ``(k, n)`` of
        ``_int_index[i][j]``."""
        if basis_names is None:
            basis_names = tuple(f"e{i + 1}" for i in range(dim))
        else:
            basis_names = tuple(basis_names)
            if len(basis_names) != dim:
                raise DimensionMismatchError("basis name count differs from dim")
        coerce = field.coerce
        index = [[()] * dim for _ in range(dim)]
        for (i, j), given in products.items():
            kept = sorted([(k, coerce(c)) for k, c in given if c])
            index[i][j] = tuple([(k, c) for k, c in kept if c])
        index = tuple(tuple(row) for row in index)
        den = 1
        int_index = index
        if field.p is None:
            den = lcm(*[c.denominator for row in index for ts in row for _, c in ts])
            int_index = tuple(tuple(tuple((k, c.numerator * (den // c.denominator))
                                          for k, c in ts) for ts in row)
                              for row in index)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "basis_names", basis_names)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_int_index", int_index)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraTable is immutable")

    @classmethod
    def from_products(cls, field, dim, products, basis_names=None):
        """Build a table from a ``{(i, j): coordinate vector}`` mapping;
        absent pairs multiply to zero."""
        return cls._from_terms(field, dim, {ij: _dense_terms(v, dim)
                                            for ij, v in products.items()},
                               basis_names)

    @classmethod
    def _from_terms(cls, field, dim, products, basis_names=None):
        """Build a table from ``{(i, j): terms}`` over the nonzero
        products, each an iterable of ``(k, c)`` with distinct k and raw
        scalars (see :meth:`_store`)."""
        A = cls.__new__(cls)
        A._store(field, dim, products, basis_names)
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

    def full_space(self):
        return Subspace.full(self.field, self.dim)

    def zero_space(self):
        return Subspace.zero(self.field, self.dim)

    # -- products ----------------------------------------------------------

    def _check_element(self, x):
        if len(x) != self.dim:
            raise DimensionMismatchError(f"element length {len(x)} differs from dim {self.dim}")

    def multiply(self, x, y):
        """Bilinear extension of the structure constants."""
        self._check_element(x)
        self._check_element(y)
        F = self.field
        if F.p is not None:
            return tuple(self.int_multiply(terms(x), terms(y)))
        xi, dx = int_vector(F, x)
        yi, dy = int_vector(F, y)
        return from_int_vector(F, self.int_multiply(terms(xi), terms(yi)), dx * dy * self._den)

    # Integer vectors (see ``exactlin.int_vector``): each product below is
    # D times the product of its integer arguments, accumulated in plain
    # ints; over GF(p), where D = 1, it is reduced to residues once per
    # coordinate.

    @property
    def int_scale(self):
        """D, the scale of the integer products below."""
        return self._den

    def int_multiply(self, xs, ys):
        """D times ``x y`` for integer vectors x and y given by their
        nonzero terms ``xs = terms(x)`` and ``ys = terms(y)``, which a
        caller multiplying one vector many times computes once."""
        index = self._int_index
        out = [0] * self.dim
        for i, a in xs:
            row = index[i]
            for j, b in ys:
                prod = row[j]
                if prod:
                    s = a * b
                    for k, c in prod:
                        out[k] += s * c
        p = self.field.p
        return out if p is None else [c % p for c in out]

    def int_left_mul(self, i, v):
        """D times ``e_i v`` for an integer vector v."""
        row = self._int_index[i]
        out = [0] * self.dim
        for m, a in enumerate(v):
            if a:
                for k, c in row[m]:
                    out[k] += a * c
        p = self.field.p
        return out if p is None else [c % p for c in out]

    def int_right_mul(self, v, k):
        """D times ``v e_k`` for an integer vector v."""
        index = self._int_index
        out = [0] * self.dim
        for m, a in enumerate(v):
            if a:
                for t, c in index[m][k]:
                    out[t] += a * c
        p = self.field.p
        return out if p is None else [c % p for c in out]

    def _int_powers(self, x, den=1):
        """Yield ``(p, d)`` with ``p / d`` = y^1, y^2, ... for y = x / den,
        x an integer vector, and stop after the first zero power.  Each p
        is an integer vector; over QQ the pair is kept in lowest terms, so
        the entries do not grow with the exponent."""
        p, step, xs = x, self._den * den, terms(x)
        while True:
            yield p, den
            if not any(p):
                return
            p = self.int_multiply(terms(p), xs)
            if self.field.p is None:
                den *= step
                g = gcd(den, *p)
                if g != 1:
                    p = [a // g for a in p]
                    den //= g

    def associator(self, x, y, z):
        """(x, y, z) = (xy)z - x(yz), exactly."""
        lhs = self.multiply(self.multiply(x, y), z)
        rhs = self.multiply(x, self.multiply(y, z))
        return vec_sub(self.field, lhs, rhs)

    # -- powers ------------------------------------------------------------

    def left_normed_powers(self, x):
        """Yield x^1, x^2, ... (x^n = x^{n-1} x) and stop after the first
        zero power, since every later power is zero too."""
        self._check_element(x)
        F = self.field
        for p, den in self._int_powers(*int_vector(F, x)):
            yield from_int_vector(F, p, den)

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
        self._check_element(x)
        powers = self._int_powers(int_vector(self.field, x)[0])
        for n, (p, _) in zip(range(1, self.dim + 2), powers):
            if not any(p):
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
        D = {(j,): dict(col) for j in range(A.dim)
             if (col := terms(derivation.column(j)))}  # (j,) -> d(e_j)
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


def terms(v):
    """The nonzero ``(k, c)`` coordinates of a vector."""
    return [(k, c) for k, c in enumerate(v) if c]


def _dense_terms(v, dim):
    """The ``(k, c)`` terms of a dense vector of length dim, zeros included."""
    if len(v) != dim:
        raise DimensionMismatchError(f"expected vector of length {dim}, got {len(v)}")
    return enumerate(v)
