"""Algebras presented by structure constants.

An algebra is its nonzero structure constants: the terms ``(k, c)`` of each
nonzero product ``e_i e_j = sum_k c e_k``, stored as integers over one
common denominator.  Elements are plain coordinate tuples over the
algebra's field.  This module provides the bilinear product, multiplication
operators, associators, multilinear identity verification on basis tuples,
left-normed powers and the r-nilpotency decision.

Tables are immutable and every operation is pure.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm

from .errors import DimensionMismatchError, FieldMismatchError
from .exactlin import (Subspace, coerce_vector, from_int_vector, int_vector, vec_sub,
                       vec_zeros)


class AlgebraTable:
    """Finite-dimensional algebra over an exact field, stored as its
    nonzero structure constants in one integer form.

    ``_int_index[i][j]`` is the tuple of nonzero ``(k, n)`` terms of
    ``e_i e_j = sum_k (n / D) e_k``, in increasing k, and ``_den`` is D,
    the least common multiple of the reduced denominators (over GF(p) the
    n are residues and D is 1).  The form is canonical, so equal algebras
    have equal integer indexes and equality and hashing read it alone.
    The hash is a pure function of the integer form, so a race only
    computes it twice.
    """

    __slots__ = ("field", "dim", "basis_names", "_hash", "_int_index", "_den")

    def __init__(self, field, cube, basis_names=None):
        """Validate a dense ``dim x dim x dim`` cube ``c[i][j][k]``."""
        dim = len(cube)
        products = {}
        for i, plane in enumerate(cube):
            if len(plane) != dim:
                raise DimensionMismatchError("structure cube is not dim x dim x dim")
            for j, v in enumerate(plane):
                products[i, j] = _dense_terms(v, dim)
        self._store(field, dim, *_int_terms(field, products), basis_names)

    def _store(self, field, dim, products, den, basis_names):
        """The one storage route: ``{(i, j): terms}`` over the nonzero
        products, each an iterable of integer ``(k, n)`` terms with distinct
        k, stand for ``e_i e_j = sum_k (n / den) e_k`` for a positive den
        (1 over GF(p)).  Terms are sorted, reduced mod p over GF(p), zeros
        are dropped, and over QQ the terms and den are divided by their one
        gcd, which leaves den the least common reduced denominator."""
        if basis_names is None:
            basis_names = tuple(f"e{i + 1}" for i in range(dim))
        else:
            basis_names = tuple(basis_names)
            if len(basis_names) != dim:
                raise DimensionMismatchError("basis name count differs from dim")
        p = field.p
        index = [[()] * dim for _ in range(dim)]
        for (i, j), given in products.items():
            if p is None:
                index[i][j] = tuple(sorted([(k, n) for k, n in given if n]))
            else:
                index[i][j] = tuple(sorted([(k, n % p) for k, n in given if n % p]))
        g = gcd(den, *[n for row in index for ts in row for _, n in ts])
        if g != 1:
            den //= g
            index = [[tuple([(k, n // g) for k, n in ts]) for ts in row] for row in index]
        index = tuple(tuple(row) for row in index)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis_names", basis_names)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_int_index", index)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraTable is immutable")

    @classmethod
    def from_products(cls, field, dim, products, basis_names=None):
        """Build a table from a ``{(i, j): coordinate vector}`` mapping;
        absent pairs multiply to zero."""
        return cls._from_int_terms(field, dim, *_int_terms(field, {
            ij: _dense_terms(v, dim) for ij, v in products.items()}), basis_names)

    @classmethod
    def _from_int_terms(cls, field, dim, products, den, basis_names=None):
        """Build a table from integer terms over a common denominator (see
        :meth:`_store`)."""
        A = cls.__new__(cls)
        A._store(field, dim, products, den, basis_names)
        return A

    @property
    def cube(self):
        """The dense structure cube ``c[i][j][k]`` as nested tuples.  It is
        built on each read, so every read costs O(dim^3) time and memory."""
        return tuple(tuple(self.basis_product(i, j) for j in range(self.dim))
                     for i in range(self.dim))

    def _int_products(self):
        """Yield ``(i, j, terms)`` for every nonzero ``e_i e_j``, in
        increasing ``(i, j)``, with the integer ``(k, n)`` terms of
        ``_int_index[i][j]``, each n over the common denominator ``_den``."""
        for i, row in enumerate(self._int_index):
            for j, terms in enumerate(row):
                if terms:
                    yield i, j, terms

    def basis_product(self, i, j):
        """``e_i e_j`` as a dense coordinate vector."""
        out = [0] * self.dim
        for k, n in self._int_index[i][j]:
            out[k] = n
        return from_int_vector(self.field, out, self._den)

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
        xi, dx = int_vector(F, x)
        yi, dy = int_vector(F, y)
        out = self.int_multiply(terms(xi), terms(yi))
        return self.zero_vector() if out is None else from_int_vector(F, out, dx * dy * self._den)

    def int_multiply(self, xs, ys):
        """D times ``x y``, D = ``_den``, for integer vectors x and y (see
        ``exactlin.int_vector``) given by their nonzero terms
        ``xs = terms(x)`` and ``ys = terms(y)``, which a caller multiplying
        one vector many times computes once; a basis vector e_i is
        ``((i, 1),)``.  The sums are plain ints; over GF(p), where D = 1,
        they are reduced to residues once per coordinate.

        None when no term is written, that is when ``e_i e_j = 0`` for
        every i in x's support and j in y's: the product is zero, and no
        vector is made.  A product whose terms cancel (mod p, or over QQ)
        is still a list, of zeros, so a caller reads both as zero."""
        index = self._int_index
        out = None
        for i, a in xs:
            row = index[i]
            for j, b in ys:
                prod = row[j]
                if prod:
                    if out is None:
                        out = [0] * self.dim
                    s = a * b
                    for k, c in prod:
                        out[k] += s * c
        p = self.field.p
        return out if p is None or out is None else [c % p for c in out]

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
            p = self.int_multiply(terms(p), xs) or [0] * self.dim
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
                and other._den == self._den and other._int_index == self._int_index
                and other.basis_names == self.basis_names)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.field, self._den, self._int_index, self.basis_names))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"AlgebraTable(dim={self.dim}, field={self.field.spec_string()})"


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

IdentityFailure = namedtuple("IdentityFailure", "law indices lhs rhs")
IdentityReport = namedtuple("IdentityReport", "kind ok failure", defaults=(None,))


def _check_same_algebra(A, d):
    if d.field != A.field:
        raise FieldMismatchError("map over a different field")
    if d.nrows != A.dim or d.ncols != A.dim:
        raise DimensionMismatchError("map shape differs from algebra dimension")


@lru_cache(maxsize=4096)
def verify_identity(A, kind, derivation=None):
    """Check a multilinear identity on all basis tuples.

    Multilinearity makes the basis check complete.  Each law is a pair of
    sparse integer tensors contracted from the nonzero entries of the
    integer index only (see :func:`_laws`), compared one slice of tuples at
    a time.  A failing report carries the lexicographically least tuple at
    which any law's sides differ, the first listed law that differs there,
    and both sides, the only field scalars made: each side divided by the
    law's scale.  Inputs are immutable, so results are memoized.
    """
    slices, scale = _laws(A, kind, derivation)
    for laws in slices:
        found = [(t, n) for n, (_, lhs, rhs) in enumerate(laws)
                 if (t := _first_difference(lhs, rhs)) is not None]
        if found:
            t, n = min(found)
            law, lhs, rhs = laws[n]
            lhs, rhs = (from_int_vector(A.field, [side.get(t, {}).get(k, 0)
                                                  for k in range(A.dim)], scale)
                        for side in (lhs, rhs))
            return IdentityReport(kind, False, IdentityFailure(law, t, lhs, rhs))
    return IdentityReport(kind, True)


def _laws(A, kind, derivation):
    """``(slices, scale)``: the ``(law, lhs, rhs)`` pairs of an identity
    kind, each side scaled by the one positive integer scale, as a sequence
    of slices, each a list of laws on a set of basis tuples.  Every tuple of
    a slice is less than every tuple of a later slice, so the first slice
    where a law differs holds the least tuple where any does.  ``eq1`` comes
    in runs of consecutive first indices (see :func:`_eq1_slices`); every
    other kind is one slice.

    Each side is a tensor: a dict from a basis tuple to the nonzero integer
    coordinates ``{k: n}`` of scale times that side there, absent meaning
    zero.  ``P`` is D times the product tensor ``(i, j) -> e_i e_j``, read
    from the integer index.  Every law is homogeneous, so both of its sides
    have the same scale: D for one product, D^2 for two, D^3 for three, and
    D times the map's common denominator for the product rule.  Scaling
    both sides by one positive integer changes neither where they differ
    nor, over GF(p) where every scale is 1, anything at all.
    """
    F = A.field
    D = A._den
    P = {(i, j): dict(ts) for i, j, ts in A._int_products()}
    if kind == "commutative":
        return [[("xy == yx", P, _swapped(P, 0, 1))]], D
    if kind == "leibniz":
        if derivation is None:
            raise ValueError("leibniz check needs a linear map")
        _check_same_algebra(A, derivation)
        e = derivation.den
        M = {(j,): dict(col) for j, c in enumerate(zip(*derivation.int_rows))
             if (col := terms(c))}  # (j,) -> e d(e_j)
        outputs = _by_output(M.items())
        return [[("d(xy) == d(x)y + x d(y)", _tensor(F, _apply(P.items(), _by_slot(M, 0))),
                  _tensor(F, _substitute(P.items(), 0, outputs),
                          _substitute(P.items(), 1, outputs)))]], D * e
    if kind not in ("associative", "novikov", "eq1"):
        raise ValueError(f"unknown identity kind {kind!r}")
    rows, outputs = _by_slot(P, 0), _by_output(P.items())
    assoc = _tensor(F, _apply(P.items(), rows), minus=_substitute(P.items(), 1, outputs))
    if kind == "associative":
        return [[("(xy)z == x(yz)", assoc, {})]], D * D
    if kind == "novikov":
        right = _tensor(F, _apply(P.items(), rows))  # (e_i e_j) e_k
        return [[("(x,y,z) == (y,x,z)", assoc, _swapped(assoc, 0, 1)),
                 ("(xy)z == (xz)y", right, _swapped(right, 1, 2))]], D * D
    return _eq1_slices(F, rows, outputs, _by_slot(assoc, 0)), D ** 3


# Entries of P and the associator in one ``eq1`` slice: consecutive first
# indices are taken together up to this many, so a small algebra is one
# slice and the set-up of a slice is paid only where memory calls for it.
EQ1_SLICE_ENTRIES = 1024


def _eq1_slices(F, rows, outputs, cubes):
    """Yield the two ``eq1`` laws on the tuples ``(i, j, k, l)`` of a run of
    consecutive first indices i at a time, in increasing i, over the i where
    P or the associator has an entry.  A run holds at most
    ``EQ1_SLICE_ENTRIES`` entries of P and the associator, or one i that
    alone holds more.  ``rows`` and ``cubes`` group P and the associator by
    first index, ``outputs`` groups P by output coordinate.  A slice holds
    ``(e_i, e_j, e_k) e_l``, ``(e_i e_l, e_j, e_k)`` and
    ``(e_i, e_j e_l, e_k)``, so memory is one slice, not the whole tensors.
    """
    run, size = [], 0
    for i in sorted(rows.keys() | cubes.keys()):
        n = len(rows.get(i, ())) + len(cubes.get(i, ()))
        if run and size + n > EQ1_SLICE_ENTRIES:
            yield _eq1_slice(F, run, rows, outputs, cubes)
            run, size = [], 0
        run.append(i)
        size += n
    if run:
        yield _eq1_slice(F, run, rows, outputs, cubes)


def _eq1_slice(F, firsts, rows, outputs, cubes):
    """The two ``eq1`` laws on the tuples whose first index is in firsts."""
    row = [entry for i in firsts for entry in rows.get(i, ())]
    cube = [entry for i in firsts for entry in cubes.get(i, ())]
    times = _tensor(F, _apply(cube, rows))
    # (e_i e_l, e_j, e_k) = sum_m c_il^m (e_m, e_j, e_k) at (i, j, k, l)
    xt = ((key[:1] + ckey[1:] + key[1:], c, terms.items())
          for key, v in row for m, c in v.items() for ckey, terms in cubes.get(m, ()))
    return [("(x,y,z)t == (xt,y,z)", times, _tensor(F, xt)),
            ("(x,y,z)t == (x,yt,z)", times, _tensor(F, _substitute(cube, 1, outputs)))]


def _tensor(field, *parts, minus=()):
    """Sum ``(key, a, terms)`` contributions, each ``a * sum c e_k`` over
    its ``(k, c)`` terms, into a tensor; those in ``minus`` are subtracted.
    Residues are reduced and zeros dropped, so equal tensors are equal dicts.
    """
    acc = {}
    for sign, group in ((1, parts), (-1, (minus,))):
        for contributions in group:
            for key, a, terms in contributions:
                out = acc.get(key)
                if out is None:
                    out = acc[key] = {}
                a *= sign
                for k, c in terms:
                    out[k] = out.get(k, 0) + a * c
    p = field.p
    tensor = {}
    for key, out in acc.items():
        if p is not None:
            out = {k: c % p for k, c in out.items() if c % p}
        elif not all(out.values()):
            out = {k: c for k, c in out.items() if c}
        if out:
            tensor[key] = out
    return tensor


def _by_slot(T, slot):
    """``m -> [(key, value)]`` over the entries of T with ``key[slot] == m``."""
    groups = {}
    for key, v in T.items():
        groups.setdefault(key[slot], []).append((key, v))
    return groups


def _by_output(entries):
    """``m -> [(key, c)]`` over the ``(key, value)`` entries of a tensor
    whose value has the nonzero coordinate c at m."""
    groups = {}
    for key, v in entries:
        for m, c in v.items():
            groups.setdefault(m, []).append((key, c))
    return groups


def _apply(T, rows):
    """Contributions of ``sum_m T[key]_m S[(m,) + s]`` at ``key + s``, for
    T given by its ``(key, value)`` entries and ``rows = _by_slot(S, 0)``:
    with S = P this is "times e_l"; with S a map's columns it applies the
    map."""
    for key, v in T:
        for m, c in v.items():
            for skey, terms in rows.get(m, ()):
                yield key + skey[1:], c, terms.items()


def _substitute(T, slot, outputs):
    """Contributions of S substituted into one slot of T, for T given by its
    ``(key, value)`` entries and ``outputs = _by_output(S)``: at
    ``key[:slot] + (x,) + key[slot + 1:] + s``, ``S[(x,) + s]_m T[key]``
    for m = ``key[slot]``.  With S = P and slot 1 this is
    ``(e_i, e_j e_l, e_k) = sum_m c_jl^m (e_i, e_m, e_k)`` at ``(i, j, k, l)``."""
    for key, v in T:
        for skey, c in outputs.get(key[slot], ()):
            yield key[:slot] + skey[:1] + key[slot + 1:] + skey[1:], c, v.items()


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


def _int_terms(field, products):
    """``(int products, den)``: raw-scalar ``{(i, j): (k, c) terms}``
    coerced to the field and written over one common denominator, the
    integer terms that :meth:`AlgebraTable._store` takes."""
    coerce = field.coerce
    products = {ij: [(k, coerce(c)) for k, c in given if c] for ij, given in products.items()}
    if field.p is not None:
        return products, 1
    den = lcm(*[c.denominator for ts in products.values() for _, c in ts])
    return {ij: [(k, c.numerator * (den // c.denominator)) for k, c in ts]
            for ij, ts in products.items()}, den


def _dense_terms(v, dim):
    """The ``(k, c)`` terms of a dense vector of length dim, zeros included."""
    if len(v) != dim:
        raise DimensionMismatchError(f"expected vector of length {dim}, got {len(v)}")
    return enumerate(v)
