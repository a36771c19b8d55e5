"""Exact scalars, integer echelon rows and canonical subspaces.

Scalars live in one of two fields: the rationals (stdlib ``Fraction``) or a
prime field GF(p) (ints reduced to ``[0, p)``).  Vectors and matrices hold
these canonical scalars.  Subspaces (reduced row-echelon bases) are the
representation used everywhere else for ideals, radicals and series terms.

Elimination runs on integer rows only, one kernel for both fields.  Over
GF(p) a row holds residues.  Over QQ it is a primitive integer multiple of
its reduced row-echelon row, and elimination is fraction-free: a step is
``v <- r v - c row``.  Fractions are made only where an exact vector
leaves the kernel: a subspace's ``rows``, a residual, a solution.

All values are immutable after construction and all operations are pure, so
everything here can be shared freely between threads.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatchError, FieldMismatchError


# Miller-Rabin on the prime bases 2..41 decides primality exactly below
# this bound (Sorenson and Webster 2015); larger moduli are refused.
MODULUS_BOUND = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p):
    """Whether an integer p < ``MODULUS_BOUND`` is prime, by Miller-Rabin
    on every base of ``_WITNESSES``."""
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:  # p passes when a^d = 1 or some a^(2^r d) = -1
        x = pow(a, d, p)
        if x != 1 and p - 1 not in (pow(x, 1 << r, p) for r in range(s)):
            return False
    return True


class Field:
    """Common interface of the two scalar fields.

    Concrete fields expose ``zero``/``one`` constants plus closed arithmetic
    on canonical scalars: ``Fraction`` in lowest terms for the rationals,
    ints in ``[0, p)`` for GF(p).
    """

    kind = None
    p = None
    characteristic = None

    def coerce(self, a):
        raise NotImplementedError

    def parse(self, text):
        raise NotImplementedError

    def fmt(self, a):
        return str(a)

    def spec_string(self):
        return self.kind if self.p is None else f"gf {self.p}"

    def __repr__(self):
        return f"Field({self.spec_string()})"


class RationalField(Field):
    kind = "rational"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return 1 / a

    def of_int(self, n):
        return Fraction(n)

    def coerce(self, a):
        if isinstance(a, Fraction):
            return a
        if isinstance(a, int):
            return Fraction(a)
        raise FieldMismatchError(f"cannot interpret {a!r} as a rational scalar")

    def parse(self, text):
        return Fraction(text)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p):
        if isinstance(p, int) and p >= MODULUS_BOUND:
            raise ValueError(f"modulus {p} is not below {MODULUS_BOUND}, the bound "
                             "under which primality is decided exactly")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero residue")
        return pow(a, -1, self.p)

    def of_int(self, n):
        return n % self.p

    def coerce(self, a):
        if isinstance(a, int):
            return a % self.p
        raise FieldMismatchError(f"cannot interpret {a!r} as a GF({self.p}) residue")

    def parse(self, text):
        return int(text, 10) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


QQ = RationalField()

_prime_fields = {}


def GF(p):
    """Prime field GF(p); instances are cached so equal moduli compare fast."""
    f = _prime_fields.get(p)
    if f is None:
        f = _prime_fields[p] = PrimeField(p)
    return f


# ---------------------------------------------------------------------------
# vectors (plain tuples of canonical scalars)
# ---------------------------------------------------------------------------

def vec_zeros(field, n):
    return (field.zero,) * n


def _check_len(u, v):
    if len(u) != len(v):
        raise DimensionMismatchError(f"vector lengths differ: {len(u)} vs {len(v)}")


def vec_add(field, u, v):
    _check_len(u, v)
    return tuple(field.add(a, b) for a, b in zip(u, v))


def vec_sub(field, u, v):
    _check_len(u, v)
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def vec_scale(field, c, u):
    if not c:
        return vec_zeros(field, len(u))
    return tuple(field.mul(c, a) for a in u)


def vec_is_zero(u):
    return not any(u)


def coerce_vector(field, v, length=None):
    out = tuple(field.coerce(a) for a in v)
    if length is not None and len(out) != length:
        raise DimensionMismatchError(f"expected vector of length {length}, got {len(out)}")
    return out


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Dense rectangular matrix over one field; rows are tuples of scalars.

    ``int_rows / den`` is the same matrix in integers over the least common
    denominator (1 over GF(p), where the int rows are the rows).  The form
    is canonical, so equality and the hash, computed once, read it alone.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "int_rows", "den", "_hash")

    def __init__(self, field, rows, ncols=None):
        rows = tuple(coerce_vector(field, r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatchError("ragged rows")
            if ncols is not None and ncols != width:
                raise DimensionMismatchError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            ncols = 0
        if field.p is None:
            flat, den = int_vector(field, [a for r in rows for a in r])
            int_rows = tuple(tuple(flat[i * ncols:(i + 1) * ncols]) for i in range(len(rows)))
        else:
            int_rows, den = rows, 1
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "int_rows", int_rows)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, [[field.zero] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def diagonal(cls, field, entries):
        entries = [field.coerce(e) for e in entries]
        n = len(entries)
        return cls(field, [[entries[i] if i == j else field.zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def from_columns(cls, field, columns, nrows=None):
        if not columns:
            return cls(field, [], ncols=0) if nrows is None else cls.zeros(field, nrows, 0)
        nrows = len(columns[0])
        return cls(field, [[col[i] for col in columns] for i in range(nrows)],
                   ncols=len(columns))

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def mat_vec(self, v):
        if len(v) != self.ncols:
            raise DimensionMismatchError(f"matrix has {self.ncols} columns, vector length {len(v)}")
        F = self.field
        out = [F.zero] * self.nrows
        for j, vj in enumerate(v):
            if not vj:
                continue
            for i, row in enumerate(self.rows):
                a = row[j]
                if a:
                    out[i] = F.add(out[i], F.mul(a, vj))
        return tuple(out)

    def _check_compatible(self, other, same_shape):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if other.field != self.field:
            raise FieldMismatchError("matrices over different fields")
        if same_shape and (other.nrows, other.ncols) != (self.nrows, self.ncols):
            raise DimensionMismatchError("matrix shapes differ")

    def __add__(self, other):
        self._check_compatible(other, same_shape=True)
        F = self.field
        return Matrix(F, [vec_add(F, a, b) for a, b in zip(self.rows, other.rows)],
                      ncols=self.ncols)

    def __sub__(self, other):
        self._check_compatible(other, same_shape=True)
        F = self.field
        return Matrix(F, [vec_sub(F, a, b) for a, b in zip(self.rows, other.rows)],
                      ncols=self.ncols)

    def __mul__(self, other):
        self._check_compatible(other, same_shape=False)
        if self.ncols != other.nrows:
            raise DimensionMismatchError("inner dimensions differ")
        F = self.field
        cols = [self.mat_vec(other.column(j)) for j in range(other.ncols)]
        return Matrix.from_columns(F, cols, nrows=self.nrows)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        return Matrix(F, [vec_scale(F, c, r) for r in self.rows], ncols=self.ncols)

    def is_zero(self):
        return all(vec_is_zero(r) for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.ncols == self.ncols and other.den == self.den
                and other.int_rows == self.int_rows)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.field, self.ncols, self.den, self.int_rows))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(a) for a in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


# ---------------------------------------------------------------------------
# integer rows
# ---------------------------------------------------------------------------
#
# Echelon rows and the vectors fed to them are sequences of ints.  Over
# GF(p) they are residues.  Over QQ an integer vector stands for every
# positive multiple of itself: a span does not depend on the scale of its
# spanning vectors, so products and reductions never divide.  Fractions are
# made only where an exact vector leaves the kernel.

_ZERO = Fraction(0)


def int_vector(field, v):
    """``(ints, den)`` with ``v == ints / den`` for a vector of canonical
    scalars.  Over QQ, den is the least common denominator; over GF(p) the
    residues are the ints and den is 1."""
    if field.p is not None:
        return v, 1
    ratios = [a.as_integer_ratio() for a in v]
    den = lcm(*[d for _, d in ratios])
    if den == 1:
        return [n for n, _ in ratios], 1
    return [n * (den // d) for n, d in ratios], den


def from_int_vector(field, ints, den=1):
    """The canonical vector ``ints / den``: one Fraction per nonzero
    coordinate over QQ.  Over GF(p) the ints must be residues already,
    and den is 1."""
    if field.p is not None:
        return tuple(ints)
    if den == 1:
        return tuple([Fraction(a) if a else _ZERO for a in ints])
    return tuple([Fraction(a, den) if a else _ZERO for a in ints])


def int_tidy(field, v):
    """A smallest integer form of v: over QQ divided by the gcd of its
    entries, over GF(p) reduced to residues."""
    p = field.p
    if p is not None:
        return [a % p for a in v]
    g = gcd(*v)
    return v if g <= 1 else [a // g for a in v]


def _normalized(field, v, q):
    """The canonical row of v, whose pivot is q: over QQ primitive with a
    positive pivot, over GF(p) (where v holds residues) pivot 1.  v itself
    when it is canonical already."""
    p = field.p
    if p is not None:
        if v[q] == 1:
            return v
        inv = pow(v[q], -1, p)
        return [a * inv % p for a in v]
    g = gcd(*v)
    if v[q] < 0:
        g = -g
    return v if g == 1 else [a // g for a in v]


def _cleared(v, c, r, row):
    """``(r' v - c' row, r')`` for ``r' = r / g``, ``c' = c / g`` and g the
    gcd of r and c: the fraction-free step that clears the entry c of v at
    the pivot of row, whose entry there is r.  When r is 1 the step is
    made in place, skipping the zero entries of row."""
    if r == 1:
        for t, b in enumerate(row):
            if b:
                v[t] -= c * b
        return v, 1
    g = gcd(r, c)
    if g != 1:
        r //= g
        c //= g
    return [r * a - c * b for a, b in zip(v, row)], r


def _reduce(field, v, rows, pivots):
    """``(w, s)``: w is s times the remainder of the integer vector v
    against echelon rows, and s > 0; every pivot entry of w is zero.  w is
    v itself when no row touches it, and a new list otherwise.  Over GF(p)
    w holds residues and s is 1."""
    if not any(v):
        return v, 1
    p = field.p
    scale = 1
    owned = False
    for q, row in zip(pivots, rows):
        c = v[q] if p is None else v[q] % p
        if c:
            if not owned:
                v, owned = list(v), True
            v, r = _cleared(v, c, row[q], row)
            scale *= r
    if owned and p is not None:
        v = [a % p for a in v]
    return v, scale


def echelon_insert(field, rows, pivots, v):
    """Grow integer echelon ``rows``/``pivots`` in place by an integer
    vector v, which is not changed.

    Returns v's remainder as a canonical row (see :class:`Subspace`), now
    one of the rows, or None when v already lies in their span.  Rows are
    pairwise reduced: the new row is cleared from every other row at its
    pivot, and the rows it changes are divided by their content.  A
    returned row is a stored list that later insertions may change in
    place, so a caller that keeps it must copy it.
    """
    w, _ = _reduce(field, v, rows, pivots)
    if not any(w):
        return None
    q = next(i for i, a in enumerate(w) if a)
    v = _normalized(field, list(w) if w is v else w, q)
    s = v[q]
    for i, row in enumerate(rows):
        c = row[q]
        if c:
            rows[i] = int_tidy(field, _cleared(row, c, s, v)[0])
    pos = bisect_left(pivots, q)
    rows.insert(pos, v)
    pivots.insert(pos, q)
    return v


def _echelon(field, vectors):
    """``(rows, pivots)`` of the span of integer vectors.  Once the rows
    span the whole space the rest are not reduced, but they are still
    drawn, so a generator that validates its vectors checks every one."""
    rows, pivots = [], []
    for v in vectors:
        if len(rows) < len(v):
            echelon_insert(field, rows, pivots, v)
    return rows, pivots


# ---------------------------------------------------------------------------
# canonical subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """Subspace of ``field^ambient_dim`` held as a reduced row-echelon basis.

    ``int_rows`` are the integer echelon rows: pairwise reduced, no zero
    rows, and each row canonical.  Over GF(p) a row holds residues with 1
    at its pivot; over QQ it is the primitive integer multiple of the
    reduced row-echelon row with a positive pivot.  So two subspaces are
    equal as sets exactly when their ``int_rows`` are identical.
    ``rows`` is the reduced row-echelon basis in canonical scalars; over
    QQ its Fractions are made on first read.
    """

    __slots__ = ("field", "ambient_dim", "int_rows", "pivots", "_rows")

    def __init__(self, field, ambient_dim, int_rows, pivots):
        # internal: int_rows must already be canonical; use span() to build
        int_rows = tuple(tuple(r) for r in int_rows)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "int_rows", int_rows)
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_rows", int_rows if field.p is not None else None)

    @property
    def rows(self):
        rows = self._rows
        if rows is None:
            rows = tuple(from_int_vector(self.field, r, r[q])
                         for r, q in zip(self.int_rows, self.pivots))
            object.__setattr__(self, "_rows", rows)
        return rows

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, field, vectors, ambient_dim):
        """Canonical span of the given coordinate vectors."""
        rows, pivots = _echelon(field, (
            int_vector(field, coerce_vector(field, v, ambient_dim))[0] for v in vectors))
        return cls(field, ambient_dim, rows, pivots)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, [], [])

    @classmethod
    def full(cls, field, ambient_dim):
        rows = [[1 if i == j else 0 for j in range(ambient_dim)] for i in range(ambient_dim)]
        return cls(field, ambient_dim, rows, range(ambient_dim))

    @property
    def dim(self):
        return len(self.int_rows)

    def is_zero(self):
        return not self.int_rows

    def is_full(self):
        return len(self.int_rows) == self.ambient_dim

    def _check_ambient(self, other):
        if other.field != self.field:
            raise FieldMismatchError("subspaces over different fields")
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatchError("subspaces of different ambient dimension")

    def residual(self, v):
        """Remainder of ``v`` after elimination against the echelon basis."""
        return self.residual_canonical(coerce_vector(self.field, v, self.ambient_dim))

    def residual_canonical(self, v):
        """:meth:`residual` for a vector of canonical scalars: no coercion."""
        ints, den = int_vector(self.field, v)
        w, scale = _reduce(self.field, ints, self.int_rows, self.pivots)
        return from_int_vector(self.field, w, den * scale)

    def contains(self, v):
        v = coerce_vector(self.field, v, self.ambient_dim)
        return self.contains_int(int_vector(self.field, v)[0])

    def contains_int(self, v):
        """:meth:`contains` for an integer vector (see :func:`int_vector`)."""
        return not any(_reduce(self.field, v, self.int_rows, self.pivots)[0])

    def is_subspace_of(self, other):
        self._check_ambient(other)
        return all(other.contains_int(r) for r in self.int_rows)

    def sum(self, other):
        self._check_ambient(other)
        rows, pivots = _echelon(self.field, self.int_rows + other.int_rows)
        return Subspace(self.field, self.ambient_dim, rows, pivots)

    def intersect(self, other):
        self._check_ambient(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.field, self.ambient_dim)
        if self.is_full():
            return other
        if other.is_full():
            return self
        # Zassenhaus: echelon [u | u] for u in U and [v | 0] for v in V; the
        # rows with a pivot in the right half are [0 | w] for the canonical
        # rows w of U & V
        F, n = self.field, self.ambient_dim
        zeros = (0,) * n
        rows, pivots = _echelon(F, [u + u for u in self.int_rows]
                                + [v + zeros for v in other.int_rows])
        k = bisect_left(pivots, n)
        return Subspace(F, n, [r[n:] for r in rows[k:]], [q - n for q in pivots[k:]])

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.field == self.field
                and other.ambient_dim == self.ambient_dim
                and other.int_rows == self.int_rows)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.int_rows))

    def __repr__(self):
        rows = ["[" + " ".join(self.field.fmt(a) for a in r) + "]" for r in self.rows]
        return f"Subspace(ambient={self.ambient_dim}, dim={self.dim}, rows={rows})"


# ---------------------------------------------------------------------------
# solving and kernels
# ---------------------------------------------------------------------------

def solve(M, b):
    """Some ``y`` with ``M @ y = b`` or None if the system is inconsistent.

    Deterministic: after echelon reduction every free variable is set to
    zero, so repeated calls return the identical witness.
    """
    if len(b) != M.nrows:
        raise DimensionMismatchError(f"matrix has {M.nrows} rows, rhs length {len(b)}")
    F = M.field
    b, db = int_vector(F, coerce_vector(F, b))
    # M y = b is (db M.int_rows) y = M.den b, the same system in integers
    y = int_solve(F, [[db * a for a in r] + [M.den * c] for r, c in zip(M.int_rows, b)],
                  M.ncols)
    return None if y is None else from_int_vector(F, *y)


def int_solve(field, rows, n):
    """``(y, den)`` with ``y / den`` a solution of the integer system whose
    augmented rows ``[M | b]`` are given (n unknowns), or None if it is
    inconsistent.  Every free variable is zero.  Over GF(p) the rows must
    hold residues, and den is 1."""
    work, pivots = _echelon(field, rows)
    if pivots and pivots[-1] == n:  # a pivot in the right-hand side column
        return None
    den = lcm(*[row[q] for row, q in zip(work, pivots)])
    y = [0] * n
    for row, q in zip(work, pivots):
        y[q] = row[n] * (den // row[q])
    return y, den


def kernel(M):
    """Null space ``{v : M v = 0}`` as a canonical subspace: one integer
    vector per free column of the echelon rows, echeloned in turn."""
    F, n = M.field, M.ncols
    work, pivots = _echelon(F, M.int_rows)
    den = lcm(*[row[q] for row, q in zip(work, pivots)])
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [0] * n
        v[free] = den
        for row, q in zip(work, pivots):
            v[q] = -row[free] * (den // row[q])
        basis.append(int_tidy(F, v))
    rows, pivots = _echelon(F, basis)
    return Subspace(F, n, rows, pivots)


def rank(M):
    return len(_echelon(M.field, M.int_rows)[0])
