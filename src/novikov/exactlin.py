"""Exact scalars and dense exact linear algebra.

Scalars live in one of two fields: the rationals (stdlib ``Fraction``) or a
prime field GF(p) (ints reduced to ``[0, p)``).  On top of that sit dense
matrices and canonical subspaces (reduced row-echelon bases), which is the
representation used everywhere else for ideals, radicals and series terms.

All values are immutable after construction and all operations are pure, so
everything here can be shared freely between threads.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .errors import DimensionMismatchError, FieldMismatchError


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
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

    @staticmethod
    def div(a, b):
        return a / b

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

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

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


def vec_neg(field, u):
    return tuple(field.neg(a) for a in u)


def vec_scale(field, c, u):
    if not c:
        return vec_zeros(field, len(u))
    return tuple(field.mul(c, a) for a in u)


def vec_dot(field, u, v):
    _check_len(u, v)
    s = field.zero
    for a, b in zip(u, v):
        if a and b:
            s = field.add(s, field.mul(a, b))
    return s


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
    """Dense rectangular matrix over one field; rows are tuples of scalars."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        rows = [coerce_vector(field, r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatchError("ragged rows")
            if ncols is not None and ncols != width:
                raise DimensionMismatchError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

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

    def __neg__(self):
        F = self.field
        return Matrix(F, [vec_neg(F, r) for r in self.rows], ncols=self.ncols)

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

    def transpose(self):
        return Matrix(self.field, [self.column(j) for j in range(self.ncols)],
                      ncols=self.nrows)

    def trace(self):
        if self.nrows != self.ncols:
            raise DimensionMismatchError("trace of a non-square matrix")
        F = self.field
        s = F.zero
        for i in range(self.nrows):
            s = F.add(s, self.rows[i][i])
        return s

    def is_zero(self):
        return all(vec_is_zero(r) for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.ncols == self.ncols and other.rows == self.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(a) for a in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


# ---------------------------------------------------------------------------
# canonical subspaces
# ---------------------------------------------------------------------------

def _eliminate(v, c, row):
    """v -= c * row in place, skipping the zero entries of row."""
    for t, b in enumerate(row):
        if b:
            v[t] -= c * b


def _reduce_against(field, v, rows, pivots):
    """Remainder of a canonical v against echelon rows; residues are
    reduced once, at the end."""
    v = list(v)
    p = field.p
    touched = False
    for piv, row in zip(pivots, rows):
        c = v[piv] if p is None else v[piv] % p
        if c:
            _eliminate(v, c, row)
            touched = True
    return [a % p for a in v] if touched and p is not None else v


def echelon_insert(field, rows, pivots, v):
    """Grow echelon ``rows``/``pivots`` in place by a canonical vector v.

    Returns v's pivot-normalized remainder, now one of the rows, or None
    when v already lies in their span.  The returned row is the stored
    list, which later insertions back-eliminate in place; a caller that
    keeps it must copy it.
    """
    v = _reduce_against(field, v, rows, pivots)
    p = next((i for i, a in enumerate(v) if a), None)
    if p is None:
        return None
    modulus = field.p
    if v[p] != field.one:
        inv = field.inv(v[p])
        v = ([inv * a for a in v] if modulus is None
             else [inv * a % modulus for a in v])
    for row in rows:
        c = row[p]
        if c:
            _eliminate(row, c, v)
            if modulus is not None:
                row[:] = [a % modulus for a in row]
    pos = bisect_left(pivots, p)
    rows.insert(pos, v)
    pivots.insert(pos, p)
    return v


class Subspace:
    """Subspace of ``field^ambient_dim`` held as a reduced row-echelon basis.

    The basis is pivot-normalized with pairwise-reduced rows and no zero
    rows, so two subspaces are equal as sets exactly when their ``rows``
    tuples are identical.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field, ambient_dim, rows, pivots):
        # internal: rows must already be canonical; use span() to build
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, field, vectors, ambient_dim):
        """Canonical span of the given coordinate vectors."""
        rows = []
        pivots = []
        for v in vectors:
            echelon_insert(field, rows, pivots, coerce_vector(field, v, ambient_dim))
        return cls(field, ambient_dim, rows, pivots)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, [], [])

    @classmethod
    def full(cls, field, ambient_dim):
        one, z = field.one, field.zero
        rows = [[one if i == j else z for j in range(ambient_dim)] for i in range(ambient_dim)]
        return cls(field, ambient_dim, rows, range(ambient_dim))

    @property
    def dim(self):
        return len(self.rows)

    def is_zero(self):
        return not self.rows

    def is_full(self):
        return len(self.rows) == self.ambient_dim

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
        return tuple(_reduce_against(self.field, v, self.rows, self.pivots))

    def contains(self, v):
        return self.contains_canonical(coerce_vector(self.field, v, self.ambient_dim))

    def contains_canonical(self, v):
        """:meth:`contains` for a vector of canonical scalars, such as a
        product computed in an algebra: no coercion."""
        return vec_is_zero(_reduce_against(self.field, v, self.rows, self.pivots))

    def is_subspace_of(self, other):
        self._check_ambient(other)
        return all(other.contains_canonical(r) for r in self.rows)

    def sum(self, other):
        self._check_ambient(other)
        return Subspace.span(self.field, list(self.rows) + list(other.rows),
                             self.ambient_dim)

    def intersect(self, other):
        self._check_ambient(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.field, self.ambient_dim)
        if self.is_full():
            return other
        if other.is_full():
            return self
        # columns = both bases; kernel vectors give coefficient pairs (a, b)
        # with a-combination = -(b-combination), i.e. intersection elements
        cols = list(self.rows) + list(other.rows)
        M = Matrix.from_columns(self.field, cols, nrows=self.ambient_dim)
        ker = kernel(M)
        k = self.dim
        F = self.field
        vecs = []
        for w in ker.rows:
            v = vec_zeros(F, self.ambient_dim)
            for i in range(k):
                if w[i]:
                    v = vec_add(F, v, vec_scale(F, w[i], self.rows[i]))
            vecs.append(v)
        return Subspace.span(F, vecs, self.ambient_dim)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.field == self.field
                and other.ambient_dim == self.ambient_dim and other.rows == self.rows)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.rows))

    def __repr__(self):
        rows = ["[" + " ".join(self.field.fmt(a) for a in r) + "]" for r in self.rows]
        return f"Subspace(ambient={self.ambient_dim}, dim={self.dim}, rows={rows})"


# ---------------------------------------------------------------------------
# solving and kernels
# ---------------------------------------------------------------------------

def _row_reduce(field, rows, pivot_limit):
    """Gauss-Jordan on a list of row lists; pivots only in the first
    ``pivot_limit`` columns.  Returns (rows, pivot_columns).  Residues are
    reduced once per eliminated row, so every entry is canonical between
    pivot steps."""
    work = [list(r) for r in rows]
    modulus = field.p
    pivots = []
    r = 0
    for c in range(pivot_limit):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        row = work[r]
        if row[c] != field.one:
            inv = field.inv(row[c])
            row = work[r] = ([inv * a for a in row] if modulus is None
                             else [inv * a % modulus for a in row])
        for i, other in enumerate(work):
            f = other[c]
            if f and i != r:
                _eliminate(other, f, row)
                if modulus is not None:
                    other[:] = [a % modulus for a in other]
        pivots.append(c)
        r += 1
    return work, pivots


def solve(M, b):
    """Some ``y`` with ``M @ y = b`` or None if the system is inconsistent.

    Deterministic: after echelon reduction every free variable is set to
    zero, so repeated calls return the identical witness.
    """
    if len(b) != M.nrows:
        raise DimensionMismatchError(f"matrix has {M.nrows} rows, rhs length {len(b)}")
    F = M.field
    b = coerce_vector(F, b)
    aug = [list(r) + [b[i]] for i, r in enumerate(M.rows)]
    work, pivots = _row_reduce(F, aug, pivot_limit=M.ncols)
    rank = len(pivots)
    for row in work[rank:]:
        if row[M.ncols]:
            return None
    y = [F.zero] * M.ncols
    for i, p in enumerate(pivots):
        y[p] = work[i][M.ncols]
    return tuple(y)


def kernel(M):
    """Null space ``{v : M v = 0}`` as a canonical subspace."""
    F = M.field
    work, pivots = _row_reduce(F, M.rows, pivot_limit=M.ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(M.ncols):
        if free in pivot_set:
            continue
        v = [F.zero] * M.ncols
        v[free] = F.one
        for i, p in enumerate(pivots):
            v[p] = F.neg(work[i][free])
        basis.append(v)
    return Subspace.span(F, basis, M.ncols)


def rank(M):
    _, pivots = _row_reduce(M.field, M.rows, pivot_limit=M.ncols)
    return len(pivots)
