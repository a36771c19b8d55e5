"""Reference arithmetic that shares no code with the package.

The benchmark checks the package's answers against these plain loops over
the raw structure cube, so a defect in the timed path cannot also hide in
its check.  Scalars are ``Fraction`` over QQ and ints mod ``p`` over GF(p),
with Python's own operators.
"""

from fractions import Fraction


def _reduce(p, a):
    return a if p is None else a % p


class Table:
    """The nonzero structure constants ``cube[i][j][k]`` of one algebra,
    kept as a flat list so a reference product costs one pass over them."""

    def __init__(self, cube, p):
        self.dim = len(cube)
        self.p = p
        self.terms = [(i, j, k, c) for i, plane in enumerate(cube)
                      for j, row in enumerate(plane) for k, c in enumerate(row) if c]

    def product(self, x, y):
        out = [0] * self.dim
        for i, j, k, c in self.terms:
            if x[i] and y[j]:
                out[k] += x[i] * y[j] * c
        return tuple(_reduce(self.p, a) for a in out)

    def power(self, x, n):
        """Left-normed power ``x^n = x^(n-1) x``."""
        power = x
        for _ in range(n - 1):
            power = self.product(power, x)
        return power


def gd_cube(cube, d_rows, p):
    """Cube of the Gelfand-Dorfman product ``e_i . e_j = e_i d(e_j)``."""
    n = len(cube)
    out = []
    for i in range(n):
        plane = []
        for j in range(n):
            acc = [0] * n
            for m in range(n):
                dmj = d_rows[m][j]
                if dmj:
                    for k, c in enumerate(cube[i][m]):
                        if c:
                            acc[k] += dmj * c
            plane.append(tuple(_reduce(p, a) for a in acc))
        out.append(tuple(plane))
    return tuple(out)


def _inverse(p, a):
    return Fraction(1) / a if p is None else pow(a, p - 2, p)


def rank(p, vectors):
    """Rank by plain Gaussian elimination."""
    rows = [list(v) for v in vectors]
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = _inverse(p, rows[r][c])
        rows[r] = [_reduce(p, a * inv) for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [_reduce(p, a - f * b) for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _basis(p, vectors):
    """A maximal independent subset, kept in input order."""
    out = []
    for v in vectors:
        if any(v) and rank(p, out + [v]) > len(out):
            out.append(v)
    return out


def lie_solvable(cube, p):
    """True iff the derived series of ``[x, y] = xy - yx`` reaches zero."""
    table = Table(cube, p)
    n = len(cube)
    term = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    while term:
        brackets = []
        for a, u in enumerate(term):
            for v in term[a + 1:]:
                uv, vu = table.product(u, v), table.product(v, u)
                brackets.append(tuple(_reduce(p, s - t) for s, t in zip(uv, vu)))
        nxt = _basis(p, brackets)
        if len(nxt) == len(term):
            return False
        term = nxt
    return True
