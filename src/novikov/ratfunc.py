"""Exact univariate polynomials and rational functions over the rationals.

The carrier of interest is the set of reduced fractions f/g with f(0) = 0
and g(0) != 0.  The derivation u -> x u' makes the carrier a left-
quasiregular algebra under the product u . v = u d(v), while the element x
itself is not right-quasiregular: the obstruction polynomial has a forced
nonzero leading term, reported case by case.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import CarrierMembershipError


class Poly:
    """Polynomial over the rationals; ascending coefficients, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self):
        """Exact degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, point):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    def scale(self, c):
        c = Fraction(c)
        return Poly([a * c for a in self.coeffs])

    def shift(self, k):
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def divmod(self, other):
        """Exact Euclidean division: (q, r) with self = q*other + r."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        q = [Fraction(0)] * max(len(r) - len(other.coeffs) + 1, 0)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        while len(r) - 1 >= d and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            c = r[-1] / lead
            k = len(r) - 1 - d
            q[k] = c
            for i, b in enumerate(other.coeffs):
                r[k + i] -= c * b
        return Poly(q), Poly(r)

    def gcd(self, other):
        """Monic greatest common divisor by the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a.monic()

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(1 / self.leading)

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other):
        return isinstance(other, Poly) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(parts) + ")"


P_ZERO = Poly()
P_ONE = Poly([1])
P_X = Poly([0, 1])


class RatFunc:
    """Reduced fraction of polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE):
        if not isinstance(num, Poly):
            num = Poly([num]) if num else Poly()
        if not isinstance(den, Poly):
            den = Poly([den])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = P_ONE
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.leading
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other):
        return RatFunc(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero fraction")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and other.num == self.num
                and other.den == self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r} / {self.den!r})"


RF_ZERO = RatFunc(P_ZERO)
RF_X = RatFunc(P_X)


def in_carrier(u):
    """True iff u = f/g in reduced form has f(0) = 0 and g(0) != 0.

    Reduction preserves both conditions, so the reduced form decides
    membership."""
    return u.num(0) == 0 and u.den(0) != 0


def _require_carrier(u):
    if not in_carrier(u):
        raise CarrierMembershipError(
            f"{u!r} is not a fraction vanishing at 0 with unit denominator there")


def rf_derivation(u):
    """d(f/g) = x (f' g - f g') / g^2; maps the carrier into itself."""
    _require_carrier(u)
    f, g = u.num, u.den
    num = (f.derivative() * g - f * g.derivative()).shift(1)
    return RatFunc(num, g * g)


def gd_product(u, v):
    """u . v = u d(v), the Novikov product on the carrier."""
    _require_carrier(u)
    _require_carrier(v)
    return u * rf_derivation(v)


def gd_power(u, n):
    """Left-normed power of u under the carrier's Novikov product."""
    if n < 1:
        raise ValueError("left-normed powers start at exponent 1")
    p = u
    for _ in range(n - 1):
        p = gd_product(p, u)
    return p


def left_quasi_inverse(u):
    """y with u + y = y . u, built from the quasi-inverse of w = d(u).

    Since w vanishes at 0, z = w/(w - 1) stays in the carrier and solves
    w + z = w z; then y = u z - u works, and the defining identity is
    re-verified exactly before returning."""
    _require_carrier(u)
    w = rf_derivation(u)
    one = RatFunc(P_ONE)
    z = w / (w - one)
    y = u * z - u
    if u + y - gd_product(y, u) != RF_ZERO:
        raise RuntimeError("left quasi-inverse failed the defining identity")
    return y


class CaseReport(namedtuple("CaseReport", "case num_degree den_degree predicted_coeff "
                                         "predicted_exponent actual_coeff actual_exponent "
                                         "matches residual_is_zero")):
    """Leading-term case analysis of the right-quasiregularity obstruction.

    ``case`` is "m>n", "n>m" or "n=m" with n = deg f, m = deg g.
    """

    __slots__ = ()


def right_qr_residual(f, g):
    """Obstruction r = x g^2 + f g - x^2 (f' g - f g') to solving
    x + f/g = x . (f/g), with its predicted-versus-actual leading term.

    Prediction: beta_m^2 x^(2m+1) when m >= n, and
    -(n - m) alpha_n beta_m x^(n+m+1) when n > m, where n = deg f,
    m = deg g, alpha_n and beta_m the leading coefficients.
    """
    if f.is_zero():
        raise CarrierMembershipError("the numerator must be nonzero")
    if f(0) != 0 or g(0) == 0:
        raise CarrierMembershipError(
            "need f(0) = 0 and g(0) != 0 for the obstruction analysis")
    n, m = f.degree, g.degree
    alpha, beta = f.leading, g.leading
    r = (g * g).shift(1) + f * g - (f.derivative() * g - f * g.derivative()).shift(2)
    if m >= n:
        case = "m>n" if m > n else "n=m"
        pred_coeff = beta * beta
        pred_exp = 2 * m + 1
    else:
        case = "n>m"
        pred_coeff = -(n - m) * alpha * beta
        pred_exp = n + m + 1
    actual_coeff = r.leading if not r.is_zero() else Fraction(0)
    actual_exp = r.degree
    report = CaseReport(
        case=case, num_degree=n, den_degree=m,
        predicted_coeff=pred_coeff, predicted_exponent=pred_exp,
        actual_coeff=actual_coeff, actual_exponent=actual_exp,
        matches=(not r.is_zero() and actual_coeff == pred_coeff
                 and actual_exp == pred_exp),
        residual_is_zero=r.is_zero(),
    )
    return r, report
