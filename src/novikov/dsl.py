"""Line-oriented algebra-definition language.

Grammar ('#' starts a comment, blank lines ignored)::

    field rational            | field gf <p>
    basis <name> <name> ...   (may repeat; names accumulate)
    mul <b> <b> = <combo>          combo = 0 | <term> (+|- <term>)*
    map <name> <b> = <combo>       term = [coeff*]<b>; one line per column

Coefficients are integers, fractions p/q (rational field only) or residues.
Unspecified products and map columns are zero.  Parse errors carry the line
and column of the offending token.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple

from .core import AlgebraTable
from .errors import PreconditionError
from .exactlin import GF, QQ, Matrix


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+/\d+|\d+|[=+*-]|\S")

NAME = "name"
NUMBER = "number"
SYMBOL = "symbol"


def _check_digits(tok, line, col):
    """Refuse a number with a part longer than Python's limit on parsing an
    int (``sys.get_int_max_str_digits()``, 0 for none), naming the limit and
    echoing only the head of the token."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = max(map(len, tok.split("/")))
    if limit and digits > limit:
        raise ParseError(f"number {tok[:12]}... has {digits} digits, over Python's "
                         f"{limit}-digit limit on parsing an int", line, col)


def _tokenize(text_line, lineno):
    cut = text_line.find("#")
    if cut >= 0:
        text_line = text_line[:cut]
    tokens = []
    for m in _TOKEN.finditer(text_line):
        tok = m.group(0)
        col = m.start() + 1
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            kind = NAME
        elif re.fullmatch(r"\d+/\d+|\d+", tok):
            kind = NUMBER
            _check_digits(tok, lineno, col)
        elif tok in "=+*-":
            kind = SYMBOL
        else:
            raise ParseError(f"unexpected character {tok!r}", lineno, col)
        tokens.append((kind, tok, lineno, col))
    return tokens


# A parsed document: its algebra table and its named linear maps,
# ``{name: Matrix}``.  The maps are a dict, so a document is not hashable.
AlgebraDoc = namedtuple("AlgebraDoc", "algebra maps")


class _LineParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect_kind=None, expect_value=None, what=None):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1]
            raise ParseError(f"unexpected end of line, expected {what or expect_kind}",
                             last[2], last[3] + len(last[1]))
        kind, value, line, col = tok
        if expect_kind and kind != expect_kind:
            raise ParseError(f"expected {what or expect_kind}, found {value!r}", line, col)
        if expect_value and value != expect_value:
            raise ParseError(f"expected {expect_value!r}, found {value!r}", line, col)
        self.pos += 1
        return tok

    def done(self):
        return self.pos >= len(self.tokens)


def _parse_coeff(field, token):
    kind, value, line, col = token
    if "/" in value and field.p is not None:
        raise ParseError(f"coefficient {value!r} is not in {field.spec_string()}",
                         line, col)
    try:
        return field.parse(value)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"coefficient {value!r} is not in {field.spec_string()}",
                         line, col) from None


def _parse_combo(lp, field, name_index):
    """Parse the rest of the line, ``0`` or ``term (+|- term)*``, into the
    ``{index: coefficient}`` terms of a vector, summed per basis name."""
    out = {}
    tok = lp.peek()
    if tok and tok[1] == "0" and lp.pos == len(lp.tokens) - 1:
        lp.next()
        return out
    sign = 1
    if tok and tok[1] == "-":
        lp.next()
        sign = -1
    while True:
        tok = lp.peek()
        if tok is None:
            last = lp.tokens[-1]
            raise ParseError("expected a term", last[2], last[3] + len(last[1]))
        if tok[0] == NUMBER:
            coeff = _parse_coeff(field, lp.next())
            lp.next(SYMBOL, "*", what="'*' after a coefficient")
            name_tok = lp.next(NAME, what="a basis name")
        elif tok[0] == NAME:
            coeff = field.one
            name_tok = lp.next()
        else:
            raise ParseError(f"expected a term, found {tok[1]!r}", tok[2], tok[3])
        idx = name_index.get(name_tok[1])
        if idx is None:
            raise ParseError(f"unknown basis name {name_tok[1]!r}",
                             name_tok[2], name_tok[3])
        if sign < 0:
            coeff = field.neg(coeff)
        out[idx] = field.add(out.get(idx, field.zero), coeff)
        nxt = lp.peek()
        if nxt is None:
            return out
        if nxt[1] not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', found {nxt[1]!r}", nxt[2], nxt[3])
        sign = 1 if nxt[1] == "+" else -1
        lp.next()


def _dense(field, combo, dim):
    """The coordinate vector of length dim with the terms of combo."""
    return tuple(combo.get(k, field.zero) for k in range(dim))


def parse_algebra_source(text):
    """Parse a document into an :class:`AlgebraDoc`: the table is built
    once, after the last line, so basis names may follow the products."""
    field = None
    basis = []
    name_index = {}
    products = {}
    maps = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        lp = _LineParser(tokens)
        kw_tok = lp.next(NAME, what="a declaration keyword")
        kw = kw_tok[1]

        if kw == "field":
            if field is not None:
                raise ParseError("duplicate field declaration", kw_tok[2], kw_tok[3])
            tok = lp.next(NAME, what="'rational' or 'gf'")
            if tok[1] == "rational":
                field = QQ
            elif tok[1] == "gf":
                ptok = lp.next(NUMBER, what="a prime modulus")
                try:
                    field = GF(int(ptok[1]))
                except ValueError as exc:  # not prime, or over the bound
                    raise ParseError(str(exc) if ptok[1].isdigit() else
                                     f"modulus {ptok[1]} is not prime",
                                     ptok[2], ptok[3]) from None
            else:
                raise ParseError(f"unknown field {tok[1]!r}", tok[2], tok[3])
            if not lp.done():
                tok = lp.peek()
                raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
            continue

        if field is None:
            raise ParseError("the field must be declared first", kw_tok[2], kw_tok[3])

        if kw == "basis":
            if lp.done():
                raise ParseError("empty basis declaration", kw_tok[2], kw_tok[3])
            while not lp.done():
                tok = lp.next(NAME, what="a basis name")
                if tok[1] in name_index:
                    raise ParseError(f"duplicate basis name {tok[1]!r}", tok[2], tok[3])
                name_index[tok[1]] = len(basis)
                basis.append(tok[1])
            continue

        if kw == "mul":
            a = lp.next(NAME, what="a basis name")
            b = lp.next(NAME, what="a basis name")
            for tok in (a, b):
                if tok[1] not in name_index:
                    raise ParseError(f"unknown basis name {tok[1]!r}", tok[2], tok[3])
            key = (name_index[a[1]], name_index[b[1]])
            if key in products:
                raise ParseError(f"duplicate product entry for {a[1]} {b[1]}",
                                 a[2], a[3])
            lp.next(SYMBOL, "=", what="'='")
            products[key] = _parse_combo(lp, field, name_index)
            continue

        if kw == "map":
            mname = lp.next(NAME, what="a map name")
            b = lp.next(NAME, what="a basis name")
            if b[1] not in name_index:
                raise ParseError(f"unknown basis name {b[1]!r}", b[2], b[3])
            col = name_index[b[1]]
            columns = maps.setdefault(mname[1], {})
            if col in columns:
                raise ParseError(f"duplicate map entry for {mname[1]} {b[1]}",
                                 mname[2], mname[3])
            lp.next(SYMBOL, "=", what="'='")
            columns[col] = _parse_combo(lp, field, name_index)
            continue

        raise ParseError(f"unknown declaration {kw!r}", kw_tok[2], kw_tok[3])

    if field is None:
        raise ParseError("missing field declaration", 1, 1)
    if not basis:
        raise ParseError("missing basis declaration", 1, 1)
    dim = len(basis)
    algebra = AlgebraTable.from_products(
        field, dim, {ij: _dense(field, v, dim) for ij, v in products.items()}, basis)
    return AlgebraDoc(algebra, {
        name: Matrix.from_columns(field, [_dense(field, cols.get(j, {}), dim)
                                          for j in range(dim)])
        for name, cols in maps.items()})


def _fmt_combo(field, basis, vec):
    parts = []
    for idx, c in enumerate(vec):
        if not c:
            continue
        mag = field.fmt(c)
        sign = "+"
        if field.p is None and mag.startswith("-"):
            sign = "-"
            mag = mag[1:]
        term = basis[idx] if mag == "1" else f"{mag}*{basis[idx]}"
        parts.append((sign, term))
    if not parts:
        return "0"
    first_sign, first_term = parts[0]
    text = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


def serialize_algebra_doc(doc):
    """Canonical text form; parsing it back yields an equal document.  A
    map with no nonzero column is written as its first column, ``0``.

    The grammar has no empty basis, so a zero-dimensional table (which
    ``quotient(A, A.full_space())`` returns) has no text form and raises
    :class:`PreconditionError`."""
    A = doc.algebra
    if not A.dim:
        raise PreconditionError("a zero-dimensional algebra has no text form: "
                                "the basis declaration needs a name")
    F, basis = A.field, A.basis_names
    lines = [f"field {F.spec_string()}", "basis " + " ".join(basis)]
    for i, j, _ in A._int_products():
        lines.append(f"mul {basis[i]} {basis[j]} = "
                     f"{_fmt_combo(F, basis, A.basis_product(i, j))}")
    for mname in sorted(doc.maps):
        M = doc.maps[mname]
        cols = [j for j in range(A.dim) if any(M.column(j))] or [0]
        for j in cols:
            lines.append(f"map {mname} {basis[j]} = {_fmt_combo(F, basis, M.column(j))}")
    return "\n".join(lines) + "\n"


def parse_element_combo(text, A):
    """Parse a standalone combination against a table's basis names into a
    coordinate vector."""
    tokens = _tokenize(text, 1)
    if not tokens:
        raise ParseError("empty element expression", 1, 1)
    lp = _LineParser(tokens)
    name_index = {n: i for i, n in enumerate(A.basis_names)}
    combo = _parse_combo(lp, A.field, name_index)
    if not lp.done():
        tok = lp.peek()
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
    return _dense(A.field, combo, A.dim)
