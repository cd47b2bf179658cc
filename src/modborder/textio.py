"""Plain-text syntax for vectors, polynomials, and problem files.

Vector monomials look like ``4/3*e1``, ``-x^2*y*e2``, ``(3*x - 1)*e2``; a
polynomial is the same without the basis marker.  A problem file is::

    ring Q[x,y]
    rank 2
    order degrevlex
    vectors:
    x^2*e1 - y*e1 + e2
    ...

with optional further sections ``syzygy:`` (vectors), ``ideal:`` and
``subideal:`` (polynomials).  ``#`` starts a comment.  Printing is the
inverse: terms descend in the position-over-term order, coefficients are
reduced fractions, and ``parse(print(v)) == v``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .ring import ORDER_NAMES, Poly, TermOrder, Vector, term_mul, term_one

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_MARKER_RE = re.compile(r"^e[0-9]+$")
_OPS = "+-*/^()"


# ---------------------------------------------------------------------------
# tokenizer / parser


def _tokenize(text, line_no=None):
    tokens = []
    col = 0
    n = len(text)
    while col < n:
        ch = text[col]
        if ch in " \t":
            col += 1
            continue
        if ch == "#":
            break
        start = col + 1
        if "0" <= ch <= "9":
            j = col
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("num", int(text[col:j]), line_no, start))
            col = j
        elif ch.isascii() and (ch.isalpha() or ch == "_"):
            m = _NAME_RE.match(text, col)
            tokens.append(("name", m.group(0), line_no, start))
            col = m.end()
        elif ch in _OPS:
            tokens.append(("op", ch, line_no, start))
            col += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line=line_no, col=start)
    tokens.append(("end", None, line_no, n + 1))
    return tokens


class _Parser:
    def __init__(self, text, varnames, rank, line_no=None):
        self.tokens = _tokenize(text, line_no)
        self.pos = 0
        self.varnames = list(varnames)
        self.rank = rank
        self.line_no = line_no
        self.nvars = len(self.varnames)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, line=tok[2], col=tok[3])

    def at_op(self, *ops):
        kind, value, _, _ = self.peek()
        return kind == "op" and value in ops

    def expect_op(self, op):
        if not self.at_op(op):
            self.fail(f"expected {op!r}")
        return self.advance()

    # -- grammar -----------------------------------------------------------

    def parse_rational(self):
        kind, value, _, _ = self.peek()
        if kind != "num":
            self.fail("expected a number")
        self.advance()
        num = value
        if self.at_op("/"):
            self.advance()
            kind, den, _, _ = self.peek()
            if kind != "num":
                self.fail("expected a denominator")
            tok = self.advance()
            if den == 0:
                self.fail("zero denominator", tok)
            return Fraction(num, den)
        return Fraction(num)

    def parse_power(self):
        kind, name, _, _ = self.peek()
        tok = self.advance()
        i = self.varnames.index(name)
        exp = 1
        if self.at_op("^"):
            self.advance()
            kind, value, _, _ = self.peek()
            if kind != "num":
                self.fail("expected an exponent")
            etok = self.advance()
            if value < 1:
                self.fail("exponent must be positive", etok)
            exp = value
        t = [0] * self.nvars
        t[i] = exp
        return tuple(t)

    def parse_monomial(self, want_vector):
        """One signed product of factors; returns a Poly or a Vector."""
        sign = Fraction(1)
        while self.at_op("+", "-"):
            if self.advance()[1] == "-":
                sign = -sign
        coeff = sign
        term = term_one(self.nvars)
        polys = []
        comp = None
        while True:
            kind, value, _, _ = self.peek()
            if kind == "num":
                coeff *= self.parse_rational()
            elif kind == "name" and value in self.varnames:
                term = term_mul(term, self.parse_power())
            elif kind == "name" and _MARKER_RE.match(value):
                tok = self.advance()
                if not want_vector:
                    self.fail(f"unknown variable {value!r}", tok)
                k = int(value[1:])
                if not 1 <= k <= self.rank:
                    self.fail(
                        f"component index {k} out of range 1..{self.rank}", tok
                    )
                comp = k
                break
            elif kind == "name":
                self.fail(f"unknown variable {value!r}")
            elif kind == "op" and value == "(":
                self.advance()
                polys.append(self.parse_sum(want_vector=False))
                self.expect_op(")")
            else:
                self.fail("expected a coefficient, variable, or basis marker")
            if self.at_op("*"):
                self.advance()
                continue
            break
        p = Poly.monomial(self.nvars, term, coeff)
        for q in polys:
            p = p * q
        if want_vector:
            if comp is None:
                if p.is_zero():
                    return Vector.zero(self.nvars, self.rank)
                self.fail("monomial lacks a basis marker e<k>")
            return Vector.unit(self.nvars, self.rank, comp).mul_poly(p)
        return p

    def parse_sum(self, want_vector):
        out = self.parse_monomial(want_vector)
        while self.at_op("+", "-"):
            out = out + self.parse_monomial(want_vector)
        return out

    def parse_all(self, want_vector):
        out = self.parse_sum(want_vector)
        kind, _, _, _ = self.peek()
        if kind != "end":
            self.fail("trailing input after expression")
        return out


def parse_vector(text, varnames, rank, line_no=None):
    return _Parser(text, varnames, rank, line_no).parse_all(want_vector=True)


def parse_poly(text, varnames, line_no=None):
    return _Parser(text, varnames, 0, line_no).parse_all(want_vector=False)


# ---------------------------------------------------------------------------
# printing


def format_term(t, varnames):
    parts = []
    for i, e in enumerate(t):
        if e == 0:
            continue
        parts.append(varnames[i] if e == 1 else f"{varnames[i]}^{e}")
    return "*".join(parts) if parts else "1"


def _join_signed(pieces):
    out = []
    for idx, (coeff, body) in enumerate(pieces):
        mag = -coeff if coeff < 0 else coeff
        if body is None:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if idx == 0:
            out.append(("-" if coeff < 0 else "") + text)
        else:
            out.append(("- " if coeff < 0 else "+ ") + text)
    return " ".join(out)


def format_poly(p, varnames, order):
    if p.is_zero():
        return "0"
    terms = sorted(p.terms(), key=order.key, reverse=True)
    pieces = []
    for t in terms:
        body = None if t == term_one(p.nvars) else format_term(t, varnames)
        pieces.append((p.coeff(t), body))
    return _join_signed(pieces)


def format_vector(v, varnames, order):
    if v.is_zero():
        return "0"
    support = sorted(v.support(), key=order.mod_key, reverse=True)
    pieces = []
    for t, k in support:
        marker = f"e{k}"
        if t == term_one(v.nvars):
            body = marker
        else:
            body = f"{format_term(t, varnames)}*{marker}"
        pieces.append((v.coeff((t, k)), body))
    return _join_signed(pieces)


def format_modterm(mt, varnames, basename="e"):
    t, k = mt
    if all(e == 0 for e in t):
        return f"{basename}{k}"
    return f"{format_term(t, varnames)}*{basename}{k}"


def format_combination(v, varnames, order, basename="f"):
    """Print a vector as a combination p_1*f1 + ... + p_r*fr, parenthesizing
    coefficient polynomials with more than one term."""
    if v.is_zero():
        return "0"
    pieces = []
    for k in range(1, v.rank + 1):
        p = v.component(k)
        if p.is_zero():
            continue
        marker = f"{basename}{k}"
        if len(p.coeffs) == 1:
            ((t, c),) = p.coeffs.items()
            if t == term_one(v.nvars):
                body = marker
            else:
                body = f"{format_term(t, varnames)}*{marker}"
            pieces.append((c, body))
        else:
            pieces.append(
                (Fraction(1), f"({format_poly(p, varnames, order)})*{marker}")
            )
    return _join_signed(pieces)


# ---------------------------------------------------------------------------
# problem files

_RING_RE = re.compile(r"^ring\s+Q\[\s*([^\]]*)\]$")


class ProblemFile:
    """Parsed contents of a problem file."""

    __slots__ = ("varnames", "rank", "order", "vectors", "syzygy", "ideal", "subideal")

    def __init__(self, varnames, rank, order):
        self.varnames = varnames
        self.rank = rank
        self.order = order
        self.vectors = []
        self.syzygy = []
        self.ideal = []
        self.subideal = []


_VECTOR_SECTIONS = ("vectors", "syzygy")
_POLY_SECTIONS = ("ideal", "subideal")


def read_problem(text):
    lines = text.splitlines()
    significant = []
    for no, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            significant.append((no, stripped))
    if len(significant) < 3:
        raise ParseError("file must start with ring, rank, and order lines")

    no, line = significant[0]
    m = _RING_RE.match(line)
    if not m:
        raise ParseError("expected 'ring Q[x1,...,xn]'", line=no, col=1)
    varnames = [s.strip() for s in m.group(1).split(",")] if m.group(1).strip() else []
    if not varnames:
        raise ParseError("ring needs at least one variable", line=no, col=1)
    for name in varnames:
        if not _NAME_RE.fullmatch(name):
            raise ParseError(f"bad variable name {name!r}", line=no, col=1)
        if _MARKER_RE.match(name):
            raise ParseError(
                f"variable name {name!r} collides with basis markers", line=no, col=1
            )
    if len(set(varnames)) != len(varnames):
        raise ParseError("duplicate variable name", line=no, col=1)

    no, line = significant[1]
    m = re.match(r"^rank\s+([0-9]+)$", line)
    if not m or int(m.group(1)) < 1:
        raise ParseError("expected 'rank <positive integer>'", line=no, col=1)
    rank = int(m.group(1))

    no, line = significant[2]
    m = re.match(r"^order\s+([A-Za-z]+)$", line)
    if not m or m.group(1) not in ORDER_NAMES:
        names = ", ".join(ORDER_NAMES)
        raise ParseError(f"expected 'order <{names}>'", line=no, col=1)
    pf = ProblemFile(varnames, rank, TermOrder(m.group(1)))

    section = None
    seen = set()
    for no, line in significant[3:]:
        if line.endswith(":"):
            name = line[:-1].strip()
            if name not in _VECTOR_SECTIONS + _POLY_SECTIONS:
                raise ParseError(f"unknown section {name!r}", line=no, col=1)
            if name in seen:
                raise ParseError(f"duplicate section {name!r}", line=no, col=1)
            seen.add(name)
            section = name
            continue
        if section is None:
            raise ParseError("expected a section header like 'vectors:'", line=no, col=1)
        if section in _VECTOR_SECTIONS:
            entry = parse_vector(line, varnames, rank, line_no=no)
        else:
            entry = parse_poly(line, varnames, line_no=no)
        getattr(pf, section).append(entry)
    return pf
