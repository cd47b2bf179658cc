"""Terms, term orderings, polynomials and vectors over Q[x1..xn]^r.

Terms are exponent tuples, module terms are pairs (term, component) with
components numbered from 1.  All coefficient arithmetic is exact, using
`fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction

ORDER_NAMES = ("degrevlex", "deglex", "lex")


# ---------------------------------------------------------------------------
# terms


def term_one(nvars):
    return (0,) * nvars


def term_deg(t):
    return sum(t)


def term_mul(s, t):
    return tuple(a + b for a, b in zip(s, t))


def term_divides(s, t):
    """Return True if s divides t."""
    return all(a <= b for a, b in zip(s, t))


def term_quot(t, s):
    """Return t/s; s must divide t."""
    q = tuple(a - b for a, b in zip(t, s))
    if any(e < 0 for e in q):
        raise ValueError(f"{s} does not divide {t}")
    return q


def term_lcm(s, t):
    return tuple(max(a, b) for a, b in zip(s, t))


def unit_terms(nvars):
    """The variables x1..xn as exponent tuples, in order."""
    return [tuple(1 if i == s else 0 for i in range(nvars)) for s in range(nvars)]


def term_pred(t, i):
    """Return t / x_{i+1}; the exponent t[i] must be positive."""
    return t[:i] + (t[i] - 1,) + t[i + 1 :]


def pure_power_bounds(terms, nvars):
    """For each variable x_i, the least a > 0 with x_i^a among `terms`, or
    None when no pure power of x_i is among them."""
    out = [None] * nvars
    for t in terms:
        hits = [i for i, e in enumerate(t) if e]
        if len(hits) == 1:
            i = hits[0]
            if out[i] is None or t[i] < out[i]:
                out[i] = t[i]
    return out


def terms_of_degree(nvars, d):
    """All terms of Q[x1..xn] of degree exactly d."""
    if nvars == 0:
        return [()] if d == 0 else []
    out = []

    def rec(prefix, left, pos):
        if pos == nvars - 1:
            out.append(prefix + (left,))
            return
        for e in range(left, -1, -1):
            rec(prefix + (e,), left - e, pos + 1)

    rec((), d, 0)
    return out


def terms_up_to_degree(nvars, d):
    """All terms of degree <= d."""
    out = []
    for k in range(d + 1):
        out.extend(terms_of_degree(nvars, k))
    return out


# ---------------------------------------------------------------------------
# orderings


class TermOrder:
    """A degree-compatible-or-lex term ordering with a module extension.

    The module extension is position-over-term in the weak sense: module
    terms are compared by the base ordering on their term parts first, and
    ties are broken so that a smaller component index gives the *larger*
    module term (e1 > e2 > ... > er).
    """

    def __init__(self, name):
        if name not in ORDER_NAMES:
            raise ValueError(f"unknown term order {name!r}")
        self.name = name

    def key(self, t):
        """Sort key for terms; bigger key means bigger term."""
        if self.name == "degrevlex":
            return (sum(t), tuple(-e for e in reversed(t)))
        if self.name == "deglex":
            return (sum(t), t)
        return t

    def mod_key(self, mt):
        """Sort key for module terms under the sigma-Pos extension."""
        t, k = mt
        return (self.key(t), -k)

    def greater(self, s, t):
        return self.key(s) > self.key(t)

    def mod_greater(self, ms, mt):
        return self.mod_key(ms) > self.mod_key(mt)

    def __repr__(self):
        return f"TermOrder({self.name!r})"

    def __eq__(self, other):
        return isinstance(other, TermOrder) and self.name == other.name


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """A polynomial in Q[x1..xn], stored as a sparse term->coefficient map."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars, coeffs=None):
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            for t, c in coeffs.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    self.coeffs[t] = c

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {term_one(nvars): Fraction(c)})

    @classmethod
    def monomial(cls, nvars, t, c=1):
        return cls(nvars, {t: Fraction(c)})

    @classmethod
    def variable(cls, nvars, i):
        """The variable x_{i+1} (i is a 0-based position)."""
        return cls(nvars, {unit_terms(nvars)[i]: Fraction(1)})

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial")
        return max(term_deg(t) for t in self.coeffs)

    def coeff(self, t):
        return self.coeffs.get(t, Fraction(0))

    def terms(self):
        return self.coeffs.keys()

    def leading_term(self, order):
        """Return (term, coefficient) of the largest term under `order`."""
        if not self.coeffs:
            raise ValueError("leading term of the zero polynomial")
        t = max(self.coeffs, key=order.key)
        return t, self.coeffs[t]

    def __add__(self, other):
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            s = out.get(t, 0) + c
            if s:
                out[t] = s
            else:
                out.pop(t, None)
        return Poly(self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.nvars, {t: -c for t, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = {}
            for s, a in self.coeffs.items():
                for t, b in other.coeffs.items():
                    st = term_mul(s, t)
                    v = out.get(st, 0) + a * b
                    if v:
                        out[st] = v
                    else:
                        out.pop(st, None)
            return Poly(self.nvars, out)
        if isinstance(other, Vector):
            return NotImplemented
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return Poly(self.nvars)
        return Poly(self.nvars, {t: c * v for t, v in self.coeffs.items()})

    def mul_term(self, t):
        return Poly(self.nvars, {term_mul(t, s): c for s, c in self.coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"Poly({self.nvars}, {self.coeffs!r})"


# ---------------------------------------------------------------------------
# vectors


class Vector:
    """A vector of Q[x1..xn]^r, stored as a sparse (term, comp)->coeff map."""

    __slots__ = ("nvars", "rank", "coeffs")

    def __init__(self, nvars, rank, coeffs=None):
        self.nvars = nvars
        self.rank = rank
        self.coeffs = {}
        if coeffs:
            for mt, c in coeffs.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    self.coeffs[mt] = c

    @classmethod
    def zero(cls, nvars, rank):
        return cls(nvars, rank)

    @classmethod
    def monomial(cls, nvars, rank, t, k, c=1):
        """The vector c * t * e_k (k is 1-based)."""
        if not 1 <= k <= rank:
            raise ValueError(f"component {k} out of range 1..{rank}")
        return cls(nvars, rank, {(t, k): Fraction(c)})

    @classmethod
    def unit(cls, nvars, rank, k):
        return cls.monomial(nvars, rank, term_one(nvars), k)

    @classmethod
    def from_polys(cls, polys):
        """Build (p_1, ..., p_r) from a list of Poly of common nvars."""
        rank = len(polys)
        nvars = polys[0].nvars
        coeffs = {}
        for k, p in enumerate(polys, start=1):
            for t, c in p.coeffs.items():
                coeffs[(t, k)] = c
        return cls(nvars, rank, coeffs)

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        if not self.coeffs:
            raise ValueError("degree of the zero vector")
        return max(term_deg(t) for t, _ in self.coeffs)

    def coeff(self, mt):
        return self.coeffs.get(mt, Fraction(0))

    def support(self):
        return self.coeffs.keys()

    def component(self, k):
        """The k-th polynomial entry (k is 1-based)."""
        return Poly(
            self.nvars, {t: c for (t, j), c in self.coeffs.items() if j == k}
        )

    def components(self):
        return [self.component(k) for k in range(1, self.rank + 1)]

    def leading_modterm(self, order):
        """Return ((term, comp), coeff) of the sigma-Pos largest module term."""
        if not self.coeffs:
            raise ValueError("leading term of the zero vector")
        mt = max(self.coeffs, key=order.mod_key)
        return mt, self.coeffs[mt]

    def __add__(self, other):
        out = dict(self.coeffs)
        for mt, c in other.coeffs.items():
            s = out.get(mt, 0) + c
            if s:
                out[mt] = s
            else:
                out.pop(mt, None)
        return Vector(self.nvars, self.rank, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Vector(
            self.nvars, self.rank, {mt: -c for mt, c in self.coeffs.items()}
        )

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return Vector(self.nvars, self.rank)
        return Vector(
            self.nvars, self.rank, {mt: c * v for mt, v in self.coeffs.items()}
        )

    def mul_term(self, t, c=1):
        """Multiply by the scalar multiple c*t of a term."""
        c = Fraction(c)
        if not c:
            return Vector(self.nvars, self.rank)
        return Vector(
            self.nvars,
            self.rank,
            {(term_mul(t, s), k): c * v for (s, k), v in self.coeffs.items()},
        )

    def mul_poly(self, p):
        out = {}
        for t, c in p.coeffs.items():
            for (s, k), v in self.coeffs.items():
                mt = (term_mul(t, s), k)
                out[mt] = out.get(mt, 0) + c * v
        return Vector(self.nvars, self.rank, out)

    def __rmul__(self, other):
        if isinstance(other, Poly):
            return self.mul_poly(other)
        return self.scale(other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return self.mul_poly(other)
        return self.scale(other)

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and self.nvars == other.nvars
            and self.rank == other.rank
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"Vector({self.nvars}, {self.rank}, {self.coeffs!r})"
