"""Dense exact-rational matrices for the multiplication maps, and the sparse
elimination behind the main algorithm.

The elimination is fraction-free: its rows are primitive integer
coefficient dicts, and `Fraction`s are built only for its output, one per
coefficient, by dividing each row by its pivot coefficient."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import PreconditionError
from .ring import Vector, term_deg, terms_up_to_degree


class RatMatrix:
    """A dense matrix over Q, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[Fraction(0)] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("matrix data does not match dimensions")
            self.data = [[Fraction(x) for x in row] for row in data]

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
        return m

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, rows)

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = RatMatrix(self.rows, other.cols)
        for i in range(self.rows):
            arow = self.data[i]
            orow = out.data[i]
            for k, a in enumerate(arow):
                if a:
                    brow = other.data[k]
                    for j in range(other.cols):
                        if brow[j]:
                            orow[j] += a * brow[j]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"


def _degree_key(order):
    """Sort key for module terms: degree first, then the sigma-Pos key.

    The main algorithm works on degree-truncated universes, which needs a
    degree-compatible elimination order; for degrevlex and deglex this is
    the sigma-Pos order itself, for lex its refinement by degree.
    """
    key = order.key
    return lambda mt: (term_deg(mt[0]), key(mt[0]), -mt[1])


def _echelon(rows, key):
    """Gauss-Jordan elimination of the rational coefficient dicts `rows`.

    Returns the reduced echelon basis of their K-span as a dict from pivot
    to row, largest pivot first: each row is monic at its `key`-largest
    term, its pivot, and no other row contains that pivot.
    """
    basis = {}
    _reduce_into(basis, map(_integral, rows), key)
    return {p: _monic(basis[p], p) for p in sorted(basis, key=key, reverse=True)}


def _reduce_into(basis, rows, key):
    """Insert the integer coefficient dicts `rows` into the echelon basis
    `basis` (pivot -> row), in place.

    Each row of `basis` is a primitive integer dict (its coefficients have
    gcd 1) whose pivot, its `key`-largest term, has a positive coefficient,
    and no other row contains that pivot; `_monic` turns the rows into the
    reduced echelon basis over Q, which is unique.  Elimination is
    fraction-free: clearing a term scales both rows by integers (see
    `_eliminate`), and every row it changes is divided by its content.

    A pivot, once in `basis`, stays: inserting a row only clears its pivot
    from the other rows, and each row's pivot is larger than every other
    term of it.
    """
    for coeffs in rows:
        r = dict(coeffs)
        # the basis rows hold no pivot but their own, so clearing one only
        # rescales the coefficients of the other pivots
        for p in [mt for mt in r if mt in basis]:
            _eliminate(r, p, basis[p])
        if not r:
            continue
        piv = max(r, key=key)
        r = _primitive(r, piv)
        for q, row in basis.items():
            if piv in row:
                _eliminate(row, piv, r)
                basis[q] = _primitive(row, q)
        basis[piv] = r


def _eliminate(r, p, row):
    """Clear the term p of the integer dict r with `row`, whose pivot p has
    a positive coefficient: r <- (row[p]/g) r - (r[p]/g) row, in place,
    with g = gcd(row[p], r[p]), dropping the terms that cancel."""
    a, b = row[p], r[p]
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        for mt in r:
            r[mt] *= a
    # b and every coefficient of row are nonzero, so a sum that cancels
    # had its key in r
    for mt, c in row.items():
        s = r.get(mt, 0) - b * c
        if s:
            r[mt] = s
        else:
            del r[mt]


def _primitive(r, piv):
    """The integer dict r divided by its content, signed so that the
    coefficient of piv is positive."""
    g = gcd(*r.values())
    if r[piv] < 0:
        g = -g
    if g == 1:
        return r
    return {mt: c // g for mt, c in r.items()}


def _integral(coeffs):
    """The rational coefficient dict `coeffs` times the lcm of its
    denominators, with integer coefficients."""
    m = lcm(*(c.denominator for c in coeffs.values()))
    return {mt: c.numerator * (m // c.denominator) for mt, c in coeffs.items()}


def _monic(row, piv):
    """The integer row divided by its coefficient at piv, over Q."""
    lc = row[piv]
    return {mt: Fraction(c, lc) for mt, c in row.items()}


def span_basis(vectors, universe):
    """Reduced echelon basis of the K-span of `vectors`, with the columns
    ordered as `universe` (largest first)."""
    vectors = list(vectors)
    if not vectors:
        return []
    nvars, rank = vectors[0].nvars, vectors[0].rank
    pos = {mt: -c for c, mt in enumerate(universe)}
    for v in vectors:
        for t, k in v.support():
            if (t, k) not in pos:
                raise PreconditionError(
                    f"vector term (exponents {t}, component {k}) lies outside "
                    "the coordinate universe"
                )
    rows = _echelon((v.coeffs for v in vectors), pos.__getitem__)
    return [Vector(nvars, rank, r) for r in rows.values()]


def degree_universe(nvars, rank, d, order):
    """All module terms of degree <= d, sorted degree first, then
    sigma-Pos, descending."""
    terms = terms_up_to_degree(nvars, d)
    universe = [(t, k) for k in range(1, rank + 1) for t in terms]
    universe.sort(key=_degree_key(order), reverse=True)
    return universe
